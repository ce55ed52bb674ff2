#ifndef FELA_LINT_LEXER_H_
#define FELA_LINT_LEXER_H_

#include <initializer_list>
#include <string>
#include <vector>

namespace fela::lint {

/// The source lexer underneath fela-lint: one comment/string-aware
/// scanner instead of per-rule ad-hoc state machines. Columns and line
/// numbers survive blanking, so every reported position points at the
/// real source, and string contents are blanked so documented
/// anti-patterns never fire.

/// Per-line split of one file: `code` holds the source with comments
/// and string/char literal *contents* blanked (quotes kept, columns
/// aligned), `comments` holds the comment text of each line.
struct FileText {
  std::vector<std::string> code;
  std::vector<std::string> comments;
};

/// Splits `contents` into aligned code/comment lines (see FileText).
FileText Preprocess(const std::string& contents);

/// True for [A-Za-z0-9_].
bool IsIdentChar(char c);

/// Position of `word` in `line` with identifier boundaries on both
/// sides, or npos.
size_t FindWord(const std::string& line, const std::string& word,
                size_t from = 0);

bool ContainsWord(const std::string& line, const std::string& word);

/// Leading/trailing whitespace removed.
std::string Trim(const std::string& s);

/// Path components of `path`, e.g. "src/core/worker.cc" -> {src,core,...}.
std::vector<std::string> PathComponents(const std::string& path);

/// True when any component of `parts` equals one of `names`.
bool HasComponent(const std::vector<std::string>& parts,
                  std::initializer_list<const char*> names);

/// Quoted #include targets of a file ("core/token_server.h"; angle
/// includes are system headers and carry no project declarations).
/// Parsed from the raw text — Preprocess blanks string literals, and
/// include paths are string literals.
std::vector<std::string> CollectIncludes(const std::string& contents);

/// True when `path` names `include_spec` (equal, or ends with
/// "/<include_spec>" — include specs are root-relative, scanned paths
/// may carry the root prefix).
bool PathMatchesInclude(const std::string& path,
                        const std::string& include_spec);

/// Reads `path` into `contents`; false on I/O error.
bool ReadFile(const std::string& path, std::string* contents);

}  // namespace fela::lint

#endif  // FELA_LINT_LEXER_H_
