#include "lint/lexer.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

namespace fela::lint {

FileText Preprocess(const std::string& contents) {
  FileText out;
  std::string code_line;
  std::string comment_line;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  bool escaped = false;

  auto flush_line = [&] {
    out.code.push_back(code_line);
    out.comments.push_back(comment_line);
    code_line.clear();
    comment_line.clear();
  };

  for (size_t i = 0; i < contents.size(); ++i) {
    const char c = contents[i];
    const char next = i + 1 < contents.size() ? contents[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      escaped = false;
      flush_line();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          code_line += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          code_line += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kString;
          code_line += '"';
        } else if (c == '\'') {
          state = State::kChar;
          code_line += '\'';
        } else {
          code_line += c;
        }
        break;
      case State::kLineComment:
        comment_line += c;
        code_line += ' ';
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          code_line += "  ";
          ++i;
        } else {
          comment_line += c;
          code_line += ' ';
        }
        break;
      case State::kString:
        if (escaped) {
          escaped = false;
          code_line += ' ';
        } else if (c == '\\') {
          escaped = true;
          code_line += ' ';
        } else if (c == '"') {
          state = State::kCode;
          code_line += '"';
        } else {
          code_line += ' ';
        }
        break;
      case State::kChar:
        if (escaped) {
          escaped = false;
          code_line += ' ';
        } else if (c == '\\') {
          escaped = true;
          code_line += ' ';
        } else if (c == '\'') {
          state = State::kCode;
          code_line += '\'';
        } else {
          code_line += ' ';
        }
        break;
    }
  }
  flush_line();
  return out;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

size_t FindWord(const std::string& line, const std::string& word,
                size_t from) {
  size_t pos = line.find(word, from);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(line[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || !IsIdentChar(line[end]);
    if (left_ok && right_ok) return pos;
    pos = line.find(word, pos + 1);
  }
  return std::string::npos;
}

bool ContainsWord(const std::string& line, const std::string& word) {
  return FindWord(line, word) != std::string::npos;
}

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> PathComponents(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '/' || c == '\\') {
      if (!cur.empty()) parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) parts.push_back(cur);
  return parts;
}

bool HasComponent(const std::vector<std::string>& parts,
                  std::initializer_list<const char*> names) {
  for (const auto& p : parts) {
    for (const char* n : names) {
      if (p == n) return true;
    }
  }
  return false;
}

std::vector<std::string> CollectIncludes(const std::string& contents) {
  std::vector<std::string> out;
  std::istringstream in(contents);
  std::string line;
  while (std::getline(in, line)) {
    const std::string t = Trim(line);
    if (t.rfind("#include", 0) != 0) continue;
    const size_t open = t.find('"');
    if (open == std::string::npos) continue;
    const size_t close = t.find('"', open + 1);
    if (close == std::string::npos || close == open + 1) continue;
    out.push_back(t.substr(open + 1, close - open - 1));
  }
  return out;
}

bool PathMatchesInclude(const std::string& path,
                        const std::string& include_spec) {
  if (path == include_spec) return true;
  if (path.size() <= include_spec.size()) return false;
  return path.compare(path.size() - include_spec.size(), include_spec.size(),
                      include_spec) == 0 &&
         path[path.size() - include_spec.size() - 1] == '/';
}

bool ReadFile(const std::string& path, std::string* contents) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *contents = ss.str();
  return true;
}

}  // namespace fela::lint
