#ifndef FELA_COMMON_TOKENIZE_H_
#define FELA_COMMON_TOKENIZE_H_

#include <bit>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/annotations.h"

namespace fela::common {

/// Pigweed-style tokenized tracing: the format string of a hot-path
/// trace/span detail is hashed to a 32-bit token at compile time, and
/// the call site stores only {token, packed args} — a handful of raw
/// stores instead of an StrFormat + std::string allocation. The text is
/// reconstructed on demand (in-process via the global TokenRegistry, or
/// offline by tools/fela-detok from the token table a written transcript
/// carries, sim/trace_io.h) byte-identically to what StrFormat would have
/// produced.

/// 32-bit FNV-1a over the format string; constexpr so FELA_TOK sites
/// bake the token into the binary with zero runtime hashing.
constexpr uint32_t TokenHash32(std::string_view s) {
  uint32_t hash = 2166136261u;
  for (const char c : s) {
    hash ^= static_cast<uint8_t>(c);
    hash *= 16777619u;
  }
  return hash;
}

namespace internal_tokenize {
// The printf conversion grammar AppendDetokFormat renders and FELA_TOK
// admits: %[flags][width][.precision][length]conv.
constexpr bool IsFlag(char c) {
  return c == '-' || c == '+' || c == ' ' || c == '#' || c == '0';
}
constexpr bool IsDigit(char c) { return c >= '0' && c <= '9'; }
constexpr bool IsLengthMod(char c) {
  return c == 'l' || c == 'h' || c == 'z' || c == 'j' || c == 't' || c == 'L';
}
constexpr bool IsIntegerConv(char c) {
  return c == 'd' || c == 'i' || c == 'u' || c == 'o' || c == 'x' ||
         c == 'X' || c == 'c';
}
constexpr bool IsFloatConv(char c) {
  return c == 'f' || c == 'F' || c == 'e' || c == 'E' || c == 'g' ||
         c == 'G' || c == 'a' || c == 'A';
}
}  // namespace internal_tokenize

/// The format policy FELA_TOK enforces at compile time: every conversion
/// is one AppendDetokFormat renders from a packed numeric slot (an
/// integer conversion diuoxXc or a float conversion fFeEgGaA, so never
/// %s, %p or %n), no '%' dangles at the end, and there are at most 4
/// conversions (the TokArgs slots). "%%" is a literal percent, not a
/// conversion.
consteval bool IsTokenizableFormat(std::string_view fmt) {
  int conversions = 0;
  size_t i = 0;
  while (i < fmt.size()) {
    if (fmt[i++] != '%') continue;
    if (i < fmt.size() && fmt[i] == '%') {
      ++i;
      continue;
    }
    while (i < fmt.size() && internal_tokenize::IsFlag(fmt[i])) ++i;
    while (i < fmt.size() && internal_tokenize::IsDigit(fmt[i])) ++i;
    if (i < fmt.size() && fmt[i] == '.') {
      ++i;
      while (i < fmt.size() && internal_tokenize::IsDigit(fmt[i])) ++i;
    }
    while (i < fmt.size() && internal_tokenize::IsLengthMod(fmt[i])) ++i;
    if (i == fmt.size()) return false;  // dangling '%...'
    const char conv = fmt[i++];
    if (!internal_tokenize::IsIntegerConv(conv) &&
        !internal_tokenize::IsFloatConv(conv)) {
      return false;
    }
    ++conversions;
  }
  return conversions <= 4;
}

/// Up to four arguments packed into fixed-width slots. Integers widen
/// to 64 bits (so `%d` vs `%zu` call sites need no per-type storage),
/// doubles are stored as their bit pattern; a 2-bit tag per slot keeps
/// the detokenizer honest about which reading to use.
enum class TokArgType : uint8_t { kNone = 0, kInt = 1, kUint = 2, kDouble = 3 };

struct TokArgs {
  uint64_t values[4] = {0, 0, 0, 0};
  uint8_t count = 0;
  uint8_t types = 0;  // 2 bits per slot, slot 0 in the low bits

  TokArgType type(int slot) const {
    return static_cast<TokArgType>((types >> (2 * slot)) & 3u);
  }

  template <typename T>
  void Push(T v) {
    static_assert(std::is_arithmetic_v<T>,
                  "tokenized details take only numeric args; tokenize the "
                  "whole string instead of passing one");
    if constexpr (std::is_floating_point_v<T>) {
      Put(std::bit_cast<uint64_t>(static_cast<double>(v)),
          TokArgType::kDouble);
    } else if constexpr (std::is_signed_v<T>) {
      Put(static_cast<uint64_t>(static_cast<int64_t>(v)), TokArgType::kInt);
    } else {
      Put(static_cast<uint64_t>(v), TokArgType::kUint);
    }
  }

 private:
  void Put(uint64_t bits, TokArgType type) {
    values[count] = bits;
    types = static_cast<uint8_t>(types |
                                 (static_cast<uint8_t>(type) << (2 * count)));
    ++count;
  }
};

namespace internal_tokenize {
struct TokSite;
}  // namespace internal_tokenize

/// What FELA_TOK yields: the compile-time token plus the literal it
/// hashes (kept for in-process registration and rendering). The
/// constructor is private and only FELA_TOK reaches it, so a token is
/// never hand-built: it is the hash of a literal that FELA_TOK checked
/// against the format policy.
class TokenizedFmt {
 public:
  constexpr uint32_t token() const { return token_; }
  constexpr const char* fmt() const { return fmt_; }

 private:
  friend struct internal_tokenize::TokSite;
  constexpr TokenizedFmt(uint32_t token, const char* fmt)
      : token_(token), fmt_(fmt) {}

  uint32_t token_;
  const char* fmt_;
};

namespace internal_tokenize {
/// FELA_TOK's way in: hashes the literal at compile time, so the token
/// of every TokenizedFmt is the hash of its own text.
struct TokSite {
  static consteval TokenizedFmt Make(const char* fmt) {
    return TokenizedFmt(TokenHash32(fmt), fmt);
  }
};
}  // namespace internal_tokenize

/// The stored form of a trace/span detail. token == 0 means "no
/// detail"; construction from FELA_TOK packs the args immediately, so
/// recording is a trivially-copyable struct store.
struct TokenizedDetail {
  uint32_t token = 0;
  TokArgs args;

  TokenizedDetail() = default;
  template <typename... Args>
  explicit TokenizedDetail(TokenizedFmt fmt, Args... a) : token(fmt.token()) {
    static_assert(sizeof...(Args) <= 4,
                  "tokenized details pack at most 4 args");
    (args.Push(a), ...);
  }

  bool empty() const { return token == 0; }
};

/// token -> format string map. The process-global instance is filled
/// lazily by FELA_TOK sites on first execution; fela-detok builds its
/// own from a transcript's token table. Register detects collisions
/// (same token, different format), so two colliding FELA_TOK sites
/// CHECK-fail in the process that registers both.
class TokenRegistry {
 public:
  /// False iff `token` is already mapped to a different format string.
  bool Register(uint32_t token, std::string_view fmt,
                std::string* error = nullptr);

  /// The format for `token`, or nullptr. The pointer stays valid for
  /// the registry's lifetime (entries are never removed).
  const std::string* Find(uint32_t token) const;

  static TokenRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<uint32_t, std::string> entries_ FELA_GUARDED_BY(mu_);
};

/// Appends `fmt` rendered with the packed args, byte-identical to what
/// the original printf-family call would have produced: integer
/// conversions are re-run at 64-bit width (`%d` -> `%lld` etc. — same
/// digits for every in-range value), floats as double. `%%` passes
/// through; `%s` and other non-packable conversions render as their
/// literal spec text (IsTokenizableFormat keeps them out of FELA_TOK
/// sites at compile time).
///
/// A conversion with no flag and no width takes std::to_chars, which
/// writes printf's bytes in the C locale: `d i u x`, and `f e g` with or
/// without a `.precision`. Every other conversion (`c X o`, `F E G a A`,
/// any flag, width or integer precision) goes through snprintf with a
/// spec built on the stack. Literal runs are copied with one append.
void AppendDetokFormat(std::string* out, std::string_view fmt,
                       const TokArgs& args);

/// AppendDetokFormat into a fresh string.
std::string DetokFormat(const std::string& fmt, const TokArgs& args);

/// Appends a stored detail rendered via `registry` (the process-global
/// one when null). An empty detail appends nothing; an unknown token
/// appends "<token %08x?>" so a missing format is visible, not silent.
void AppendDetokenized(std::string* out, const TokenizedDetail& detail,
                       const TokenRegistry* registry = nullptr);

/// AppendDetokenized into a fresh string.
std::string Detokenize(const TokenizedDetail& detail,
                       const TokenRegistry* registry = nullptr);

namespace internal_tokenize {
/// FELA_TOK backing: registers into the global registry, CHECK-failing
/// on a collision (two distinct live format strings, one token).
bool RegisterSiteOrDie(uint32_t token, const char* fmt);
}  // namespace internal_tokenize

}  // namespace fela::common

/// Tokenizes a format-string literal at compile time. Yields a
/// TokenizedFmt; pair it with up to 4 numeric args via TokenizedDetail:
///
///   FELA_TRACE(trace, now, id, kind, FELA_TOK("it=%d n=%llu"), it, n);
///   ScopedSpan s(sink, w, phase, it,
///                common::TokenizedDetail(FELA_TOK("it=%d"), it));
///
/// `fmt` must be a string literal that meets IsTokenizableFormat; both
/// are compile errors otherwise. The one-time registration (a static
/// local) is what lets in-process renderers and the transcript's token
/// table find the format.
#define FELA_TOK(fmt)                                                       \
  ([] {                                                                     \
    static_assert(::fela::common::IsTokenizableFormat(fmt),                 \
                  "FELA_TOK format breaks the tokenized-format policy "     \
                  "(see IsTokenizableFormat)");                             \
    constexpr ::fela::common::TokenizedFmt fela_tok_fmt_ =                  \
        ::fela::common::internal_tokenize::TokSite::Make(fmt);              \
    static const bool fela_tok_registered_ =                                \
        ::fela::common::internal_tokenize::RegisterSiteOrDie(               \
            fela_tok_fmt_.token(), fmt);                                    \
    (void)fela_tok_registered_;                                             \
    return fela_tok_fmt_;                                                   \
  }())

#endif  // FELA_COMMON_TOKENIZE_H_
