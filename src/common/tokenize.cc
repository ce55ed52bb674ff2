#include "common/tokenize.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <system_error>

#include "common/logging.h"
#include "common/string_util.h"

namespace fela::common {
namespace {

using internal_tokenize::IsDigit;
using internal_tokenize::IsFlag;
using internal_tokenize::IsFloatConv;
using internal_tokenize::IsIntegerConv;
using internal_tokenize::IsLengthMod;

/// Runs the printf spec "%<flags_width><length><conv>" against one
/// value. The spec is built on the stack from vetted pieces of a format
/// (never from user input); only a spec longer than the stack buffer,
/// which no FELA_TOK site has, spills to the heap.
template <typename T>
void AppendPrintf(std::string* out, std::string_view flags_width,
                  std::string_view length, char conv, T value) {
  char stack_spec[32];
  std::string heap_spec;
  const size_t len = 1 + flags_width.size() + length.size() + 1;
  char* spec = stack_spec;
  if (len >= sizeof(stack_spec)) {
    heap_spec.resize(len + 1);
    spec = heap_spec.data();
  }
  spec[0] = '%';
  std::memcpy(spec + 1, flags_width.data(), flags_width.size());
  std::memcpy(spec + 1 + flags_width.size(), length.data(), length.size());
  spec[len - 1] = conv;
  spec[len] = '\0';

  char buf[128];
  const int n = std::snprintf(buf, sizeof(buf), spec, value);
  if (n < 0) return;
  const size_t size = static_cast<size_t>(n);
  if (size < sizeof(buf)) {
    out->append(buf, size);
    return;
  }
  const size_t old = out->size();
  out->resize(old + size + 1);
  std::snprintf(out->data() + old, size + 1, spec, value);
  out->resize(old + size);
}

/// Appends to_chars' bytes; false (nothing appended) when they do not
/// fit the buffer, so the caller falls back to snprintf.
template <typename... Args>
bool AppendToChars(std::string* out, Args... args) {
  char buf[128];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), args...);
  if (r.ec != std::errc()) return false;
  out->append(buf, r.ptr);
  return true;
}

/// One parsed conversion: everything between '%' and the length
/// modifier, and whether to_chars can render it.
struct Conversion {
  std::string_view flags_width;  // flags, width and ".precision"
  bool plain = true;             // no flag, no width, a short precision
  int precision = -1;            // -1: none given
  char conv = 0;
};

/// Renders one conversion of the packed slot `bits` read as `type`.
void AppendConversion(std::string* out, const Conversion& c, uint64_t bits,
                      TokArgType type) {
  if (c.conv == 'c') {
    AppendPrintf(out, c.flags_width, "", 'c',
                 static_cast<int>(static_cast<int64_t>(bits)));
    return;
  }
  if (IsIntegerConv(c.conv)) {
    // A double slot re-runs as long long under every integer conversion;
    // the unsigned ones print that long long's bits.
    const uint64_t value =
        type == TokArgType::kDouble
            ? static_cast<uint64_t>(
                  static_cast<long long>(std::bit_cast<double>(bits)))
            : bits;
    const bool is_signed = c.conv == 'd' || c.conv == 'i';
    if (c.plain && c.precision < 0) {
      if (is_signed && AppendToChars(out, static_cast<long long>(value))) {
        return;
      }
      if ((c.conv == 'u' || c.conv == 'x') &&
          AppendToChars(out, value, c.conv == 'x' ? 16 : 10)) {
        return;
      }
    }
    if (is_signed) {
      AppendPrintf(out, c.flags_width, "ll", c.conv,
                   static_cast<long long>(value));
    } else {
      AppendPrintf(out, c.flags_width, "ll", c.conv,
                   static_cast<unsigned long long>(value));
    }
    return;
  }
  double value = 0.0;
  switch (type) {
    case TokArgType::kDouble:
      value = std::bit_cast<double>(bits);
      break;
    case TokArgType::kInt:
      value = static_cast<double>(static_cast<int64_t>(bits));
      break;
    default:
      value = static_cast<double>(bits);
      break;
  }
  if (c.plain && (c.conv == 'f' || c.conv == 'e' || c.conv == 'g')) {
    const std::chars_format format =
        c.conv == 'f'   ? std::chars_format::fixed
        : c.conv == 'e' ? std::chars_format::scientific
                        : std::chars_format::general;
    // printf's default precision is 6; to_chars without one would write
    // the shortest round-trip form instead.
    if (AppendToChars(out, value, format,
                      c.precision < 0 ? 6 : c.precision)) {
      return;
    }
  }
  AppendPrintf(out, c.flags_width, "", c.conv, value);
}

}  // namespace

void AppendDetokFormat(std::string* out, std::string_view fmt,
                       const TokArgs& args) {
  int next_arg = 0;
  size_t i = 0;
  while (i < fmt.size()) {
    const size_t percent = fmt.find('%', i);
    if (percent == std::string_view::npos) {
      out->append(fmt.data() + i, fmt.size() - i);
      break;
    }
    out->append(fmt.data() + i, percent - i);
    i = percent;
    if (i + 1 < fmt.size() && fmt[i + 1] == '%') {
      out->push_back('%');
      i += 2;
      continue;
    }
    // Split the spec into %[flags][width][.precision][length]conv; the
    // length modifier is dropped because every packed integer re-runs
    // at 64-bit width (same digits for every value the original width
    // could hold).
    Conversion c;
    size_t j = i + 1;
    while (j < fmt.size() && IsFlag(fmt[j])) ++j;
    while (j < fmt.size() && IsDigit(fmt[j])) ++j;
    c.plain = j == i + 1;
    if (j < fmt.size() && fmt[j] == '.') {
      ++j;
      c.precision = 0;
      const size_t digits_begin = j;
      for (; j < fmt.size() && IsDigit(fmt[j]); ++j) {
        if (j - digits_begin == 3) c.plain = false;  // left to snprintf
        if (c.plain) c.precision = c.precision * 10 + (fmt[j] - '0');
      }
    }
    c.flags_width = fmt.substr(i + 1, j - i - 1);
    while (j < fmt.size() && IsLengthMod(fmt[j])) ++j;
    if (j >= fmt.size()) {
      out->append(fmt.data() + i, fmt.size() - i);  // dangling '%...'
      break;
    }
    c.conv = fmt[j];
    if ((!IsIntegerConv(c.conv) && !IsFloatConv(c.conv)) ||
        next_arg >= args.count) {
      // %s/%p/%n, or more specs than packed args: surface the spec
      // verbatim rather than invent bytes.
      out->append(fmt.data() + i, j - i + 1);
      i = j + 1;
      continue;
    }
    AppendConversion(out, c, args.values[next_arg], args.type(next_arg));
    ++next_arg;
    i = j + 1;
  }
}

std::string DetokFormat(const std::string& fmt, const TokArgs& args) {
  std::string out;
  AppendDetokFormat(&out, fmt, args);
  return out;
}

bool TokenRegistry::Register(uint32_t token, std::string_view fmt,
                             std::string* error) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.emplace(token, std::string(fmt));
  if (!inserted && it->second != fmt) {
    if (error != nullptr) {
      *error = StrFormat("token %08x collision: \"%s\" vs \"%s\"", token,
                         it->second.c_str(), std::string(fmt).c_str());
    }
    return false;
  }
  return true;
}

const std::string* TokenRegistry::Find(uint32_t token) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(token);
  return it == entries_.end() ? nullptr : &it->second;
}

TokenRegistry& TokenRegistry::Global() {
  static TokenRegistry* registry = new TokenRegistry();
  return *registry;
}

void AppendDetokenized(std::string* out, const TokenizedDetail& detail,
                       const TokenRegistry* registry) {
  if (detail.empty()) return;
  const TokenRegistry& reg =
      registry != nullptr ? *registry : TokenRegistry::Global();
  const std::string* fmt = reg.Find(detail.token);
  if (fmt == nullptr) {
    *out += StrFormat("<token %08x?>", detail.token);
    return;
  }
  AppendDetokFormat(out, *fmt, detail.args);
}

std::string Detokenize(const TokenizedDetail& detail,
                       const TokenRegistry* registry) {
  std::string out;
  AppendDetokenized(&out, detail, registry);
  return out;
}

namespace internal_tokenize {

bool RegisterSiteOrDie(uint32_t token, const char* fmt) {
  std::string error;
  const bool ok = TokenRegistry::Global().Register(token, fmt, &error);
  FELA_CHECK(ok) << error;
  return true;
}

}  // namespace internal_tokenize

}  // namespace fela::common
