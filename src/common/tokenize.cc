#include "common/tokenize.h"

#include <cstdio>

#include "common/logging.h"
#include "common/string_util.h"

namespace fela::common {
namespace {

using internal_tokenize::IsDigit;
using internal_tokenize::IsFlag;
using internal_tokenize::IsFloatConv;
using internal_tokenize::IsIntegerConv;
using internal_tokenize::IsLengthMod;

/// Runs one complete printf spec against one value. The spec is built
/// here from vetted pieces, never from user input.
template <typename T>
void AppendOne(std::string* out, const std::string& spec, T value) {
  char buf[128];
  const int n = std::snprintf(buf, sizeof(buf), spec.c_str(), value);
  if (n < 0) return;
  if (n < static_cast<int>(sizeof(buf))) {
    out->append(buf, static_cast<size_t>(n));
    return;
  }
  std::string big(static_cast<size_t>(n) + 1, '\0');
  std::snprintf(big.data(), big.size(), spec.c_str(), value);
  big.resize(static_cast<size_t>(n));
  out->append(big);
}

}  // namespace

std::string DetokFormat(const std::string& fmt, const TokArgs& args) {
  std::string out;
  int next_arg = 0;
  size_t i = 0;
  while (i < fmt.size()) {
    const char c = fmt[i];
    if (c != '%') {
      out += c;
      ++i;
      continue;
    }
    if (i + 1 < fmt.size() && fmt[i + 1] == '%') {
      out += '%';
      i += 2;
      continue;
    }
    // Split the spec into %[flags][width][.precision][length]conv; the
    // length modifier is dropped because every packed integer re-runs
    // at 64-bit width (same digits for every value the original width
    // could hold).
    size_t j = i + 1;
    std::string flags_width;
    while (j < fmt.size() && IsFlag(fmt[j])) flags_width += fmt[j++];
    while (j < fmt.size() && IsDigit(fmt[j])) flags_width += fmt[j++];
    if (j < fmt.size() && fmt[j] == '.') {
      flags_width += fmt[j++];
      while (j < fmt.size() && IsDigit(fmt[j])) flags_width += fmt[j++];
    }
    while (j < fmt.size() && IsLengthMod(fmt[j])) ++j;
    if (j >= fmt.size()) {
      out.append(fmt, i, fmt.size() - i);  // dangling '%...' at the end
      break;
    }
    const char conv = fmt[j];
    if ((!IsIntegerConv(conv) && !IsFloatConv(conv)) ||
        next_arg >= args.count) {
      // %s/%p/%n, or more specs than packed args: surface the spec
      // verbatim rather than invent bytes.
      out.append(fmt, i, j - i + 1);
      i = j + 1;
      continue;
    }
    const uint64_t bits = args.values[next_arg];
    const TokArgType type = args.type(next_arg);
    ++next_arg;
    if (conv == 'c') {
      AppendOne(&out, "%" + flags_width + "c",
                static_cast<int>(static_cast<int64_t>(bits)));
    } else if (IsIntegerConv(conv)) {
      const std::string spec = "%" + flags_width + "ll" + conv;
      if (type == TokArgType::kDouble) {
        AppendOne(&out, spec,
                  static_cast<long long>(std::bit_cast<double>(bits)));
      } else if (conv == 'd' || conv == 'i') {
        AppendOne(&out, spec, static_cast<long long>(bits));
      } else {
        AppendOne(&out, spec, static_cast<unsigned long long>(bits));
      }
    } else {
      const std::string spec = "%" + flags_width + conv;
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
      AppendOne(&out, spec, value);
    }
    i = j + 1;
  }
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

std::string Detokenize(const TokenizedDetail& detail,
                       const TokenRegistry* registry) {
  if (detail.empty()) return std::string();
  const TokenRegistry& reg =
      registry != nullptr ? *registry : TokenRegistry::Global();
  const std::string* fmt = reg.Find(detail.token);
  if (fmt == nullptr) return StrFormat("<token %08x?>", detail.token);
  return DetokFormat(*fmt, detail.args);
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
