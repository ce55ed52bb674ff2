// Differential oracle for the detokenizer's fast path: AppendDetokFormat
// (to_chars for plain d/i/u/x and f/e/g, snprintf from a stack-built
// spec for the rest) must write the same bytes as the snprintf-only
// reference for every conversion FELA_TOK admits, with and without
// flags, width, precision and length modifiers, from every slot type,
// at the values where printf's formatting changes shape.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "common/tokenize.h"
#include "testing/observability_reference.h"

namespace fela::testing {
namespace {

using common::TokArgs;

constexpr std::string_view kIntegerConvs = "diuoxXc";
constexpr std::string_view kFloatConvs = "fFeEgGaA";

/// Everything between '%' and the conversion letter: plain, each flag,
/// widths (one past the 128-byte stack buffer), precisions (empty, the
/// FELA_TOK sites' .1 .2 .4, a long one) and their mixes.
const std::vector<std::string>& SpecPrefixes() {
  static const std::vector<std::string> prefixes = {
      "",     "-",     "+",     " ",      "#",       "0",      "5",
      "-8",   "08",    "+ #0",  "200",    ".",       ".0",     ".1",
      ".2",   ".4",    ".17",   ".30",    ".200",    "12.4",   "-12.4",
      "+.3",  "#.0",   "0.9",   " .5",    "3.1000",  ".0001",  "l",
      "ll",   "h",     "hh",    "z",      "j",       "L",      ".2l",
      "5ll"};
  return prefixes;
}

std::vector<double> EdgeDoubles() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {0.0,
          -0.0,
          inf,
          -inf,
          nan,
          std::copysign(nan, -1.0),
          1e300,
          -1e300,
          std::numeric_limits<double>::max(),
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          2.2250738585072009e-308,  // largest subnormal
          std::numeric_limits<double>::min(),
          // %g's fixed/exponent boundaries at the default precision.
          1e-5,
          1e-4,
          0.000099999995,
          1e6 - 0.5,
          999999.4999999,
          1e6,
          99999.95,
          // Rounding ties and the FELA_TOK sites' kinds of values.
          0.5,
          1.5,
          2.5,
          0.125,
          0.05,
          0.015,
          1.0 / 3.0,
          -2.0 / 3.0,
          123.456,
          42.0,
          -7.25,
          9007199254740993.0,
          -9.2233720368547758e18,  // INT64_MIN
          9.2233720368547748e18};  // the largest double below 2^63
}

std::vector<int64_t> EdgeInts() {
  return {0,
          1,
          -1,
          7,
          -7,
          42,
          255,
          65535,
          2147483647,
          -2147483648LL,
          4294967296LL,
          999999999999999LL,
          std::numeric_limits<int64_t>::max(),
          std::numeric_limits<int64_t>::min()};
}

std::vector<uint64_t> EdgeUints() {
  return {0u,
          1u,
          10u,
          4294967295u,
          uint64_t{1} << 63,
          std::numeric_limits<uint64_t>::max()};
}

/// Casting a double outside long long's range (or a NaN) to long long,
/// which an integer conversion of a double slot does, is undefined in
/// both renderers; those values are only fed to float conversions.
bool FitsLongLong(double v) {
  return v >= -9.2233720368547758e18 && v < 9.2233720368547758e18;
}

std::string Fast(const std::string& fmt, const TokArgs& args) {
  std::string out = "prefix:";  // appends, never overwrites
  common::AppendDetokFormat(&out, fmt, args);
  return out.substr(7);
}

void ExpectSame(const std::string& fmt, const TokArgs& args) {
  EXPECT_EQ(Fast(fmt, args), ReferenceDetokFormat(fmt, args))
      << "format \"" << fmt << "\", slot 0 bits 0x" << std::hex
      << args.values[0] << " type " << static_cast<int>(args.type(0));
}

template <typename T>
TokArgs One(T v) {
  TokArgs args;
  args.Push(v);
  return args;
}

TEST(DetokReference, EveryConversionFromEverySlotType) {
  int checked = 0;
  for (const std::string& prefix : SpecPrefixes()) {
    for (const char conv : kIntegerConvs) {
      const std::string fmt = "v=%" + prefix + conv + ";";
      std::vector<TokArgs> slots;
      for (const int64_t v : EdgeInts()) slots.push_back(One(v));
      for (const uint64_t v : EdgeUints()) slots.push_back(One(v));
      for (const double v : EdgeDoubles()) {
        if (FitsLongLong(v)) slots.push_back(One(v));
      }
      for (const TokArgs& args : slots) ExpectSame(fmt, args);
      checked += static_cast<int>(slots.size());
    }
    for (const char conv : kFloatConvs) {
      const std::string fmt = "v=%" + prefix + conv + ";";
      std::vector<TokArgs> slots;
      for (const double v : EdgeDoubles()) slots.push_back(One(v));
      for (const int64_t v : EdgeInts()) slots.push_back(One(v));
      for (const uint64_t v : EdgeUints()) slots.push_back(One(v));
      for (const TokArgs& args : slots) ExpectSame(fmt, args);
      checked += static_cast<int>(slots.size());
    }
  }
  EXPECT_GT(checked, 20000);
}

TEST(DetokReference, LiteralsEscapesAndUnrenderedSpecs) {
  TokArgs two;
  two.Push(-3);
  two.Push(0.1);
  const std::vector<std::string> formats = {
      "", "plain text", "100%%", "%%d", "a %d b %.2f c", "%d%f%d",
      "tail %", "tail %-08.3l", "%s %d", "%p", "%n", "%5-d", "%q%d",
      "%d %f %u %x %g", std::string("nul\0%d", 6), "%%%d%%",
      // A spec longer than the stack buffer it is built in.
      "%00000000000000000000000000000000000000005d %.2f"};
  for (const std::string& fmt : formats) ExpectSame(fmt, two);
  // More conversions than packed args surface verbatim.
  ExpectSame("%d %d %d", One(int64_t{1}));
}

/// One random spec: flags, width and precision each present or not,
/// any length modifier, any admitted conversion.
std::string RandomSpec(std::mt19937_64& rng, char conv) {
  static constexpr std::string_view kFlags = "-+ #0";
  static constexpr std::string_view kLengths[] = {"", "", "", "l", "ll",
                                                  "h", "z"};
  std::string spec = "%";
  if (rng() % 4 == 0) {
    const int n = 1 + static_cast<int>(rng() % 3);
    for (int k = 0; k < n; ++k) spec += kFlags[rng() % kFlags.size()];
  }
  if (rng() % 4 == 0) spec += std::to_string(1 + rng() % 40);
  if (rng() % 2 == 0) {
    spec += '.';
    if (rng() % 8 != 0) spec += std::to_string(rng() % 25);
  }
  spec += kLengths[rng() % std::size(kLengths)];
  spec += conv;
  return spec;
}

double RandomDouble(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:  // any bit pattern: NaNs, infinities, subnormals included
      return std::bit_cast<double>(rng());
    case 1:  // a short decimal, the kind the simulator prints
      return static_cast<double>(static_cast<int64_t>(rng() % 2000001) -
                                 1000000) /
             std::pow(10.0, static_cast<double>(rng() % 8));
    case 2:  // near a power of ten, where %g and rounding change shape
      return std::pow(10.0, static_cast<double>(rng() % 41) - 20.0) *
             (1.0 - 0.5e-6 * static_cast<double>(rng() % 3));
    default:
      return static_cast<double>(rng() % 1000) + 0.5;
  }
}

TEST(DetokReference, SeededRandomSweep) {
  std::mt19937_64 rng(20260419);
  static constexpr std::string_view kAllConvs = "diuoxXcfFeEgGaA";
  for (int round = 0; round < 20000; ++round) {
    const int conversions = 1 + static_cast<int>(rng() % 4);
    std::string fmt = "x";
    TokArgs args;
    for (int k = 0; k < conversions; ++k) {
      const char conv = kAllConvs[rng() % kAllConvs.size()];
      fmt += RandomSpec(rng, conv);
      fmt += k % 2 == 0 ? " " : "|";
      const bool integer_conv = kIntegerConvs.find(conv) != std::string::npos;
      switch (rng() % 3) {
        case 0:
          args.Push(static_cast<int64_t>(rng()));
          break;
        case 1:
          args.Push(static_cast<uint64_t>(rng()));
          break;
        default: {
          double v = RandomDouble(rng);
          if (integer_conv && !FitsLongLong(v)) v = std::fmod(v, 1e18);
          if (integer_conv && std::isnan(v)) v = 0.0;
          args.Push(v);
          break;
        }
      }
    }
    ASSERT_EQ(Fast(fmt, args), ReferenceDetokFormat(fmt, args))
        << "round " << round << ", format \"" << fmt << "\"";
  }
}

}  // namespace
}  // namespace fela::testing
