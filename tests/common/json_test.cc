#include "common/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"

namespace fela::common {
namespace {

TEST(JsonTest, BuildsAndDumpsCompact) {
  Json doc = Json::Object();
  doc.Set("name", "fela");
  doc.Set("n", 3);
  doc.Set("ok", true);
  doc.Set("none", Json());
  Json arr = Json::Array();
  arr.Append(1.5);
  arr.Append("x");
  doc.Set("items", std::move(arr));
  EXPECT_EQ(doc.Dump(),
            R"({"name":"fela","n":3,"ok":true,"none":null,"items":[1.5,"x"]})");
}

TEST(JsonTest, KeyOrderPreservedAndReplaceInPlace) {
  Json doc = Json::Object();
  doc.Set("b", 1);
  doc.Set("a", 2);
  doc.Set("b", 3);  // replaces, keeps slot
  EXPECT_EQ(doc.Dump(), R"({"b":3,"a":2})");
}

TEST(JsonTest, RoundTripsThroughParse) {
  Json doc = Json::Object();
  doc.Set("text", "line1\n\"quoted\"\t\\slash");
  doc.Set("neg", -12.25);
  doc.Set("big", 1e9);
  Json parsed;
  std::string error;
  ASSERT_TRUE(Json::Parse(doc.Dump(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("text")->string_value(), "line1\n\"quoted\"\t\\slash");
  EXPECT_DOUBLE_EQ(parsed.Find("neg")->number_value(), -12.25);
  EXPECT_DOUBLE_EQ(parsed.Find("big")->number_value(), 1e9);
}

TEST(JsonTest, ParsesNestedDocument) {
  const char* text = R"({
    "a": [1, 2, {"k": null}],
    "b": {"c": false, "d": "e"}
  })";
  Json doc;
  std::string error;
  ASSERT_TRUE(Json::Parse(text, &doc, &error)) << error;
  ASSERT_TRUE(doc.Find("a")->is_array());
  EXPECT_EQ(doc.Find("a")->size(), 3u);
  EXPECT_TRUE(doc.Find("a")->at(2).Find("k")->is_null());
  EXPECT_FALSE(doc.Find("b")->Find("c")->bool_value());
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(JsonTest, RejectsMalformedInput) {
  Json doc;
  std::string error;
  EXPECT_FALSE(Json::Parse("{", &doc, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(Json::Parse("[1, 2,]", &doc, &error));
  EXPECT_FALSE(Json::Parse(R"({"a": 1} trailing)", &doc, &error));
  EXPECT_FALSE(Json::Parse("", &doc, &error));
}

TEST(JsonTest, PrettyPrintIndents) {
  Json doc = Json::Object();
  doc.Set("a", 1);
  const std::string pretty = doc.Dump(2);
  EXPECT_NE(pretty.find("\n  \"a\": 1"), std::string::npos);
}

TEST(JsonTest, QuoteEscapes) {
  EXPECT_EQ(Json::Quote("a\"b\\c\n"), R"("a\"b\\c\n")");
}

/// The printf formulation AppendJsonNumber replaced: integral values
/// below 1e15 in magnitude via "%lld", everything else via "%.17g".
std::string PrintfJsonNumber(double n) {
  if (!std::isfinite(n)) return "null";
  if (std::abs(n) < 1e15 &&
      n == static_cast<double>(static_cast<long long>(n))) {
    return StrFormat("%lld", static_cast<long long>(n));
  }
  return StrFormat("%.17g", n);
}

/// A fixed sample of >= 1M doubles: raw bit patterns (every exponent,
/// denormals, NaN/inf), integers of every magnitude across the 1e15
/// branch point, and time-like values (seconds x 1e6, as the Chrome
/// exporter writes them), plus the hand-picked edges.
std::vector<double> NumberSample() {
  std::vector<double> out = {
      0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.1, 1e-6, 1.5e6,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      9007199254740991.0,   // 2^53 - 1
      9007199254740992.0,   // 2^53
      9007199254740994.0,   // 2^53 + 2 (2^53 + 1 is not representable)
      -9007199254740991.0, -9007199254740992.0,
      1e15, 1e15 - 1.0, 1e15 + 1.0, 1e15 - 0.5, 1e15 - 0.125,
      -1e15, -1e15 + 1.0, -1e15 - 1.0, 999999999999999.9,
      9.2233720368547758e18, -9.2233720368547758e18, 1e19, -1e300,
  };
  Rng rng(20201);
  constexpr int kEach = 350000;
  for (int i = 0; i < kEach; ++i) {
    out.push_back(std::bit_cast<double>(rng.Next()));
    // Denormals: a zero exponent field with random sign and mantissa.
    if (i % 64 == 0) {
      out.push_back(
          std::bit_cast<double>(rng.Next() & 0x800fffffffffffffull));
    }
  }
  for (int i = 0; i < kEach; ++i) {
    const int shift = static_cast<int>(rng.UniformInt(64));
    out.push_back(
        static_cast<double>(static_cast<int64_t>(rng.Next()) >> shift));
  }
  for (int i = 0; i < kEach; ++i) {
    const int exp10 = static_cast<int>(rng.UniformRange(-9, 12));
    const double seconds = rng.UniformDouble() * std::pow(10.0, exp10);
    out.push_back((i % 2 == 0 ? seconds : -seconds) * 1e6);
  }
  return out;
}

TEST(JsonTest, AppendJsonNumberMatchesPrintf) {
  const std::vector<double> sample = NumberSample();
  ASSERT_GE(sample.size(), 1000000u);
  size_t mismatches = 0;
  std::string got;
  for (const double n : sample) {
    got.clear();
    AppendJsonNumber(&got, n);
    const std::string want = PrintfJsonNumber(n);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << StrFormat("%a", n) << ": to_chars gave " << got
                    << ", printf gives " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << sample.size() << " values";
}

TEST(JsonTest, NumberEdgesRenderAsDumpDid) {
  const auto render = [](double n) {
    std::string out;
    AppendJsonNumber(&out, n);
    return out;
  };
  EXPECT_EQ(render(-0.0), "0");
  EXPECT_EQ(render(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(render(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(render(1e15 - 1.0), "999999999999999");
  EXPECT_EQ(render(1e15), "1000000000000000");
  EXPECT_EQ(render(1.5e6), "1500000");
  EXPECT_EQ(render(0.1), "0.10000000000000001");
  EXPECT_EQ(render(1e300), "1.0000000000000001e+300");
  EXPECT_EQ(Json(-0.0).Dump(), "0");
}

TEST(JsonTest, AppendJsonStringEscapesEveryByteAsQuoteDid) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    std::string want;
    switch (c) {
      case '"': want = "\\\""; break;
      case '\\': want = "\\\\"; break;
      case '\n': want = "\\n"; break;
      case '\r': want = "\\r"; break;
      case '\t': want = "\\t"; break;
      default:
        want = b < 0x20 ? StrFormat("\\u%04x", b) : std::string(1, c);
    }
    std::string got;
    AppendJsonString(&got, std::string("a") + c + "b");
    EXPECT_EQ(got, "\"a" + want + "b\"") << "byte " << b;
  }
  EXPECT_EQ(Json::Quote("\xc3\xa9\x01\""), "\"\xc3\xa9\\u0001\\\"\"");
}

}  // namespace
}  // namespace fela::common
