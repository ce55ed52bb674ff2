// Tokenized-tracing unit tests: the compile-time FNV-1a hash and format
// policy, collision detection on known colliding strings, and
// byte-identical re-rendering of packed args.

#include "common/tokenize.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/string_util.h"

namespace fela::common {
namespace {

// The hash must be computable at compile time — that is the whole point
// of FELA_TOK.
static_assert(TokenHash32("") == 2166136261u, "FNV-1a basis");

// The format policy FELA_TOK's static_assert applies: numeric
// conversions only, none dangling, at most 4 (one per TokArgs slot).
static_assert(IsTokenizableFormat("Token_%lld b=%g it=%d"));
static_assert(IsTokenizableFormat("100%% done, %-+ #08.3lf|%hhx|%c|%zu"));
static_assert(!IsTokenizableFormat("name=%s"));
static_assert(!IsTokenizableFormat("%d %d %d %d %d"));
static_assert(!IsTokenizableFormat("dangling %"));

/// Packs `args` exactly as a FELA_TOK call site's TokenizedDetail would
/// and re-renders.
template <typename... Args>
std::string Detok(const char* fmt, Args... args) {
  TokArgs packed;
  (packed.Push(args), ...);
  return DetokFormat(fmt, packed);
}

TEST(TokenHashTest, MatchesFnv1aReferenceValues) {
  EXPECT_EQ(TokenHash32(""), 2166136261u);
  EXPECT_EQ(TokenHash32("a"), 0xe40c292cu);
  EXPECT_EQ(TokenHash32("foobar"), 0xbf9cf968u);
  EXPECT_NE(TokenHash32("it=%d"), TokenHash32("it=%u"));
}

TEST(TokenFormatPolicyTest, AdmitsOnlyWhatFourNumericSlotsCarry) {
  EXPECT_TRUE(IsTokenizableFormat(""));
  EXPECT_TRUE(IsTokenizableFormat("plain text, no conversions"));
  EXPECT_TRUE(IsTokenizableFormat("%d %i %u %o"));
  EXPECT_TRUE(IsTokenizableFormat("%x %X %c"));
  EXPECT_TRUE(IsTokenizableFormat("%f %F %e %E"));
  EXPECT_TRUE(IsTokenizableFormat("%g %G %a %A"));
  EXPECT_TRUE(IsTokenizableFormat("SM-%d %.1fMB among %zu"));
  EXPECT_TRUE(IsTokenizableFormat("%% %% %% %% %% %d"));  // %% is no slot
  // Text arguments cannot pack into a fixed-width numeric slot.
  EXPECT_FALSE(IsTokenizableFormat("name=%s"));
  EXPECT_FALSE(IsTokenizableFormat("ptr=%p"));
  EXPECT_FALSE(IsTokenizableFormat("wrote=%n"));
  EXPECT_FALSE(IsTokenizableFormat("%ls"));
  // A conversion DetokFormat does not render.
  EXPECT_FALSE(IsTokenizableFormat("%q"));
  // More conversions than arg slots.
  EXPECT_TRUE(IsTokenizableFormat("%d %d %d %d"));
  EXPECT_FALSE(IsTokenizableFormat("%d %d %d %d %d"));
  // A '%' with no conversion after it.
  EXPECT_FALSE(IsTokenizableFormat("dangling %"));
  EXPECT_FALSE(IsTokenizableFormat("half a spec %08.3l"));
}

TEST(TokenHashTest, KnownCollidingPairsCollide) {
  // Famous 32-bit FNV-1a collisions — the fixtures for collision
  // handling below and in the trace_io token-table tests.
  EXPECT_EQ(TokenHash32("costarring"), TokenHash32("liquid"));
  EXPECT_EQ(TokenHash32("declinate"), TokenHash32("macallums"));
  EXPECT_NE(TokenHash32("costarring"), TokenHash32("declinate"));
}

TEST(TokenRegistryTest, RegisterDetectsCollisions) {
  const uint32_t token = TokenHash32("costarring");
  ASSERT_EQ(token, TokenHash32("liquid"));
  TokenRegistry registry;
  std::string error;
  EXPECT_TRUE(registry.Register(token, "costarring", &error));
  EXPECT_TRUE(registry.Register(token, "costarring", &error));  // idempotent
  EXPECT_FALSE(registry.Register(token, "liquid", &error));
  EXPECT_NE(error.find("collision"), std::string::npos) << error;
  EXPECT_NE(error.find("costarring"), std::string::npos) << error;
  EXPECT_NE(error.find("liquid"), std::string::npos) << error;
  // The first registration survives the rejected one.
  ASSERT_NE(registry.Find(token), nullptr);
  EXPECT_EQ(*registry.Find(token), "costarring");
}

TEST(TokenMacroTest, FelaTokYieldsHashAndRegistersGlobally) {
  const TokenizedFmt fmt = FELA_TOK("tokenize_test unique %d");
  EXPECT_EQ(fmt.token(), TokenHash32("tokenize_test unique %d"));
  const std::string* found = TokenRegistry::Global().Find(fmt.token());
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, "tokenize_test unique %d");
}

TEST(DetokFormatTest, ByteIdenticalToPrintfAcrossConversions) {
  EXPECT_EQ(Detok("it=%d", -42), StrFormat("it=%d", -42));
  EXPECT_EQ(Detok("w%-3d|", 7), StrFormat("w%-3d|", 7));
  EXPECT_EQ(Detok("|%5d|", 42), StrFormat("|%5d|", 42));
  EXPECT_EQ(Detok("%u", 4000000000u), StrFormat("%u", 4000000000u));
  EXPECT_EQ(Detok("n=%zu", static_cast<size_t>(123456789)),
            StrFormat("n=%zu", static_cast<size_t>(123456789)));
  EXPECT_EQ(Detok("%llu", ~0ull), StrFormat("%llu", ~0ull));
  EXPECT_EQ(Detok("%x/%X", 0xdeadbeefu, 0xcafeu),
            StrFormat("%x/%X", 0xdeadbeefu, 0xcafeu));
  EXPECT_EQ(Detok("%08x", 0xbeefu), StrFormat("%08x", 0xbeefu));
  EXPECT_EQ(Detok("b=%g", 0.25), StrFormat("b=%g", 0.25));
  EXPECT_EQ(Detok("%.4f", 2.718281828), StrFormat("%.4f", 2.718281828));
  EXPECT_EQ(Detok("%e", 1234.5678), StrFormat("%e", 1234.5678));
  EXPECT_EQ(Detok("SM-%d %.1fMB among %zu", 3, 12.5, static_cast<size_t>(4)),
            StrFormat("SM-%d %.1fMB among %zu", 3, 12.5,
                      static_cast<size_t>(4)));
  EXPECT_EQ(Detok("%c%c", 'o', 'k'), StrFormat("%c%c", 'o', 'k'));
  EXPECT_EQ(Detok("100%% done in %d", 3), StrFormat("100%% done in %d", 3));
}

TEST(DetokFormatTest, IntegerWidthModifiersAreTransparent) {
  // %d vs %lld vs %zd: the packed value is always 64-bit, so dropping
  // the call site's length modifier renders the same digits.
  EXPECT_EQ(Detok("Token_%lld b=%g", -9000000000ll, 1.5),
            StrFormat("Token_%lld b=%g", -9000000000ll, 1.5));
  EXPECT_EQ(Detok("%hd", static_cast<short>(-7)),
            StrFormat("%hd", static_cast<short>(-7)));
}

TEST(DetokFormatTest, UnpackableSpecsSurfaceVerbatim) {
  // %s never packs (FELA_TOK rejects it at compile time); rendering
  // keeps the spec text instead of inventing bytes. Same for excess specs.
  EXPECT_EQ(Detok("%s unsupported"), "%s unsupported");
  EXPECT_EQ(Detok("%d then %d", 7), "7 then %d");
  EXPECT_EQ(Detok("dangling %"), "dangling %");
}

TEST(DetokenizeTest, EmptyAndUnknownTokensRenderHonestly) {
  TokenRegistry registry;  // deliberately empty
  EXPECT_EQ(Detokenize(TokenizedDetail{}, &registry), "");
  TokenizedDetail unknown;  // as parsed from a transcript with no table
  unknown.token = 0xffu;
  EXPECT_EQ(Detokenize(unknown, &registry), "<token 000000ff?>");
}

TEST(TokArgsTest, TypeTagsTrackSignedness) {
  TokArgs args;
  args.Push(-1);
  args.Push(2u);
  args.Push(0.5);
  ASSERT_EQ(args.count, 3);
  EXPECT_EQ(args.type(0), TokArgType::kInt);
  EXPECT_EQ(args.type(1), TokArgType::kUint);
  EXPECT_EQ(args.type(2), TokArgType::kDouble);
  EXPECT_EQ(args.type(3), TokArgType::kNone);
}

}  // namespace
}  // namespace fela::common
