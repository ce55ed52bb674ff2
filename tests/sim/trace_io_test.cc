// FELATRB1 binary-trace codec tests: serialize → parse → re-render must
// be byte-identical to the in-process renderers, also offline through
// only the FELATOK1 token table; a truncated stream still parses up to
// the cut with an explicit end-of-stream marker; malformed headers and
// forged token tables are rejected.

#include "sim/trace_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "common/string_util.h"
#include "common/tokenize.h"
#include "model/zoo.h"
#include "runtime/experiment.h"
#include "sim/chrome_trace.h"
#include "sim/faults.h"
#include "sim/span.h"
#include "sim/topology.h"
#include "sim/trace.h"
#include "suite/suite.h"

namespace fela::obs {
namespace {

/// One of everything: tokenized details with integer and float args,
/// detail-less events, and enough records to overflow the trace ring.
struct Artifacts {
  SpanSink spans{8};
  sim::TraceRecorder trace{3};

  Artifacts() {
    spans.set_enabled(true);
    trace.set_enabled(true);
    spans.Emit(Span{0, Phase::kCompute, 0.0, 1.0, 2,
                    common::TokenizedDetail(FELA_TOK("w=%d b=%g"), 5, 0.25)});
    spans.Emit(Span{1, Phase::kTokenWait, 0.5, 0.75, 2, {}});
    FELA_TRACE(&trace, 0.5, 1, sim::TraceKind::kTokenRequest,
               FELA_TOK("it=%d n=%zu"), 3, static_cast<size_t>(1024));
    FELA_TRACE(&trace, 1.5, 2, sim::TraceKind::kFetchEnd);
    FELA_TRACE(&trace, 2.0, 0, sim::TraceKind::kConflict,
               FELA_TOK("lost to w%d after %.3fs"), 2, 0.125);
    // A 4th record on a capacity-3 ring: the oldest event drops and the
    // serialized form must carry the dropped count.
    FELA_TRACE(&trace, 2.5, 0, sim::TraceKind::kSyncEnd);
  }
};

TEST(TraceIoTest, RoundTripRendersByteIdenticalText) {
  Artifacts a;
  ASSERT_EQ(a.trace.dropped(), 1u);
  const std::string bytes = SerializeBinaryTrace(a.spans, &a.trace, 4);

  BinaryTraceData data;
  std::string error;
  ASSERT_TRUE(ParseBinaryTrace(bytes, &data, &error)) << error;
  EXPECT_FALSE(data.truncated);
  EXPECT_EQ(data.num_workers, 4);
  EXPECT_TRUE(data.has_trace);
  EXPECT_EQ(data.spans.size(), 2u);
  EXPECT_EQ(data.events.size(), 3u);
  EXPECT_EQ(data.trace_dropped, 1u);
  EXPECT_EQ(data.trace_capacity, 3u);

  EXPECT_EQ(RenderTraceText(data), a.trace.ToString());
  EXPECT_NE(RenderTraceText(data).find("lost to w2 after 0.125s"),
            std::string::npos);
  EXPECT_EQ(RenderChromeTrace(data), ChromeTraceString(a.spans, &a.trace, 4));
}

TEST(TraceIoTest, RoundTripWithoutTraceRecorder) {
  Artifacts a;
  const std::string bytes = SerializeBinaryTrace(a.spans, nullptr, 4);
  BinaryTraceData data;
  std::string error;
  ASSERT_TRUE(ParseBinaryTrace(bytes, &data, &error)) << error;
  EXPECT_FALSE(data.has_trace);
  EXPECT_TRUE(data.events.empty());
  EXPECT_EQ(RenderChromeTrace(data), ChromeTraceString(a.spans, nullptr, 4));
}

/// The body plus its token table, as dump_timeline writes a .bin.
std::string WithTokenTable(std::string body) {
  std::string error;
  EXPECT_TRUE(AppendTokenTable(&body, &error)) << error;
  return body;
}

/// What fela-detok renders through: only the transcript's own table.
void RegisterTable(const BinaryTraceData& data,
                   common::TokenRegistry* registry) {
  for (const auto& [token, fmt] : data.tokens) {
    ASSERT_TRUE(registry->Register(token, fmt));
  }
}

TEST(TraceIoTest, OfflineRegistryFromTokenTableMatchesInProcessRendering) {
  Artifacts a;
  const std::string bytes =
      WithTokenTable(SerializeBinaryTrace(a.spans, &a.trace, 4));
  BinaryTraceData data;
  std::string error;
  ASSERT_TRUE(ParseBinaryTrace(bytes, &data, &error)) << error;
  EXPECT_FALSE(data.truncated);
  // Exactly the tokens the body uses, in token order: the "it=%d n=%zu"
  // event dropped off the ring, so its format stays out although it is
  // registered.
  const std::vector<std::pair<uint32_t, std::string>> expected = {
      {common::TokenHash32("w=%d b=%g"), "w=%d b=%g"},
      {common::TokenHash32("lost to w%d after %.3fs"),
       "lost to w%d after %.3fs"}};
  EXPECT_EQ(data.tokens, expected);
  common::TokenRegistry offline;
  RegisterTable(data, &offline);
  EXPECT_EQ(RenderTraceText(data, &offline), a.trace.ToString());
  EXPECT_EQ(RenderChromeTrace(data, &offline),
            ChromeTraceString(a.spans, &a.trace, 4));
}

TEST(TraceIoTest, FaultedRackedRunRendersOfflineAsLive) {
  // The fela-detok --chrome path on a real run: 32 Fela workers in racks
  // of 8 (one Token Server shard per rack), the TS host crashing and
  // failing over, and a lossy control plane. The offline registry is
  // built only from the transcript's token table, as fela-detok builds it.
  runtime::ExperimentSpec spec;
  spec.num_workers = 32;
  spec.total_batch = 512;
  spec.iterations = 3;
  spec.observe = true;
  spec.calibration.topology = sim::Topology::Racked(
      /*rack_size=*/8, /*uplink_bandwidth_bytes_per_sec=*/5e9,
      /*rack_hop_latency_sec=*/5e-6);
  const runtime::FaultFactory faults = [](int) {
    std::vector<std::unique_ptr<sim::FaultSchedule>> parts;
    parts.push_back(std::make_unique<sim::ScriptedCrashes>(
        std::vector<sim::CrashEvent>{{/*worker=*/0, /*crash_time=*/1.0,
                                      /*recover_time=*/3.0}}));
    parts.push_back(std::make_unique<sim::LossyControlPlane>(
        /*drop_prob=*/0.03, /*dup_prob=*/0.03, /*seed=*/7));
    return std::make_unique<sim::CompositeFaults>(std::move(parts));
  };
  const runtime::ExperimentResult result = runtime::RunExperiment(
      spec,
      suite::FelaFactory(model::zoo::GoogLeNet(),
                         core::FelaConfig::Defaults(3, spec.num_workers)),
      runtime::NoStragglerFactory(), faults);
  ASSERT_TRUE(result.observed);
  EXPECT_GT(result.stats.faults.ts_failovers, 0u);
  EXPECT_GT(result.stats.faults.control_dropped, 0u);

  BinaryTraceData data;
  std::string error;
  ASSERT_TRUE(ParseBinaryTrace(WithTokenTable(result.binary_trace), &data,
                               &error))
      << error;
  EXPECT_FALSE(data.truncated);
  EXPECT_EQ(data.num_workers, 32);
  common::TokenRegistry offline;
  RegisterTable(data, &offline);
  EXPECT_EQ(RenderChromeTrace(data, &offline), result.chrome_trace);
}

TEST(TraceIoTest, TruncatedStreamParsesWithEndOfStreamMarker) {
  Artifacts a;
  const std::string bytes = SerializeBinaryTrace(a.spans, &a.trace, 4);
  const std::string header(kBinaryTraceMagic);
  // Every cut from just-past-the-header to missing-trailer-byte parses,
  // reports truncation, and renders the explicit marker.
  for (const size_t cut : {header.size() + 5, bytes.size() / 2,
                           bytes.size() - kBinaryTraceTrailer.size(),
                           bytes.size() - 1}) {
    BinaryTraceData data;
    std::string error;
    ASSERT_TRUE(ParseBinaryTrace(bytes.substr(0, cut), &data, &error))
        << "cut=" << cut << ": " << error;
    EXPECT_TRUE(data.truncated) << "cut=" << cut;
    const std::string text = RenderTraceText(data);
    const std::string marker = "<truncated binary trace: end of stream>\n";
    ASSERT_GE(text.size(), marker.size()) << "cut=" << cut;
    EXPECT_EQ(text.substr(text.size() - marker.size()), marker)
        << "cut=" << cut;
  }
}

TEST(TraceIoTest, BareBodyParsesAndRendersUnknownTokensHonestly) {
  // The in-memory form carries no table: it parses complete, and
  // without a registry entry a token renders as a visible placeholder.
  Artifacts a;
  BinaryTraceData data;
  std::string error;
  ASSERT_TRUE(ParseBinaryTrace(SerializeBinaryTrace(a.spans, &a.trace, 4),
                               &data, &error))
      << error;
  EXPECT_FALSE(data.truncated);
  EXPECT_TRUE(data.tokens.empty());
  common::TokenRegistry empty;
  EXPECT_NE(RenderChromeTrace(data, &empty)
                .find(common::StrFormat("<token %08x?>",
                                        common::TokenHash32("w=%d b=%g"))),
            std::string::npos);
}

TEST(TraceIoTest, TokenTableCutAtEveryOffsetKeepsTheBody) {
  Artifacts a;
  const std::string body = SerializeBinaryTrace(a.spans, &a.trace, 4);
  const std::string full = WithTokenTable(body);
  BinaryTraceData whole;
  std::string error;
  ASSERT_TRUE(ParseBinaryTrace(full, &whole, &error)) << error;
  ASSERT_FALSE(whole.tokens.empty());
  const std::string text = RenderTraceText(whole);
  for (size_t cut = body.size() + 1; cut < full.size(); ++cut) {
    BinaryTraceData data;
    ASSERT_TRUE(ParseBinaryTrace(full.substr(0, cut), &data, &error))
        << "cut=" << cut << ": " << error;
    EXPECT_TRUE(data.truncated) << "cut=" << cut;
    EXPECT_EQ(data.spans.size(), whole.spans.size()) << "cut=" << cut;
    EXPECT_EQ(data.events.size(), whole.events.size()) << "cut=" << cut;
    EXPECT_LT(data.tokens.size(), whole.tokens.size()) << "cut=" << cut;
    EXPECT_EQ(RenderTraceText(data),
              text + "<truncated binary trace: end of stream>\n")
        << "cut=" << cut;
  }
}

TEST(TraceIoTest, TokenTableLengthOverrunIsTruncation) {
  Artifacts a;
  const std::string body = SerializeBinaryTrace(a.spans, &a.trace, 4);
  std::string bytes = WithTokenTable(body);
  // Entry 0's length field sits after the magic, the count and its token.
  std::string huge;
  common::AppendU32(&huge, 0xffffffffu);
  bytes.replace(body.size() + kTokenTableMagic.size() + 8, 4, huge);
  BinaryTraceData data;
  std::string error;
  ASSERT_TRUE(ParseBinaryTrace(bytes, &data, &error)) << error;
  EXPECT_TRUE(data.truncated);
  EXPECT_TRUE(data.tokens.empty());
  EXPECT_EQ(data.spans.size(), 2u);
}

TEST(TraceIoTest, ForgedTokenTablesAreRejected) {
  Artifacts a;
  const std::string body = SerializeBinaryTrace(a.spans, &a.trace, 4);
  auto table = [&body](const std::vector<std::pair<uint32_t, std::string>>&
                           entries) {
    std::string out = body + std::string(kTokenTableMagic);
    common::AppendU32(&out, static_cast<uint32_t>(entries.size()));
    for (const auto& [token, fmt] : entries) {
      common::AppendU32(&out, token);
      common::AppendU32(&out, static_cast<uint32_t>(fmt.size()));
      out += fmt;
    }
    return out;
  };
  const auto entry = [](const char* fmt) {
    return std::pair<uint32_t, std::string>(common::TokenHash32(fmt), fmt);
  };
  BinaryTraceData data;
  std::string error;
  ASSERT_TRUE(ParseBinaryTrace(table({entry("w=%d b=%g")}), &data, &error))
      << error;
  EXPECT_FALSE(data.truncated);

  // A format that does not hash to its token.
  EXPECT_FALSE(ParseBinaryTrace(
      table({{common::TokenHash32("w=%d b=%g"), "w=%d b=%f"}}), &data,
      &error));
  EXPECT_NE(error.find("hash"), std::string::npos) << error;
  // Two formats for one token (an FNV-1a collision), and tokens out of
  // order: either would let a later entry shadow an earlier one.
  EXPECT_FALSE(ParseBinaryTrace(table({entry("costarring"), entry("liquid")}),
                                &data, &error));
  EXPECT_FALSE(ParseBinaryTrace(table({std::max(entry("a"), entry("b")),
                                       std::min(entry("a"), entry("b"))}),
                                &data, &error));
  // Token 0 means "no detail" and is never in a table.
  EXPECT_FALSE(ParseBinaryTrace(table({{0u, ""}}), &data, &error));
  // Bytes after the table, and a section that is not a table.
  EXPECT_FALSE(
      ParseBinaryTrace(table({entry("w=%d b=%g")}) + "x", &data, &error));
  EXPECT_FALSE(ParseBinaryTrace(body + "FELAXXXX", &data, &error));
}

TEST(TraceIoTest, AppendTokenTableRefusesWhatItCannotDescribe) {
  Artifacts a;
  const std::string body = SerializeBinaryTrace(a.spans, &a.trace, 4);
  std::string error;
  // A used token the registry lacks is an error, not a dropped row.
  common::TokenRegistry empty;
  std::string bytes = body;
  EXPECT_FALSE(AppendTokenTable(&bytes, &error, &empty));
  EXPECT_NE(error.find("not registered"), std::string::npos) << error;
  EXPECT_EQ(bytes, body);
  // A cut body, and a body that already carries its table.
  bytes = body.substr(0, body.size() - 1);
  EXPECT_FALSE(AppendTokenTable(&bytes, &error));
  bytes = WithTokenTable(body);
  const std::string once = bytes;
  EXPECT_FALSE(AppendTokenTable(&bytes, &error));
  EXPECT_EQ(bytes, once);
}

TEST(TraceIoTest, NonzeroReservedFlagsByteIsRejected) {
  // SerializeBinaryTrace writes every trace record's flags byte as 0;
  // the byte just before the trailer is the last record's.
  Artifacts a;
  std::string bytes = SerializeBinaryTrace(a.spans, &a.trace, 4);
  const size_t flags = bytes.size() - kBinaryTraceTrailer.size() - 1;
  ASSERT_EQ(bytes[flags], '\0');
  bytes[flags] = 1;
  BinaryTraceData data;
  std::string error;
  EXPECT_FALSE(ParseBinaryTrace(bytes, &data, &error));
  EXPECT_NE(error.find("trace record 2: reserved flags byte is 1"),
            std::string::npos)
      << error;
}

TEST(TraceIoTest, NonzeroSpanPadByteIsRejected) {
  // Without a trace recorder the body ends with the spans, so the byte
  // just before the trailer is the last span's pad.
  Artifacts a;
  std::string bytes = SerializeBinaryTrace(a.spans, nullptr, 4);
  const size_t pad = bytes.size() - kBinaryTraceTrailer.size() - 1;
  ASSERT_EQ(bytes[pad], '\0');
  bytes[pad] = 7;
  BinaryTraceData data;
  std::string error;
  EXPECT_FALSE(ParseBinaryTrace(bytes, &data, &error));
  EXPECT_NE(error.find("span 1: pad byte is 7, not 0"), std::string::npos)
      << error;
}

TEST(TraceIoTest, MalformedHeaderIsRejected) {
  BinaryTraceData data;
  std::string error;
  EXPECT_FALSE(ParseBinaryTrace("NOTAMAGICNUMBER", &data, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(ParseBinaryTrace("FELA", &data, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(ParseBinaryTrace("", &data, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace fela::obs
