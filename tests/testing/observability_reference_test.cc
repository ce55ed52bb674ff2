// Differential oracles for the post-run renderers: the streamed Chrome
// trace must equal the old DOM builder's Dump(1) byte for byte, and the
// per-track attribution must equal the scan-all-spans reference bit for
// bit. Run on observed spec_gen specs (flat and racked fabrics, one and
// auto Token Server shards, TS crash, partition, lossy and gray faults,
// every engine) and on hand-built Chrome edge cases.

#include "testing/observability_reference.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/tokenize.h"
#include "runtime/attribution.h"
#include "runtime/cluster.h"
#include "runtime/experiment.h"
#include "sim/chrome_trace.h"
#include "sim/span.h"
#include "sim/trace.h"
#include "testing/spec_gen.h"

namespace fela::testing {
namespace {

/// Everything the Chrome renderer reads, as extracted from a run.
struct ChromeInput {
  std::vector<obs::Span> spans;
  uint64_t spans_dropped = 0;
  bool has_trace = true;
  std::vector<sim::TraceRecord> events;
  uint64_t events_dropped = 0;
  int num_workers = 0;
  const common::TokenRegistry* registry = nullptr;
};

std::string Reference(const ChromeInput& in) {
  return ReferenceChromeTraceJson(in.spans, in.spans_dropped, in.has_trace,
                                  in.events, in.events_dropped,
                                  in.num_workers, in.registry)
      .Dump(1);
}

/// Byte equality, reporting the first differing byte with context.
void ExpectSameBytes(const std::string& got, const std::string& want) {
  if (got == want) return;
  size_t i = 0;
  while (i < got.size() && i < want.size() && got[i] == want[i]) ++i;
  const size_t from = i < 60 ? 0 : i - 60;
  ADD_FAILURE() << "first difference at byte " << i << " (sizes "
                << got.size() << " vs " << want.size() << ")\n got: ..."
                << got.substr(from, 120) << "\nwant: ..."
                << want.substr(from, 120);
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool BitEqual(const obs::PhaseBreakdown& a, const obs::PhaseBreakdown& b) {
  return std::memcmp(a.seconds.data(), b.seconds.data(),
                     sizeof(double) * a.seconds.size()) == 0 &&
         BitEqual(a.total, b.total);
}

void ExpectBitEqual(const obs::AttributionReport& got,
                    const obs::AttributionReport& want) {
  EXPECT_EQ(got.engine, want.engine);
  EXPECT_EQ(got.num_workers, want.num_workers);
  ASSERT_EQ(got.workers.size(), want.workers.size());
  for (size_t w = 0; w < got.workers.size(); ++w) {
    const obs::WorkerAttribution& g = got.workers[w];
    const obs::WorkerAttribution& r = want.workers[w];
    EXPECT_EQ(g.worker, r.worker);
    EXPECT_TRUE(BitEqual(g.run, r.run)) << "worker " << w << " run";
    ASSERT_EQ(g.iterations.size(), r.iterations.size());
    for (size_t it = 0; it < g.iterations.size(); ++it) {
      EXPECT_TRUE(BitEqual(g.iterations[it], r.iterations[it]))
          << "worker " << w << " iteration " << it;
    }
  }
  ASSERT_EQ(got.critical.size(), want.critical.size());
  for (size_t it = 0; it < got.critical.size(); ++it) {
    const obs::IterationCriticalPath& g = got.critical[it];
    const obs::IterationCriticalPath& r = want.critical[it];
    EXPECT_EQ(g.iteration, r.iteration);
    EXPECT_TRUE(BitEqual(g.path, r.path)) << "critical path " << it;
    EXPECT_EQ(g.bottleneck, r.bottleneck) << "critical path " << it;
    EXPECT_EQ(g.last_finisher, r.last_finisher) << "critical path " << it;
  }
}

// -- Observed runs ---------------------------------------------------------

struct Case {
  const char* name;
  FuzzSpec spec;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

/// 16 workers of VGG19, three iterations; `rack_size` 4 gives four racks.
FuzzSpec Base(EngineKind engine, int rack_size, int ts_shards) {
  FuzzSpec spec;  // seed 0: hand-built
  spec.engine = engine;
  spec.model = ModelKind::kVgg19;
  spec.num_workers = 16;
  spec.total_batch = 256.0;
  spec.iterations = 3;
  spec.rack_size = rack_size;
  spec.fela_ts_shards = ts_shards;
  return spec;
}

FuzzSpec TsCrash(FuzzSpec spec) {
  spec.fault = FaultKind::kTsCrash;
  spec.crash_time_sec = 1.0;
  spec.recover_time_sec = 3.0;
  return spec;
}

FuzzSpec Partition(FuzzSpec spec) {
  spec.fault = FaultKind::kPartition;
  spec.partition_start_sec = 1.0;
  spec.partition_dur_sec = 2.0;
  spec.partition_size = 6;
  return spec;
}

FuzzSpec Lossy(FuzzSpec spec) {
  spec.fault = FaultKind::kLossyControl;
  spec.drop_prob = 0.03;
  spec.dup_prob = 0.03;
  spec.fault_seed = 7;
  return spec;
}

FuzzSpec Gray(FuzzSpec spec) {
  spec.fault = FaultKind::kGrayFailure;
  spec.gray_worker = 3;
  spec.gray_start_sec = 0.5;
  spec.gray_dur_sec = 3.0;
  spec.gray_factor = 4.0;
  return spec;
}

FuzzSpec SlowWorker(FuzzSpec spec) {
  spec.straggler = StragglerKind::kHeterogeneous;
  spec.straggler_victim = 2;
  spec.straggler_slowdown = 4.0;
  return spec;
}

std::vector<Case> Cases() {
  constexpr EngineKind kFela = EngineKind::kFela;
  constexpr int kFlat = 0;
  constexpr int kRacked = 4;
  constexpr int kAuto = 0;
  std::vector<Case> cases = {
      {"FelaFlat", Base(kFela, kFlat, kAuto)},
      {"FelaRackedAuto", Base(kFela, kRacked, kAuto)},
      {"FelaRackedOneShard", Base(kFela, kRacked, 1)},
      {"FelaFlatTsCrash", TsCrash(Base(kFela, kFlat, kAuto))},
      {"FelaRackedAutoTsCrash", TsCrash(Base(kFela, kRacked, kAuto))},
      {"FelaRackedOneShardTsCrash", TsCrash(Base(kFela, kRacked, 1))},
      {"FelaRackedAutoPartition", Partition(Base(kFela, kRacked, kAuto))},
      {"FelaFlatLossy", Lossy(Base(kFela, kFlat, kAuto))},
      {"FelaRackedOneShardLossy", Lossy(Base(kFela, kRacked, 1))},
      {"FelaRackedAutoGray", Gray(Base(kFela, kRacked, kAuto))},
      {"DpFlatTsCrash", TsCrash(Base(EngineKind::kDp, kFlat, kAuto))},
      {"PsRackedTsCrash", TsCrash(Base(EngineKind::kPsDp, kRacked, kAuto))},
      {"MpFlatSlowWorker", SlowWorker(Base(EngineKind::kMp, kFlat, kAuto))},
      {"HpRackedGray", Gray(Base(EngineKind::kHp, kRacked, kAuto))},
      {"ElasticMpFlat", Base(EngineKind::kElasticMp, kFlat, kAuto)},
  };
  // Plus generated compositions (stragglers, random crashes, odd cluster
  // sizes, every engine), with observation forced on.
  static const char* const kSeedNames[] = {"Seed1", "Seed2", "Seed3",
                                           "Seed4", "Seed5", "Seed6",
                                           "Seed7", "Seed8"};
  for (uint64_t seed = 1; seed <= std::size(kSeedNames); ++seed) {
    cases.push_back({kSeedNames[seed - 1], GenerateSpec(seed)});
  }
  return cases;
}

class ObservabilityDifferential : public ::testing::TestWithParam<Case> {};

TEST_P(ObservabilityDifferential, RenderersMatchReferences) {
  const FuzzSpec& fuzz = GetParam().spec;
  runtime::ExperimentSpec spec = ToExperimentSpec(fuzz);
  spec.observe = true;
  ChromeInput in;
  in.num_workers = spec.num_workers;
  spec.post_run_probe = [&in](const runtime::Engine&,
                              runtime::Cluster& cluster) {
    in.spans = cluster.spans().spans();
    in.spans_dropped = cluster.spans().dropped();
    in.events = cluster.trace().records();
    in.events_dropped = cluster.trace().dropped();
  };
  const runtime::ExperimentResult result =
      runtime::RunExperiment(spec, MakeEngineFactory(fuzz),
                             MakeStragglerFactory(fuzz),
                             MakeFaultFactory(fuzz));
  ASSERT_TRUE(result.observed);
  ASSERT_FALSE(in.spans.empty()) << SpecLabel(fuzz);
  if (fuzz.fault != FaultKind::kNone && fuzz.seed == 0) {
    EXPECT_TRUE(result.stats.faults.any() ||
                fuzz.fault == FaultKind::kGrayFailure)
        << "the fault never fired";
  }

  ExpectSameBytes(result.chrome_trace, Reference(in));
  ExpectBitEqual(result.attribution,
                 ReferenceBuildAttribution(result.engine_name,
                                           spec.num_workers, in.spans,
                                           result.stats.iterations));
}

INSTANTIATE_TEST_SUITE_P(
    Specs, ObservabilityDifferential, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

// -- Hand-built Chrome edge cases ------------------------------------------

void ExpectMatchesReference(const ChromeInput& in) {
  ExpectSameBytes(
      obs::ChromeTraceStringData(in.spans, in.spans_dropped, in.has_trace,
                                 in.events, in.events_dropped,
                                 in.num_workers, in.registry),
      Reference(in));
}

obs::Span MakeSpan(int track, obs::Phase phase, double begin, double end,
                   int iteration) {
  obs::Span s;
  s.track = track;
  s.phase = phase;
  s.begin = begin;
  s.end = end;
  s.iteration = iteration;
  return s;
}

/// A trace record without a detail.
sim::TraceRecord MakeRecord(double time, int node, sim::TraceKind kind) {
  sim::TraceRecord r;
  r.time = time;
  r.node = node;
  r.kind = static_cast<uint8_t>(kind);
  return r;
}

/// A trace record whose detail is `fmt` with no args, `fmt` registered
/// in `registry` under its own hash. Unlike a FELA_TOK literal, `fmt`
/// may hold any byte.
sim::TraceRecord MakeRecord(double time, int node, sim::TraceKind kind,
                            common::TokenRegistry* registry,
                            std::string_view fmt) {
  sim::TraceRecord r = MakeRecord(time, node, kind);
  r.token = common::TokenHash32(fmt);
  EXPECT_TRUE(registry->Register(r.token, fmt));
  return r;
}

TEST(ChromeTraceReference, EmptyInputs) {
  common::TokenRegistry registry;
  ChromeInput in;
  in.registry = &registry;
  in.has_trace = false;
  ExpectMatchesReference(in);  // no tracks at all: "traceEvents": []
  in.num_workers = 3;
  ExpectMatchesReference(in);  // metadata rows only
  in.has_trace = true;
  ExpectMatchesReference(in);
  // Events are ignored when no recorder was attached.
  in.has_trace = false;
  in.events.push_back(
      MakeRecord(1.0, 0, sim::TraceKind::kWorkerCrash, &registry, "x"));
  ExpectMatchesReference(in);
}

TEST(ChromeTraceReference, TracksOutsideTheWorkerRange) {
  common::TokenRegistry registry;
  ChromeInput in;
  in.registry = &registry;
  in.num_workers = 2;
  in.spans = {MakeSpan(5, obs::Phase::kIteration, 0.0, 1.0, 0),
              MakeSpan(2, obs::Phase::kIteration, 0.0, 1.0, 1),
              MakeSpan(-3, obs::Phase::kCompute, 0.0, 0.5, -1),
              MakeSpan(1, obs::Phase::kSyncWait, 0.25, 0.75, 0),
              MakeSpan(5, obs::Phase::kTokenWait, 0.5, 0.5, 2)};
  in.events = {MakeRecord(0.5, 7, sim::TraceKind::kTokenGrant),
               MakeRecord(0.5, -1, sim::TraceKind::kConflict, &registry, "c")};
  ExpectMatchesReference(in);
}

TEST(ChromeTraceReference, NegativeDurationAndUnattributedIteration) {
  ChromeInput in;
  in.num_workers = 1;
  in.spans = {MakeSpan(0, obs::Phase::kCompute, 2.0, 1.0, 3),
              MakeSpan(0, obs::Phase::kTransfer, 1.0, 1.5, -1),
              MakeSpan(0, obs::Phase::kStraggler, 1.0, 0.999999, -1)};
  ExpectMatchesReference(in);
}

TEST(ChromeTraceReference, DetailsNeedingEscapes) {
  constexpr uint32_t kToken = 0x5eed1e55u;
  common::TokenRegistry registry;
  ASSERT_TRUE(registry.Register(kToken, "q\"b\\s\nc\x01 \xc3\xa9 n=%d"));
  ChromeInput in;
  in.num_workers = 2;
  in.registry = &registry;
  obs::Span with_detail = MakeSpan(0, obs::Phase::kCompute, 0.0, 1.0, 0);
  with_detail.detail.token = kToken;
  with_detail.detail.args.Push(-7);
  obs::Span detail_only = with_detail;
  detail_only.iteration = -1;
  detail_only.track = 1;
  obs::Span unknown_token = detail_only;
  unknown_token.detail.token = kToken + 1;  // renders as an unknown marker
  in.spans = {with_detail, detail_only, unknown_token};
  sim::TraceRecord with_args =
      MakeRecord(0.25, 1, sim::TraceKind::kTokenGrant);
  with_args.token = kToken;
  with_args.arg_count = 1;
  with_args.arg_types = static_cast<uint8_t>(common::TokArgType::kInt);
  with_args.args[0] = static_cast<uint64_t>(int64_t{-7});
  in.events = {
      MakeRecord(0.5, 0, sim::TraceKind::kTokenRequest, &registry,
                 "tab\there\rcr \x1f \x7f \"q\" \\ \xe2\x82\xac"),
      MakeRecord(0.75, 1, sim::TraceKind::kFetchEnd, &registry,
                 std::string_view("nul\0byte", 8)),
      with_args};
  ExpectMatchesReference(in);
}

TEST(ChromeTraceReference, UnknownTokenRendersAMarker) {
  common::TokenRegistry registry;
  ChromeInput in;
  in.num_workers = 1;
  in.registry = &registry;
  sim::TraceRecord unknown = MakeRecord(0.5, 0, sim::TraceKind::kConflict);
  unknown.token = 0xdeadbeefu;  // in no registry
  in.events = {unknown};
  ExpectMatchesReference(in);
  EXPECT_NE(Reference(in).find("\"detail\": \"<token deadbeef?>\""),
            std::string::npos);
}

TEST(ChromeTraceReference, DetailRenderingToEmptyGetsEmptyArgs) {
  common::TokenRegistry registry;
  ChromeInput in;
  in.num_workers = 1;
  in.registry = &registry;
  in.events = {MakeRecord(0.5, 0, sim::TraceKind::kConflict, &registry, "")};
  ASSERT_NE(in.events[0].token, 0u);
  ExpectMatchesReference(in);
  const std::string rendered = obs::ChromeTraceStringData(
      in.spans, in.spans_dropped, in.has_trace, in.events, in.events_dropped,
      in.num_workers, in.registry);
  EXPECT_NE(rendered.find("\"s\": \"t\",\n   \"args\": {}"),
            std::string::npos)
      << rendered;
}

TEST(ChromeTraceReference, NonFiniteTimesRenderAsNull) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  ChromeInput in;
  in.num_workers = 1;
  in.spans = {MakeSpan(0, obs::Phase::kCompute, nan, 1.0, 0),
              MakeSpan(0, obs::Phase::kCompute, 0.0, inf, 0),
              MakeSpan(0, obs::Phase::kCompute, -inf, 0.0, 0),
              MakeSpan(0, obs::Phase::kCompute, 0.0, nan, 0)};
  in.events = {MakeRecord(nan, 0, sim::TraceKind::kWorkerCrash),
               MakeRecord(-inf, 0, sim::TraceKind::kWorkerRecover)};
  ExpectMatchesReference(in);
  EXPECT_NE(Reference(in).find("\"ts\": null"), std::string::npos);
}

TEST(ChromeTraceReference, NumberFormattingEdges) {
  ChromeInput in;
  in.num_workers = 1;
  // begin * 1e6 lands at, just under and just past 1e15, where the
  // formatter switches from integer digits to "%.17g".
  in.spans = {MakeSpan(0, obs::Phase::kCompute, 1e9, 1e9 + 1e-6, 0),
              MakeSpan(0, obs::Phase::kCompute, 999999999.999999, 1e9, 0),
              MakeSpan(0, obs::Phase::kCompute, 1e9 + 1e-6, 2e9, 0),
              MakeSpan(0, obs::Phase::kCompute, -1e9, -1e9 + 0.5, 0),
              MakeSpan(0, obs::Phase::kCompute, -0.0, -0.0, 0),
              MakeSpan(0, obs::Phase::kCompute, 1e-300, 0.1, 0),
              // Needs all 17 significant digits.
              MakeSpan(0, obs::Phase::kCompute, 1.0 / 3.0, 2.0 / 3.0, 0)};
  in.events = {MakeRecord(-0.0, 0, sim::TraceKind::kWorkerCrash),
               MakeRecord(1e9, 0, sim::TraceKind::kWorkerRecover)};
  in.spans_dropped = (uint64_t{1} << 60) + 1;  // past 2^53: "%.17g"
  in.events_dropped = 999999999999999;         // just under 1e15
  ExpectMatchesReference(in);
  in.events_dropped = 1000000000000000;  // exactly 1e15
  ExpectMatchesReference(in);
}

}  // namespace
}  // namespace fela::testing
