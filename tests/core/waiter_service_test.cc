// Differential oracle for the Token Server's waiter service: the gated
// service (ServeWaiters stops as soon as no bucket holds a token, and
// TakeFor reads priority orders built once per server) must replay the
// ungated fixed-point rescan with per-call LevelPriorityFor byte for
// byte. Specs come from testing::spec_gen and cover CTD and HF on/off,
// one / auto / odd explicit shard counts, flat and racked fabrics, and
// TS crash, partition and lossy control-plane faults.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>
#include <vector>

#include "core/fela_engine.h"
#include "core/token_server.h"
#include "runtime/determinism.h"
#include "runtime/experiment.h"
#include "testing/spec_gen.h"

namespace fela::testing {
namespace {

struct Outcome {
  std::string transcript;
  core::TokenServer::Stats stats;
  runtime::FaultStats faults;
  std::vector<std::string> violations;
};

Outcome RunFela(const FuzzSpec& fuzz, bool reference) {
  core::SetWaiterServiceReferenceForTesting(reference);
  runtime::ExperimentSpec spec = ToExperimentSpec(fuzz);
  spec.observe = true;  // transcripts require the observability layer
  Outcome out;
  spec.post_run_probe = [&](const runtime::Engine& engine, runtime::Cluster&) {
    const auto& fela = dynamic_cast<const core::FelaEngine&>(engine);
    out.stats = fela.CumulativeTsStats();
    out.violations = fela.token_server().CheckInvariants();
    for (std::string& v : fela.CheckFailoverInvariants()) {
      out.violations.push_back(std::move(v));
    }
  };
  const runtime::ExperimentResult result =
      runtime::RunExperiment(spec, MakeEngineFactory(fuzz),
                             MakeStragglerFactory(fuzz),
                             MakeFaultFactory(fuzz));
  core::SetWaiterServiceReferenceForTesting(false);
  out.transcript = runtime::DeterminismTranscript(result);
  out.faults = result.stats.faults;
  return out;
}

struct Case {
  const char* name;
  FuzzSpec spec;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

/// 16 workers of VGG19, three iterations; `rack_size` 4 gives four racks.
FuzzSpec Base(int rack_size, int ts_shards, bool hf, int ctd_subset) {
  FuzzSpec spec;  // seed 0: hand-built
  spec.engine = EngineKind::kFela;
  spec.model = ModelKind::kVgg19;
  spec.num_workers = 16;
  spec.total_batch = 256.0;
  spec.iterations = 3;
  spec.rack_size = rack_size;
  spec.fela_ts_shards = ts_shards;
  spec.fela_hf = hf;
  spec.fela_ctd_subset = ctd_subset;
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

FuzzSpec SlowRack0(FuzzSpec spec) {
  spec.straggler = StragglerKind::kHeterogeneous;
  spec.straggler_victim = 0;
  spec.straggler_slowdown = 4.0;
  return spec;
}

std::vector<Case> Cases() {
  constexpr int kFlat = 0;
  constexpr int kRacked = 4;
  constexpr int kAuto = 0;
  constexpr int kCtdOff = 0;
  constexpr int kCtd = 4;
  std::vector<Case> cases = {
      {"FlatHf", Base(kFlat, kAuto, true, kCtdOff)},
      {"FlatNoHf", Base(kFlat, kAuto, false, kCtdOff)},
      {"FlatHfCtd", Base(kFlat, kAuto, true, kCtd)},
      {"FlatNoHfCtd", Base(kFlat, kAuto, false, kCtd)},
      {"RackedAutoHf", Base(kRacked, kAuto, true, kCtdOff)},
      {"RackedAutoNoHfCtd", Base(kRacked, kAuto, false, kCtd)},
      {"RackedOneShard", Base(kRacked, 1, true, kCtd)},
      {"RackedOddShardsHfCtd", Base(kRacked, 3, true, kCtd)},
      {"RackedOddShardsNoHf", Base(kRacked, 3, false, kCtdOff)},
      {"RackedAutoSlowRack", SlowRack0(Base(kRacked, kAuto, true, kCtdOff))},
      {"FlatNoHfSlowWorker", SlowRack0(Base(kFlat, kAuto, false, kCtdOff))},
      // A one-worker CTD subset on the crashing TS host: while it is down
      // the scoping relaxes, exercising the relaxed priority orders.
      {"FlatTsCrashCtdRelaxed", TsCrash(Base(kFlat, kAuto, true, 1))},
      {"RackedAutoTsCrash", TsCrash(Base(kRacked, kAuto, true, kCtd))},
      {"RackedOddShardsTsCrash", TsCrash(Base(kRacked, 3, false, kCtdOff))},
      {"FlatPartition", Partition(Base(kFlat, kAuto, false, kCtd))},
      {"RackedAutoPartition", Partition(Base(kRacked, kAuto, true, kCtdOff))},
      {"FlatLossy", Lossy(Base(kFlat, kAuto, true, kCtd))},
      {"RackedOddShardsLossy", Lossy(Base(kRacked, 3, true, kCtd))},
      {"RackedAutoLossyNoHf", Lossy(Base(kRacked, kAuto, false, kCtdOff))},
  };
  // Plus generated compositions (stragglers, gray failures, random
  // crashes, odd cluster sizes), each forced onto the Fela engine.
  static const char* const kSeedNames[] = {"Seed1", "Seed2", "Seed3",
                                           "Seed4", "Seed5", "Seed6",
                                           "Seed7", "Seed8"};
  for (uint64_t seed = 1; seed <= std::size(kSeedNames); ++seed) {
    FuzzSpec spec = GenerateSpec(seed);
    spec.engine = EngineKind::kFela;
    cases.push_back({kSeedNames[seed - 1], spec});
  }
  return cases;
}

class WaiterServiceDifferential : public ::testing::TestWithParam<Case> {
 protected:
  void TearDown() override { core::SetWaiterServiceReferenceForTesting(false); }
};

TEST_P(WaiterServiceDifferential, GatedServiceMatchesReferenceRescan) {
  const FuzzSpec& spec = GetParam().spec;
  const Outcome gated = RunFela(spec, /*reference=*/false);
  const Outcome reference = RunFela(spec, /*reference=*/true);
  const runtime::DeterminismReport diff =
      runtime::DiffTranscripts(reference.transcript, gated.transcript);
  EXPECT_TRUE(diff.deterministic) << SpecLabel(spec) << ": " << diff.ToString();
  if (spec.fault != FaultKind::kNone && spec.seed == 0) {
    EXPECT_TRUE(gated.faults.any()) << "the fault never fired";
  }
  EXPECT_TRUE(gated.violations.empty()) << gated.violations.front();
  EXPECT_TRUE(reference.violations.empty()) << reference.violations.front();
  // Every ledger entry must match; only the work counter may differ, and
  // the gate can only remove attempts.
  EXPECT_LE(gated.stats.grant_attempts, reference.stats.grant_attempts);
  EXPECT_GE(gated.stats.grant_attempts, gated.stats.grants);
  core::TokenServer::Stats g = gated.stats;
  core::TokenServer::Stats r = reference.stats;
  g.grant_attempts = r.grant_attempts = 0;
  EXPECT_TRUE(g == r) << "grants " << g.grants << " vs " << r.grants
                      << ", steals " << g.steals << " vs " << r.steals;
  EXPECT_GT(g.grants, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Specs, WaiterServiceDifferential, ::testing::ValuesIn(Cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace fela::testing
