// Shard-equivalence suite for the hierarchical Token Server (sharded
// sub-distributors, PR 10): (1) ts_shards=1 replays *byte-identically*
// against transcript fingerprints captured from the pre-shard
// single-server build on both determinism gate specs (fig8 fault-free
// and the control-plane chaos gate) — the sharding refactor must be
// invisible at S=1, and a 256-worker 8-shard racked run matches its own
// golden; (2) sharded runs keep the conservation ledger per shard and
// cluster-wide, replay deterministically, and make at most two grant
// attempts per grant; (3) an
// imbalanced-STB spec (one rack gray-slowed) actually exercises the
// hierarchical cross-shard steal path.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fela_config.h"
#include "core/fela_engine.h"
#include "core/token_server.h"
#include "model/partition.h"
#include "model/profile.h"
#include "model/zoo.h"
#include "runtime/determinism.h"
#include "runtime/experiment.h"
#include "sim/faults.h"
#include "sim/topology.h"
#include "suite/suite.h"

namespace fela::runtime {
namespace {

// FNV-1a fingerprints of the FELADET1 binary and text determinism
// transcripts produced by the single-server Token Server (commit
// f699ccf, before sharding) on the two gate specs below. A sharded
// server running with one shard must reproduce these bytes exactly.
constexpr uint64_t kFig8BinaryGolden = 0x2e86ea234a612ce6ull;
constexpr uint64_t kFig8TextGolden = 0x6164985474e15245ull;
constexpr uint64_t kChaosBinaryGolden = 0xfc7a94e25c8ef8dcull;
constexpr uint64_t kChaosTextGolden = 0xbbf21a4bd400e4a1ull;
// The same fingerprints for a sharded racked run (ShardedRackedSpec),
// recorded before the waiter-service gate: the only tier-1 pin on the
// S>1 grant path.
constexpr uint64_t kShardedRackedBinaryGolden = 0x1a532ba8387aaa97ull;
constexpr uint64_t kShardedRackedTextGolden = 0xad625e4d4b4e3b70ull;

int Vgg19Levels() {
  return static_cast<int>(
      model::BinPartitioner()
          .Partition(model::zoo::Vgg19(), model::ProfileRepository::Default())
          .size());
}

/// The fault schedule of the control-plane chaos determinism gate (TS
/// host crash + half-cluster partition + gray latency).
FaultFactory ChaosFaults() {
  return [](int n) -> std::unique_ptr<sim::FaultSchedule> {
    std::vector<std::unique_ptr<sim::FaultSchedule>> parts;
    parts.push_back(std::make_unique<sim::ScriptedCrashes>(
        std::vector<sim::CrashEvent>{{/*worker=*/0, 2.0, 12.0}}));
    sim::PartitionEvent ev;
    ev.start = 4.0;
    ev.end = 8.0;
    for (int w = 0; w < n / 2; ++w) ev.side_a.push_back(w);
    parts.push_back(std::make_unique<sim::NetworkPartition>(
        std::vector<sim::PartitionEvent>{ev}));
    parts.push_back(std::make_unique<sim::GrayFailures>(
        std::vector<sim::GrayEvent>{{/*worker=*/3, 5.0, 30.0, 4.0}}));
    return std::make_unique<sim::CompositeFaults>(std::move(parts));
  };
}

struct TranscriptHashes {
  uint64_t binary = 0;
  uint64_t text = 0;
};

TranscriptHashes RunAndHash(const ExperimentSpec& base,
                            const EngineFactory& engine,
                            const FaultFactory& faults) {
  ExperimentSpec spec = base;
  spec.observe = true;  // transcripts require the observability layer
  const ExperimentResult r =
      RunExperiment(spec, engine, NoStragglerFactory(), faults);
  return {Fnv1a64(BinaryTranscript(r)), Fnv1a64(DeterminismTranscript(r))};
}

// --- S=1 byte-identity against the pre-shard goldens -------------------

TEST(ShardEquivalence, Fig8ByteIdenticalToPreShardServer) {
  ExperimentSpec gate;
  gate.total_batch = 256;
  gate.iterations = 4;
  // Default config: flat topology, ts_shards=0 -> one shard.
  core::FelaConfig cfg = core::FelaConfig::Defaults(3, 8);
  const TranscriptHashes auto_one =
      RunAndHash(gate, suite::FelaFactory(model::zoo::GoogLeNet(), cfg),
                 nullptr);
  EXPECT_EQ(auto_one.binary, kFig8BinaryGolden);
  EXPECT_EQ(auto_one.text, kFig8TextGolden);
  // Explicit ts_shards=1 must be the very same bytes.
  cfg.ts_shards = 1;
  const TranscriptHashes explicit_one =
      RunAndHash(gate, suite::FelaFactory(model::zoo::GoogLeNet(), cfg),
                 nullptr);
  EXPECT_EQ(explicit_one.binary, kFig8BinaryGolden);
  EXPECT_EQ(explicit_one.text, kFig8TextGolden);
}

TEST(ShardEquivalence, ChaosGateByteIdenticalToPreShardServer) {
  const model::Model model = model::zoo::Vgg19();
  ExperimentSpec gate;
  gate.total_batch = 512.0;
  gate.iterations = 4;
  gate.num_workers = 8;
  core::FelaConfig cfg = suite::TunedFelaConfig(model, 512.0, 8, 5);
  const TranscriptHashes auto_one =
      RunAndHash(gate, suite::FelaFactory(model, cfg), ChaosFaults());
  EXPECT_EQ(auto_one.binary, kChaosBinaryGolden);
  EXPECT_EQ(auto_one.text, kChaosTextGolden);
  cfg.ts_shards = 1;
  const TranscriptHashes explicit_one =
      RunAndHash(gate, suite::FelaFactory(model, cfg), ChaosFaults());
  EXPECT_EQ(explicit_one.binary, kChaosBinaryGolden);
  EXPECT_EQ(explicit_one.text, kChaosTextGolden);
}

// --- S>1 byte-identity ---------------------------------------------------

/// 256 weak-scaled workers on 32-node racks (40 Gbps uplinks, 5 us per
/// hop) with auto sharding: eight sub-distributors.
ExperimentSpec ShardedRackedSpec() {
  ExperimentSpec spec;
  spec.num_workers = 256;
  spec.total_batch = 16.0 * spec.num_workers;
  spec.iterations = 5;
  spec.calibration.topology = sim::Topology::Racked(32, 5e9, 5e-6);
  return spec;
}

TEST(ShardEquivalence, ShardedRackedRunMatchesGolden) {
  ExperimentSpec spec = ShardedRackedSpec();
  int shards = 0;
  spec.post_run_probe = [&](const Engine& engine, Cluster&) {
    shards = dynamic_cast<const core::FelaEngine&>(engine)
                 .token_server()
                 .num_shards();
  };
  const TranscriptHashes h = RunAndHash(
      spec,
      suite::FelaFactory(model::zoo::Vgg19(),
                         core::FelaConfig::Defaults(Vgg19Levels(),
                                                    spec.num_workers)),
      nullptr);
  EXPECT_EQ(shards, 8);
  EXPECT_EQ(h.binary, kShardedRackedBinaryGolden) << std::hex << h.binary;
  EXPECT_EQ(h.text, kShardedRackedTextGolden) << std::hex << h.text;
}

TEST(ShardedWorkCounter, GrantAttemptsStayWithinTwicePerGrant) {
  // The waiter service retries parked workers only while some bucket
  // holds a token, so fault-free attempts stay near one per grant (1.33
  // here; the ungated rescan made 44).
  ExperimentSpec spec = ShardedRackedSpec();
  core::TokenServer::Stats stats;
  spec.post_run_probe = [&](const Engine& engine, Cluster&) {
    stats = dynamic_cast<const core::FelaEngine&>(engine).CumulativeTsStats();
  };
  RunExperiment(spec,
                suite::FelaFactory(model::zoo::Vgg19(),
                                   core::FelaConfig::Defaults(
                                       Vgg19Levels(), spec.num_workers)),
                NoStragglerFactory());
  EXPECT_GT(stats.grants, 0u);
  EXPECT_GE(stats.grant_attempts, stats.grants);
  EXPECT_LE(stats.grant_attempts, 2 * stats.grants)
      << stats.grant_attempts << " attempts for " << stats.grants
      << " grants";
}

// --- Sharded-run invariants -------------------------------------------

/// Probes the live engine after a sharded run: the conservation ledger
/// must audit clean as a whole, each shard's books must sum to the
/// cluster-wide ledger, and the failover identity must hold.
void ExpectShardedLedgerClean(const core::FelaEngine& fela,
                              int expect_shards) {
  const core::TokenServer& ts = fela.token_server();
  EXPECT_EQ(ts.num_shards(), expect_shards);
  EXPECT_TRUE(ts.CheckInvariants().empty());
  EXPECT_TRUE(fela.CheckFailoverInvariants().empty());
  core::TokenServer::Stats summed;
  for (int s = 0; s < ts.num_shards(); ++s) summed += ts.shard_stats(s);
  const core::TokenServer::Stats whole = ts.stats();
  EXPECT_EQ(summed.grants, whole.grants);
  EXPECT_EQ(summed.completions, whole.completions);
  EXPECT_EQ(summed.steals, whole.steals);
  EXPECT_EQ(summed.cross_shard_steals, whole.cross_shard_steals);
  EXPECT_EQ(summed.donations, whole.donations);
  EXPECT_EQ(summed.tokens_reclaimed, whole.tokens_reclaimed);
}

TEST(ShardedInvariants, RackedAutoShardingConservesPerShardAndClusterWide) {
  const int levels = Vgg19Levels();
  ExperimentSpec spec;
  spec.total_batch = 256;
  spec.iterations = 4;
  spec.num_workers = 8;
  // rack_size=4 -> two racks -> two sub-distributors by default.
  spec.calibration.topology = sim::Topology::Racked(4, 5e9, 5e-6);
  bool probed = false;
  spec.post_run_probe = [&](const Engine& engine, Cluster&) {
    probed = true;
    ExpectShardedLedgerClean(dynamic_cast<const core::FelaEngine&>(engine),
                             /*expect_shards=*/2);
  };
  const ExperimentResult result = RunExperiment(
      spec,
      suite::FelaFactory(model::zoo::Vgg19(),
                         core::FelaConfig::Defaults(levels, 8)),
      NoStragglerFactory());
  EXPECT_TRUE(probed);
  EXPECT_FALSE(result.stats.stalled);
}

TEST(ShardedInvariants, ExplicitOddNonDivisorShardCount) {
  // ts_shards=3 over 8 workers: blocks {0..2}{3..5}{6..7} — the ragged
  // last shard must keep its own books straight too.
  const int levels = Vgg19Levels();
  core::FelaConfig cfg = core::FelaConfig::Defaults(levels, 8);
  cfg.ts_shards = 3;
  ExperimentSpec spec;
  spec.total_batch = 256;
  spec.iterations = 4;
  spec.num_workers = 8;
  bool probed = false;
  spec.post_run_probe = [&](const Engine& engine, Cluster&) {
    probed = true;
    ExpectShardedLedgerClean(dynamic_cast<const core::FelaEngine&>(engine),
                             /*expect_shards=*/3);
  };
  const ExperimentResult result =
      RunExperiment(spec, suite::FelaFactory(model::zoo::Vgg19(), cfg),
                    NoStragglerFactory());
  EXPECT_TRUE(probed);
  EXPECT_FALSE(result.stats.stalled);
}

TEST(ShardedDeterminism, ChaosRunReplaysByteIdentically) {
  // Sharded server + racked fabric + the chaos gate faults: two runs of
  // the same spec must produce identical FELADET1 bytes.
  const int levels = Vgg19Levels();
  ExperimentSpec spec;
  spec.total_batch = 256;
  spec.iterations = 4;
  spec.num_workers = 8;
  spec.calibration.topology = sim::Topology::Racked(4, 5e9, 5e-6);
  const DeterminismReport report = VerifyDeterminism(
      spec,
      suite::FelaFactory(model::zoo::Vgg19(),
                         core::FelaConfig::Defaults(levels, 8)),
      NoStragglerFactory(), ChaosFaults());
  EXPECT_TRUE(report.deterministic) << report.ToString();
  EXPECT_NE(report.hash_first, 0u);
}

// --- Hierarchical steal path ------------------------------------------

/// Computes 8x slower on workers [first, last] in every iteration: one
/// whole rack of degraded devices, the STB-imbalance scenario that makes
/// the fast rack exhaust its own sub-distributor.
class SlowRack final : public sim::StragglerSchedule {
 public:
  SlowRack(int first, int last, double slowdown)
      : first_(first), last_(last), slowdown_(slowdown) {}
  double DelayFor(int, int) const override { return 0.0; }
  double SlowdownFor(int, int worker) const override {
    return (worker >= first_ && worker <= last_) ? slowdown_ : 1.0;
  }
  std::string ToString() const override { return "SlowRack"; }

 private:
  int first_;
  int last_;
  double slowdown_;
};

TEST(CrossShardSteal, ImbalancedStbForcesHierarchicalSteal) {
  // Compute-slow every worker in rack 0 for the whole run: rack 1
  // drains its own STBs, exhausts intra-rack victims, and must go
  // through the root to steal from rack 0's sub-distributor.
  const int levels = Vgg19Levels();
  ExperimentSpec spec;
  spec.total_batch = 512;
  spec.iterations = 4;
  spec.num_workers = 8;
  spec.calibration.topology = sim::Topology::Racked(4, 5e9, 5e-6);
  StragglerFactory slow_rack0 = [](int) {
    return std::make_unique<SlowRack>(/*first=*/0, /*last=*/3,
                                      /*slowdown=*/8.0);
  };
  bool probed = false;
  spec.post_run_probe = [&](const Engine& engine, Cluster&) {
    probed = true;
    const auto& fela = dynamic_cast<const core::FelaEngine&>(engine);
    const core::TokenServer::Stats stats = fela.ts_stats();
    EXPECT_GT(stats.cross_shard_steals, 0u);
    // Every cross-shard grant has exactly one donor-side donation.
    EXPECT_EQ(stats.donations, stats.cross_shard_steals);
    ExpectShardedLedgerClean(fela, /*expect_shards=*/2);
  };
  const ExperimentResult result = RunExperiment(
      spec,
      suite::FelaFactory(model::zoo::Vgg19(),
                         core::FelaConfig::Defaults(levels, 8)),
      slow_rack0);
  EXPECT_TRUE(probed);
  EXPECT_FALSE(result.stats.stalled);
}

// --- Failover branch goldens ---------------------------------------------
//
// FELADET1 fingerprints of four failover branches that no other tier-1
// test pins byte for byte, recorded before the one-shard and sharded
// survivability paths were merged into one: a one-shard quorum loss
// whose promotion restarts the iteration, a sharded host crash under a
// lossy control plane, a sharded quorum fence, and a sharded promotion
// that had to wait for a member to recover.
constexpr uint64_t kQuorumRestartBinaryGolden = 0xaf93705b1ea6b972ull;
constexpr uint64_t kQuorumRestartTextGolden = 0xfc9d01a26d4614a4ull;
constexpr uint64_t kShardHostCrashBinaryGolden = 0xcc4c83f5eb3d934full;
constexpr uint64_t kShardHostCrashTextGolden = 0x0425447bf1c5d637ull;
constexpr uint64_t kShardQuorumFenceBinaryGolden = 0x188d243658859f2full;
constexpr uint64_t kShardQuorumFenceTextGolden = 0x47ba470e94dd52a9ull;
constexpr uint64_t kShardNoStandbyBinaryGolden = 0x718413a1293aef80ull;
constexpr uint64_t kShardNoStandbyTextGolden = 0xb0f3466524b2d5aeull;

/// What an observed failover run leaves behind: its transcript hashes,
/// its stats, and the engine's per-shard control-plane placement and
/// failover audit read through the post-run probe.
struct FailoverOutcome {
  TranscriptHashes hashes;
  RunStats stats;
  std::vector<sim::NodeId> hosts;
  std::vector<int> incarnations;
  std::vector<std::string> violations;
};

FailoverOutcome RunFailover(ExperimentSpec spec, const EngineFactory& engine,
                            const FaultFactory& faults) {
  FailoverOutcome out;
  spec.observe = true;
  spec.post_run_probe = [&](const Engine& e, Cluster&) {
    const auto& fela = dynamic_cast<const core::FelaEngine&>(e);
    for (int s = 0; s < fela.ts_shard_count(); ++s) {
      out.hosts.push_back(fela.ts_shard_host(s));
      out.incarnations.push_back(fela.ts_shard_incarnation(s));
    }
    out.violations = fela.CheckFailoverInvariants();
  };
  const ExperimentResult r =
      RunExperiment(spec, engine, NoStragglerFactory(), faults);
  out.hashes = {Fnv1a64(BinaryTranscript(r)),
                Fnv1a64(DeterminismTranscript(r))};
  out.stats = r.stats;
  return out;
}

/// Eight workers in two racks of four: two sub-distributors, hosted on
/// workers 0 and 4.
ExperimentSpec TwoRackSpec() {
  ExperimentSpec spec;
  spec.num_workers = 8;
  spec.total_batch = 256.0;
  spec.iterations = 5;
  spec.calibration.topology = sim::Topology::Racked(4, 5e9, 5e-6);
  return spec;
}

TEST(FailoverGoldens, SingleShardQuorumLossRestartsIteration) {
  // The ControlPlaneTest.MinorityTsLosesQuorumAndFailsOver scenario: the
  // TS host is stranded with one companion, the six-worker majority
  // elects a standby on its side, and the promotion finds the last
  // checkpoint an iteration old, so it restarts the iteration.
  const model::Model model = model::zoo::Vgg19();
  core::FelaConfig cfg = core::FelaConfig::Defaults(3, 8);
  cfg.weights = {1, 2, 4};
  ExperimentSpec spec;
  spec.total_batch = 512.0;
  spec.iterations = 6;
  spec.num_workers = 8;
  const RunStats clean =
      RunExperiment(spec, suite::FelaFactory(model, cfg), NoStragglerFactory())
          .stats;
  sim::PartitionEvent ev;
  ev.start = clean.iterations[1].start;
  ev.end = 0.9 * clean.total_time;
  ev.side_a = {0, 1};
  cfg.ts_failover_timeout_sec = 1.0;
  const FailoverOutcome out = RunFailover(
      spec, suite::FelaFactory(model, cfg),
      [ev](int) -> std::unique_ptr<sim::FaultSchedule> {
        return std::make_unique<sim::NetworkPartition>(
            std::vector<sim::PartitionEvent>{ev});
      });
  EXPECT_FALSE(out.stats.stalled);
  EXPECT_EQ(out.stats.iteration_count(), spec.iterations);
  EXPECT_EQ(out.stats.faults.ts_failovers, 1u);
  ASSERT_EQ(out.hosts.size(), 1u);
  EXPECT_GE(out.hosts[0], 2);  // promoted on the majority side
  EXPECT_EQ(out.incarnations[0], 1);
  // The restart re-arms no checkpointed lease.
  EXPECT_EQ(out.stats.faults.leases_restored, 0u);
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
  EXPECT_EQ(out.hashes.binary, kQuorumRestartBinaryGolden)
      << std::hex << out.hashes.binary;
  EXPECT_EQ(out.hashes.text, kQuorumRestartTextGolden)
      << std::hex << out.hashes.text;
}

TEST(FailoverGoldens, ShardHostCrashUnderLossyControlPlane) {
  // Sixteen workers in four racks; the host of shard 2 (worker 8) dies
  // mid-iteration and comes back late, while the control plane drops
  // and duplicates messages throughout. Only shard 2 fails over.
  ExperimentSpec spec = TwoRackSpec();
  spec.num_workers = 16;
  spec.total_batch = 512.0;
  core::FelaConfig cfg = core::FelaConfig::Defaults(Vgg19Levels(), 16);
  cfg.ts_failover_timeout_sec = 2.0;
  const FailoverOutcome out = RunFailover(
      spec, suite::FelaFactory(model::zoo::Vgg19(), cfg),
      [](int) -> std::unique_ptr<sim::FaultSchedule> {
        std::vector<std::unique_ptr<sim::FaultSchedule>> parts;
        parts.push_back(std::make_unique<sim::ScriptedCrashes>(
            std::vector<sim::CrashEvent>{{/*worker=*/8, 9.0, 20.0}}));
        parts.push_back(std::make_unique<sim::LossyControlPlane>(
            /*drop_prob=*/0.02, /*dup_prob=*/0.01, /*seed=*/7));
        return std::make_unique<sim::CompositeFaults>(std::move(parts));
      });
  EXPECT_FALSE(out.stats.stalled);
  EXPECT_EQ(out.stats.faults.ts_failovers, 1u);
  EXPECT_GT(out.stats.faults.control_dropped, 0u);
  ASSERT_EQ(out.hosts.size(), 4u);
  EXPECT_EQ(out.incarnations, (std::vector<int>{0, 0, 1, 0}));
  EXPECT_EQ(out.hosts, (std::vector<sim::NodeId>{0, 4, 9, 12}));
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
  EXPECT_EQ(out.hashes.binary, kShardHostCrashBinaryGolden)
      << std::hex << out.hashes.binary;
  EXPECT_EQ(out.hashes.text, kShardHostCrashTextGolden)
      << std::hex << out.hashes.text;
}

TEST(FailoverGoldens, ShardHostStrandedFromItsMembersLosesQuorum) {
  // A partition cuts shard 1's host (worker 4) off from every other
  // worker. Shard 0 keeps its members; shard 1's host can reach none of
  // its three up members, so the sharded quorum check fences it and the
  // best-connected member (worker 5) takes over.
  core::FelaConfig cfg = core::FelaConfig::Defaults(Vgg19Levels(), 8);
  cfg.ts_failover_timeout_sec = 2.0;
  const FailoverOutcome out = RunFailover(
      TwoRackSpec(), suite::FelaFactory(model::zoo::Vgg19(), cfg),
      [](int) -> std::unique_ptr<sim::FaultSchedule> {
        sim::PartitionEvent ev;
        ev.start = 7.0;
        ev.end = 15.0;
        ev.side_a = {4};
        return std::make_unique<sim::NetworkPartition>(
            std::vector<sim::PartitionEvent>{ev});
      });
  EXPECT_FALSE(out.stats.stalled);
  EXPECT_EQ(out.stats.faults.crashes, 0u);
  EXPECT_EQ(out.stats.faults.ts_failovers, 1u);
  EXPECT_EQ(out.incarnations, (std::vector<int>{0, 1}));
  EXPECT_EQ(out.hosts, (std::vector<sim::NodeId>{0, 5}));
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
  EXPECT_EQ(out.hashes.binary, kShardQuorumFenceBinaryGolden)
      << std::hex << out.hashes.binary;
  EXPECT_EQ(out.hashes.text, kShardQuorumFenceTextGolden)
      << std::hex << out.hashes.text;
}

TEST(FailoverGoldens, ShardWithNoLiveStandbyPromotesOnRecover) {
  // Every member of shard 1 crashes at once. Its failover timer fires
  // while all of them are still down, so no standby can be elected; the
  // first member back (worker 6) is promoted by its own recovery.
  core::FelaConfig cfg = core::FelaConfig::Defaults(Vgg19Levels(), 8);
  cfg.ts_failover_timeout_sec = 2.0;
  const FailoverOutcome out = RunFailover(
      TwoRackSpec(), suite::FelaFactory(model::zoo::Vgg19(), cfg),
      [](int) -> std::unique_ptr<sim::FaultSchedule> {
        return std::make_unique<sim::ScriptedCrashes>(
            std::vector<sim::CrashEvent>{{4, 7.0, 16.0},
                                         {5, 7.0, 16.0},
                                         {6, 7.0, 12.0},
                                         {7, 7.0, 16.0}});
      });
  EXPECT_FALSE(out.stats.stalled);
  EXPECT_EQ(out.stats.faults.ts_failovers, 1u);
  EXPECT_EQ(out.incarnations, (std::vector<int>{0, 1}));
  EXPECT_EQ(out.hosts, (std::vector<sim::NodeId>{0, 6}));
  EXPECT_TRUE(out.violations.empty()) << out.violations.front();
  EXPECT_EQ(out.hashes.binary, kShardNoStandbyBinaryGolden)
      << std::hex << out.hashes.binary;
  EXPECT_EQ(out.hashes.text, kShardNoStandbyTextGolden)
      << std::hex << out.hashes.text;
}

}  // namespace
}  // namespace fela::runtime
