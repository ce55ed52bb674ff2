// Transcript goldens for the BSP baselines. Every other tier-1 check on
// DP, PS-DP, MP, ElasticMP and HP compares a run with itself (run-twice
// determinism) or with a bound; these pin FELADET1 bytes, so a change to
// how device and link completions are queued, or to how the engines
// share their iteration driver, must replay each run exactly. Pinned:
// static MP (VGG19 @64), ElasticMP under transient stragglers with at
// least one re-partition, HP on the racked fabric, where one source node
// sends both intra-rack and cross-rack transfers, and observed DP and
// PS-DP runs under stragglers and crashes: DP's redo-after-recovery path
// and its stalled barrier, and PS-DP's abort.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/elastic_mp_engine.h"
#include "model/partition.h"
#include "model/zoo.h"
#include "runtime/determinism.h"
#include "runtime/experiment.h"
#include "sim/faults.h"
#include "sim/span.h"
#include "sim/straggler.h"
#include "sim/topology.h"
#include "suite/suite.h"

namespace fela::runtime {
namespace {

// FNV-1a fingerprints of the FELADET1 binary and text transcripts of the
// runs below. The MP, ElasticMP and HP ones were recorded while every
// device and link completion still went through the plain event heap;
// the DP and PS-DP ones while each baseline engine still carried its own
// copy of the BSP iteration driver.
constexpr uint64_t kMpBinaryGolden = 0xdcde4e8d27820726ull;
constexpr uint64_t kMpTextGolden = 0xeea8aa68bd4d6253ull;
constexpr uint64_t kElasticMpBinaryGolden = 0x3b519153b81e3a27ull;
constexpr uint64_t kElasticMpTextGolden = 0x0cba78dd8543cf79ull;
constexpr uint64_t kHpRackedBinaryGolden = 0xdf5e7a22eebcd3edull;
constexpr uint64_t kHpRackedTextGolden = 0xbdf012eedddc2c41ull;
constexpr uint64_t kDpStragglersBinaryGolden = 0x7929a5a082d9d596ull;
constexpr uint64_t kDpStragglersTextGolden = 0x4f7c1990417949fcull;
constexpr uint64_t kDpCrashRecoversBinaryGolden = 0x1080051870c1bd62ull;
constexpr uint64_t kDpCrashRecoversTextGolden = 0xe538011ed90d7600ull;
constexpr uint64_t kDpFailStopBinaryGolden = 0x41a32900c460dad9ull;
constexpr uint64_t kDpFailStopTextGolden = 0x2908bcc00e42fc43ull;
constexpr uint64_t kPsDpStragglersBinaryGolden = 0x3a1d82040317e107ull;
constexpr uint64_t kPsDpStragglersTextGolden = 0x3377919f6cfa5015ull;
constexpr uint64_t kPsDpFailStopBinaryGolden = 0xb0c305dc5100b4b9ull;
constexpr uint64_t kPsDpFailStopTextGolden = 0xd07b8fb9d3d83c82ull;

struct TranscriptHashes {
  uint64_t binary = 0;
  uint64_t text = 0;
  RunStats stats;
};

TranscriptHashes RunAndHash(ExperimentSpec spec, const EngineFactory& engine,
                            const StragglerFactory& stragglers,
                            const FaultFactory& faults = nullptr) {
  spec.observe = true;  // transcripts require the observability layer
  const ExperimentResult r = RunExperiment(spec, engine, stragglers, faults);
  return {Fnv1a64(BinaryTranscript(r)), Fnv1a64(DeterminismTranscript(r)),
          r.stats};
}

/// Spans of `phase` the run left in its sink.
size_t CountSpans(const Cluster& cluster, obs::Phase phase) {
  size_t n = 0;
  for (const obs::Span& span : cluster.spans().spans()) {
    if (span.phase == phase) ++n;
  }
  return n;
}

/// VGG19 @256 on 8 workers for 4 iterations: a clean DP iteration takes
/// 2.786 s, a clean single-server PS-DP one 8.418 s.
ExperimentSpec Vgg19Batch256() {
  ExperimentSpec spec;
  spec.total_batch = 256.0;
  spec.iterations = 4;
  return spec;
}

StragglerFactory RoundRobin(double delay_sec) {
  return [delay_sec](int n) -> std::unique_ptr<sim::StragglerSchedule> {
    return std::make_unique<sim::RoundRobinStragglers>(n, delay_sec);
  };
}

FaultFactory OneCrash(int worker, sim::SimTime crash, sim::SimTime recover) {
  return [=](int) -> std::unique_ptr<sim::FaultSchedule> {
    return std::make_unique<sim::ScriptedCrashes>(
        std::vector<sim::CrashEvent>{{worker, crash, recover}});
  };
}

TEST(PipelineGoldens, MpVgg19Batch64) {
  // 16 micro-batches through 8 stages: stage 0 and the tail queue all of
  // them on their device at once.
  ExperimentSpec spec;
  spec.total_batch = 64.0;
  spec.iterations = 4;
  const TranscriptHashes h = RunAndHash(
      spec, suite::MpFactory(model::zoo::Vgg19()), NoStragglerFactory());
  EXPECT_EQ(h.binary, kMpBinaryGolden) << std::hex << h.binary;
  EXPECT_EQ(h.text, kMpTextGolden) << std::hex << h.text;
}

TEST(PipelineGoldens, ElasticMpRepartitionsUnderTransientStragglers) {
  const model::Model model = model::zoo::Vgg19();
  ExperimentSpec spec;
  spec.total_batch = 256.0;
  spec.iterations = 7;  // the default profile period re-partitions at 5
  int repartitions = 0;
  std::vector<std::pair<int, int>> stages;
  spec.post_run_probe = [&](const Engine& engine, Cluster&) {
    const auto& emp = dynamic_cast<const baselines::ElasticMpEngine&>(engine);
    repartitions = emp.repartition_count();
    stages = emp.stages();
  };
  const TranscriptHashes h = RunAndHash(
      spec, suite::ElasticMpFactory(model),
      [](int n) -> std::unique_ptr<sim::StragglerSchedule> {
        return std::make_unique<sim::TransientStragglers>(n, 4.0, 3, 7);
      });
  EXPECT_EQ(repartitions, 1);
  // The re-partition moved at least one stage boundary, so the cached
  // per-stage costs had to follow it.
  EXPECT_NE(stages, model::EqualLayerCountPartition(model, 8));
  EXPECT_EQ(h.binary, kElasticMpBinaryGolden) << std::hex << h.binary;
  EXPECT_EQ(h.text, kElasticMpTextGolden) << std::hex << h.text;
}

TEST(PipelineGoldens, HpOnRackedFabric) {
  // Two racks of four: the FC worker (node 7) shares a rack with nodes
  // 4-6, and the hierarchical all-reduce sends within and across racks.
  ExperimentSpec spec;
  spec.total_batch = 256.0;
  spec.iterations = 3;
  spec.calibration.topology = sim::Topology::Racked(4, 5e9, 5e-6);
  uint64_t transfers = 0;
  uint64_t cross_rack = 0;
  spec.post_run_probe = [&](const Engine&, Cluster& cluster) {
    transfers = cluster.fabric().data_transfer_count();
    cross_rack = cluster.fabric().cross_rack_transfer_count();
  };
  const TranscriptHashes h = RunAndHash(
      spec, suite::HpFactory(model::zoo::Vgg19()), NoStragglerFactory());
  EXPECT_GT(cross_rack, 0u);
  EXPECT_LT(cross_rack, transfers);
  EXPECT_EQ(h.binary, kHpRackedBinaryGolden) << std::hex << h.binary;
  EXPECT_EQ(h.text, kHpRackedTextGolden) << std::hex << h.text;
}

TEST(BaselineGoldens, DpUnderRoundRobinStragglers) {
  const TranscriptHashes h =
      RunAndHash(Vgg19Batch256(), suite::DpFactory(model::zoo::Vgg19()),
                 RoundRobin(1.0));
  EXPECT_FALSE(h.stats.stalled);
  EXPECT_EQ(h.stats.faults.crashes, 0u);
  EXPECT_EQ(h.stats.iteration_count(), 4);
  EXPECT_EQ(h.binary, kDpStragglersBinaryGolden) << std::hex << h.binary;
  EXPECT_EQ(h.text, kDpStragglersTextGolden) << std::hex << h.text;
}

TEST(BaselineGoldens, DpRedoesTheBatchOfACrashThatRecovers) {
  // Worker 3 dies during iteration 1's compute and is back at 6 s: its
  // attempt is void, it blocks as kCrashed until 6 s, then redoes the
  // whole per-worker batch while every peer waits at the barrier.
  ExperimentSpec spec = Vgg19Batch256();
  size_t crashed_blocks = 0;
  spec.post_run_probe = [&](const Engine&, Cluster& cluster) {
    crashed_blocks = CountSpans(cluster, obs::Phase::kCrashed);
  };
  const TranscriptHashes h =
      RunAndHash(spec, suite::DpFactory(model::zoo::Vgg19()),
                 NoStragglerFactory(), OneCrash(3, 3.2, 6.0));
  EXPECT_EQ(crashed_blocks, 1u);
  EXPECT_FALSE(h.stats.stalled);
  EXPECT_EQ(h.stats.faults.crashes, 1u);
  EXPECT_EQ(h.stats.faults.recoveries, 1u);
  EXPECT_EQ(h.stats.iteration_count(), 4);
  EXPECT_EQ(h.binary, kDpCrashRecoversBinaryGolden) << std::hex << h.binary;
  EXPECT_EQ(h.text, kDpCrashRecoversTextGolden) << std::hex << h.text;
}

TEST(BaselineGoldens, DpStallsOnAFailStopCrash) {
  // Worker 5 never comes back: iteration 1's barrier waits forever, and
  // its framing span is cancelled rather than charged the stall.
  ExperimentSpec spec = Vgg19Batch256();
  size_t framing_spans = 0;
  spec.post_run_probe = [&](const Engine&, Cluster& cluster) {
    framing_spans = CountSpans(cluster, obs::Phase::kIteration);
  };
  const TranscriptHashes h =
      RunAndHash(spec, suite::DpFactory(model::zoo::Vgg19()),
                 NoStragglerFactory(), OneCrash(5, 4.0, sim::kNeverTime));
  EXPECT_TRUE(h.stats.stalled);
  EXPECT_EQ(h.stats.faults.crashes, 1u);
  EXPECT_EQ(h.stats.iteration_count(), 1);
  EXPECT_EQ(framing_spans, 1u);
  EXPECT_EQ(h.binary, kDpFailStopBinaryGolden) << std::hex << h.binary;
  EXPECT_EQ(h.text, kDpFailStopTextGolden) << std::hex << h.text;
}

TEST(BaselineGoldens, PsDpTwoServersUnderRoundRobinStragglers) {
  const TranscriptHashes h = RunAndHash(
      Vgg19Batch256(), suite::PsDpFactory(model::zoo::Vgg19(), 2),
      RoundRobin(1.0));
  EXPECT_FALSE(h.stats.stalled);
  EXPECT_EQ(h.stats.faults.crashes, 0u);
  EXPECT_EQ(h.stats.iteration_count(), 4);
  EXPECT_EQ(h.binary, kPsDpStragglersBinaryGolden) << std::hex << h.binary;
  EXPECT_EQ(h.text, kPsDpStragglersTextGolden) << std::hex << h.text;
}

TEST(BaselineGoldens, PsDpAbortsOnAFailStopCrash) {
  // Worker 5 dies during iteration 0: the single server never collects
  // its gradient shard and the job aborts.
  const TranscriptHashes h =
      RunAndHash(Vgg19Batch256(), suite::PsDpFactory(model::zoo::Vgg19()),
                 NoStragglerFactory(), OneCrash(5, 1.0, sim::kNeverTime));
  EXPECT_TRUE(h.stats.stalled);
  EXPECT_EQ(h.stats.faults.crashes, 1u);
  EXPECT_EQ(h.stats.iteration_count(), 0);
  EXPECT_EQ(h.binary, kPsDpFailStopBinaryGolden) << std::hex << h.binary;
  EXPECT_EQ(h.text, kPsDpFailStopTextGolden) << std::hex << h.text;
}

}  // namespace
}  // namespace fela::runtime
