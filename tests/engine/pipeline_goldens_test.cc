// Transcript goldens for the pipeline and hybrid baselines. Every other
// tier-1 check on MP, ElasticMP and HP compares a run with itself
// (run-twice determinism) or with a bound; these pin FELADET1 bytes, so
// a change to how device and link completions are queued must replay
// each run exactly. Pinned: static MP (VGG19 @64), ElasticMP under
// transient stragglers with at least one re-partition, and HP on the
// racked fabric, where one source node sends both intra-rack and
// cross-rack transfers.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/elastic_mp_engine.h"
#include "model/partition.h"
#include "model/zoo.h"
#include "runtime/determinism.h"
#include "runtime/experiment.h"
#include "sim/straggler.h"
#include "sim/topology.h"
#include "suite/suite.h"

namespace fela::runtime {
namespace {

// FNV-1a fingerprints of the FELADET1 binary and text transcripts of the
// three runs below, recorded while every device and link completion
// still went through the plain event heap.
constexpr uint64_t kMpBinaryGolden = 0xdcde4e8d27820726ull;
constexpr uint64_t kMpTextGolden = 0xeea8aa68bd4d6253ull;
constexpr uint64_t kElasticMpBinaryGolden = 0x3b519153b81e3a27ull;
constexpr uint64_t kElasticMpTextGolden = 0x0cba78dd8543cf79ull;
constexpr uint64_t kHpRackedBinaryGolden = 0xdf5e7a22eebcd3edull;
constexpr uint64_t kHpRackedTextGolden = 0xbdf012eedddc2c41ull;

struct TranscriptHashes {
  uint64_t binary = 0;
  uint64_t text = 0;
};

TranscriptHashes RunAndHash(ExperimentSpec spec, const EngineFactory& engine,
                            const StragglerFactory& stragglers) {
  spec.observe = true;  // transcripts require the observability layer
  const ExperimentResult r = RunExperiment(spec, engine, stragglers);
  return {Fnv1a64(BinaryTranscript(r)), Fnv1a64(DeterminismTranscript(r))};
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

}  // namespace
}  // namespace fela::runtime
