// Tests for the extension baselines: PS-architecture DP and
// ElasticPipe-style proactive MP, plus the straggler schedules that
// motivate them.

#include <gtest/gtest.h>

#include "baselines/dp_engine.h"
#include "core/fela_engine.h"
#include "baselines/elastic_mp_engine.h"
#include "baselines/mp_engine.h"
#include "baselines/ps_engine.h"
#include "model/zoo.h"
#include "runtime/cluster.h"
#include "runtime/experiment.h"
#include "suite/suite.h"

namespace fela::baselines {
namespace {

std::unique_ptr<runtime::Cluster> CleanCluster(int n = 8) {
  return runtime::Cluster::MakeDefault(n);
}

// -------------------------------------------------------------- PS-DP --

TEST(PsDpEngineTest, ShardsParametersOverServers) {
  auto cluster = CleanCluster();
  const model::Model m = model::zoo::Vgg19();
  PsDpEngine ps(cluster.get(), m, 256, /*num_servers=*/4);
  EXPECT_EQ(ps.num_servers(), 4);
  EXPECT_NEAR(ps.shard_bytes(), m.TotalParams() * 4.0 / 4, 1.0);
}

TEST(PsDpEngineTest, MovesPushPlusPullBytes) {
  auto cluster = CleanCluster();
  const model::Model m = model::zoo::Vgg19();
  PsDpEngine ps(cluster.get(), m, 256, 1);
  const auto stats = ps.Run(1);
  // Every worker pushes and pulls the full parameter set (loopback from
  // the server node to itself is free on the fabric).
  const double per_worker = 2.0 * m.TotalParams() * 4.0;
  EXPECT_NEAR(stats.total_data_bytes, 7 * per_worker, per_worker * 0.01);
}

TEST(PsDpEngineTest, SingleServerIsTheBottleneck) {
  // Table II's "centralized bottleneck at PS": more servers = faster,
  // and the ring all-reduce DP beats the single-server PS.
  const model::Model m = model::zoo::Vgg19();
  auto at = [&](int servers) {
    auto cluster = CleanCluster();
    PsDpEngine ps(cluster.get(), m, 256, servers);
    return ps.Run(2).AverageThroughput(256);
  };
  const double ps1 = at(1);
  const double ps4 = at(4);
  const double ps8 = at(8);
  EXPECT_GT(ps4, ps1 * 1.5);
  EXPECT_GT(ps8, ps4);
  auto cluster = CleanCluster();
  DpEngine ring(cluster.get(), m, 256);
  EXPECT_GT(ring.Run(2).AverageThroughput(256), ps1 * 1.5);
}

TEST(PsDpEngineTest, StragglerAddsFullDelay) {
  const model::Model m = model::zoo::GoogLeNet();
  auto clean = CleanCluster();
  PsDpEngine e1(clean.get(), m, 512, 2);
  const double t_clean = e1.Run(3).total_time;
  runtime::Cluster slow(8, sim::Calibration::Default(),
                        std::make_unique<sim::RoundRobinStragglers>(8, 1.0));
  PsDpEngine e2(&slow, m, 512, 2);
  EXPECT_NEAR(e2.Run(3).total_time - t_clean, 3.0, 0.01);
}

// --------------------------------------------------------- ElasticMP --

TEST(ElasticMpEngineTest, MatchesStaticMpWithoutStragglers) {
  const model::Model m = model::zoo::Vgg19();
  auto c1 = CleanCluster();
  MpEngine mp(c1.get(), m, 256);
  auto c2 = CleanCluster();
  ElasticMpEngine emp(c2.get(), m, 256);
  const double t_static = mp.Run(10).total_time;
  const double t_elastic = emp.Run(10).total_time;
  // Balanced profile -> the re-partition converges near the FLOP-balanced
  // one; allow a modest delta either way.
  EXPECT_NEAR(t_elastic, t_static, t_static * 0.25);
  EXPECT_GT(emp.repartition_count(), 0);
}

TEST(ElasticMpEngineTest, IsMpUntilItRepartitions) {
  // A profiling period longer than the run: ElasticMP never re-partitions,
  // so under the same transient stragglers it must replay static MP
  // exactly, down to the event count and (observed) every span.
  const model::Model m = model::zoo::Vgg19();
  const runtime::StragglerFactory stragglers =
      [](int n) -> std::unique_ptr<sim::StragglerSchedule> {
    return std::make_unique<sim::TransientStragglers>(n, 4.0, 3, 7);
  };
  for (const bool observe : {false, true}) {
    SCOPED_TRACE(observe ? "observed" : "unobserved");
    runtime::ExperimentSpec spec;
    spec.total_batch = 512.0;
    spec.iterations = 10;
    spec.observe = observe;
    uint64_t events[2] = {0, 0};
    int repartitions = -1;
    spec.post_run_probe = [&](const runtime::Engine& engine,
                              runtime::Cluster& cluster) {
      const auto* emp = dynamic_cast<const ElasticMpEngine*>(&engine);
      events[emp != nullptr ? 1 : 0] = cluster.simulator().events_processed();
      if (emp != nullptr) repartitions = emp->repartition_count();
    };
    const runtime::ExperimentResult mp =
        runtime::RunExperiment(spec, suite::MpFactory(m), stragglers);
    const runtime::ExperimentResult emp = runtime::RunExperiment(
        spec, suite::ElasticMpFactory(m, 4.0, /*profile_period=*/11),
        stragglers);
    EXPECT_EQ(repartitions, 0);
    ASSERT_EQ(emp.stats.iteration_count(), mp.stats.iteration_count());
    for (int i = 0; i < mp.stats.iteration_count(); ++i) {
      const size_t k = static_cast<size_t>(i);
      EXPECT_EQ(emp.stats.iterations[k].start, mp.stats.iterations[k].start)
          << "iteration " << i;
      EXPECT_EQ(emp.stats.iterations[k].end, mp.stats.iterations[k].end)
          << "iteration " << i;
    }
    EXPECT_EQ(emp.stats.total_time, mp.stats.total_time);
    EXPECT_EQ(emp.stats.total_data_bytes, mp.stats.total_data_bytes);
    EXPECT_EQ(emp.stats.total_gpu_busy, mp.stats.total_gpu_busy);
    EXPECT_EQ(emp.stats.control_messages, mp.stats.control_messages);
    EXPECT_GT(events[0], 0u);
    EXPECT_EQ(events[1], events[0]);
    EXPECT_EQ(emp.observed, observe);
    EXPECT_TRUE(emp.binary_trace == mp.binary_trace);
  }
}

TEST(ElasticMpEngineTest, RepartitionsOnSchedule) {
  auto cluster = CleanCluster();
  ElasticMpEngine emp(cluster.get(), model::zoo::Vgg19(), 128, 4.0,
                      /*profile_period=*/3);
  emp.Run(10);
  EXPECT_EQ(emp.repartition_count(), 3);  // at iterations 3, 6, 9
}

TEST(ElasticMpEngineTest, HelpsAgainstHeterogeneousWorker) {
  // The scenario proactive tuning is designed for: a persistently slow
  // device. ElasticMP shifts layers away from it; static MP cannot.
  const model::Model m = model::zoo::Vgg19();
  auto make_schedule = [] {
    return std::make_unique<sim::HeterogeneousWorker>(3, 2.0);
  };
  runtime::Cluster c1(8, sim::Calibration::Default(), make_schedule());
  MpEngine mp(&c1, m, 256);
  runtime::Cluster c2(8, sim::Calibration::Default(), make_schedule());
  ElasticMpEngine emp(&c2, m, 256);
  const double t_static = mp.Run(20).total_time;
  const double t_elastic = emp.Run(20).total_time;
  EXPECT_LT(t_elastic, t_static * 0.85);
}

TEST(ElasticMpEngineTest, MisfiresOnTransientStragglers) {
  // §III-C: stale profiles make proactive re-balancing useless or
  // harmful when stragglers rotate faster than the profiling period.
  const model::Model m = model::zoo::Vgg19();
  auto make_schedule = [] {
    return std::make_unique<sim::TransientStragglers>(8, 4.0, 3, 7);
  };
  runtime::Cluster c1(8, sim::Calibration::Default(), make_schedule());
  MpEngine mp(&c1, m, 512);
  runtime::Cluster c2(8, sim::Calibration::Default(), make_schedule());
  ElasticMpEngine emp(&c2, m, 512);
  const double t_static = mp.Run(20).total_time;
  const double t_elastic = emp.Run(20).total_time;
  EXPECT_GT(t_elastic, t_static * 0.98);  // no better than static
}

TEST(ElasticMpEngineTest, StagesStayContiguousAfterRepartition) {
  runtime::Cluster cluster(8, sim::Calibration::Default(),
                           std::make_unique<sim::HeterogeneousWorker>(2, 3.0));
  ElasticMpEngine emp(&cluster, model::zoo::Vgg19(), 256, 4.0, 2);
  emp.Run(8);
  const auto& stages = emp.stages();
  ASSERT_EQ(stages.size(), 8u);
  EXPECT_EQ(stages.front().first, 0);
  EXPECT_EQ(stages.back().second, 18);
  for (size_t s = 1; s < stages.size(); ++s) {
    EXPECT_EQ(stages[s].first, stages[s - 1].second + 1);
  }
}

// ------------------------------------------------- schedules ----------

TEST(HeterogeneousWorkerTest, SlowsOnlyTheVictim) {
  sim::HeterogeneousWorker h(3, 2.5);
  for (int it = 0; it < 5; ++it) {
    for (int w = 0; w < 8; ++w) {
      EXPECT_DOUBLE_EQ(h.SlowdownFor(it, w), w == 3 ? 2.5 : 1.0);
      EXPECT_DOUBLE_EQ(h.DelayFor(it, w), 0.0);
    }
  }
  EXPECT_NE(h.ToString().find("w3"), std::string::npos);
}

TEST(PersistentStragglerTest, FixedVictimEveryIteration) {
  sim::PersistentStraggler p(5, 4.0);
  for (int it = 0; it < 10; ++it) {
    for (int w = 0; w < 8; ++w) {
      EXPECT_DOUBLE_EQ(p.DelayFor(it, w), w == 5 ? 4.0 : 0.0);
    }
  }
}

TEST(SlowdownDefaultTest, BaseScheduleIsNominalSpeed) {
  sim::RoundRobinStragglers rr(8, 2.0);
  EXPECT_DOUBLE_EQ(rr.SlowdownFor(0, 0), 1.0);
  sim::NoStragglers none;
  EXPECT_DOUBLE_EQ(none.SlowdownFor(3, 4), 1.0);
}

TEST(HeterogeneousDpTest, SlowWorkerGatesBsp) {
  // DP under a 2x-slow worker: iteration time doubles (barrier waits).
  const model::Model m = model::zoo::GoogLeNet();
  auto clean = CleanCluster();
  DpEngine e1(clean.get(), m, 512);
  const double t_clean = e1.Run(2).total_time;
  runtime::Cluster slow(8, sim::Calibration::Default(),
                        std::make_unique<sim::HeterogeneousWorker>(0, 2.0));
  DpEngine e2(&slow, m, 512);
  const double t_slow = e2.Run(2).total_time;
  EXPECT_GT(t_slow, t_clean * 1.3);
}

TEST(HeterogeneousFelaTest, ReactiveSchedulingAbsorbsSlowWorker) {
  // Fela: the slow worker simply pulls fewer tokens; the cluster loses
  // far less than the 2x the DP barrier pays.
  const model::Model m = model::zoo::GoogLeNet();
  core::FelaConfig cfg = core::FelaConfig::Defaults(3, 8);
  auto clean = CleanCluster();
  core::FelaEngine e1(clean.get(), m, cfg, 512);
  const double t_clean = e1.Run(2).total_time;
  runtime::Cluster slow(8, sim::Calibration::Default(),
                        std::make_unique<sim::HeterogeneousWorker>(0, 2.0));
  core::FelaEngine e2(&slow, m, cfg, 512);
  const double t_slow = e2.Run(2).total_time;
  EXPECT_LT((t_slow - t_clean) / t_clean, 0.6);
  // The slow worker trained fewer samples than the average fast worker.
  double fast_avg = 0.0;
  for (int w = 1; w < 8; ++w) fast_avg += e2.worker(w).samples_trained();
  fast_avg /= 7.0;
  EXPECT_LT(e2.worker(0).samples_trained(), fast_avg);
}

}  // namespace
}  // namespace fela::baselines
