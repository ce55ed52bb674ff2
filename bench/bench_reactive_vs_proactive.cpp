// Design-choice ablation (beyond the paper's figures, supporting its §I /
// §III-C argument): reactive token scheduling vs proactive alternatives.
//
//  1. Proactive re-balancing (ElasticPipe-style MP) vs static MP vs Fela
//     under a PERSISTENT straggler (profiles accurate -> proactive helps)
//     and under TRANSIENT stragglers (profiles stale -> proactive can
//     hurt, Fela's reactive pulling keeps adapting).
//  2. PS-architecture DP vs ring all-reduce DP vs Fela: the Table II
//     "centralized bottleneck at PS".

#include <cstdio>
#include <iostream>
#include <iterator>

#include "bench_util.h"
#include "common/string_util.h"
#include "model/zoo.h"
#include "runtime/experiment.h"

int main(int argc, char** argv) {
  using namespace fela;
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader(
      "Ablation: reactive token scheduling vs proactive alternatives");

  const model::Model m = model::zoo::Vgg19();
  const double batch = 512;
  runtime::ExperimentSpec spec;
  spec.total_batch = batch;
  spec.iterations = opts.smoke ? 3 : 60;
  spec.observe = opts.json;

  // ---- 1. straggler response: persistent vs transient ----------------
  struct Scenario {
    const char* name;
    runtime::StragglerFactory factory;
  };
  const double d = 4.0;
  const Scenario scenarios[] = {
      {"none",
       [](int) -> std::unique_ptr<sim::StragglerSchedule> {
         return std::make_unique<sim::NoStragglers>();
       }},
      {"persistent (w3, d=4s)",
       [d](int) -> std::unique_ptr<sim::StragglerSchedule> {
         return std::make_unique<sim::PersistentStraggler>(3, d);
       }},
      {"heterogeneous (w3 2x slower)",
       [](int) -> std::unique_ptr<sim::StragglerSchedule> {
         return std::make_unique<sim::HeterogeneousWorker>(3, 2.0);
       }},
      {"transient (burst=3, d=4s)",
       [d](int n) -> std::unique_ptr<sim::StragglerSchedule> {
         return std::make_unique<sim::TransientStragglers>(n, d, 3, 7);
       }},
      {"round-robin (d=4s)",
       [d](int n) -> std::unique_ptr<sim::StragglerSchedule> {
         return std::make_unique<sim::RoundRobinStragglers>(n, d);
       }},
  };

  // Stage one task per scenario (and, below, per PS batch) on the sweep
  // runner, then render serially in order — bytes match any --jobs.
  const size_t scenario_count = opts.smoke ? 1 : std::size(scenarios);
  struct ScenarioPoint {
    runtime::ExperimentResult mp, emp, fela;
  };
  std::vector<ScenarioPoint> scenario_points(scenario_count);
  runtime::SweepRunner runner = opts.Runner();
  for (size_t i = 0; i < scenario_count; ++i) {
    runner.Add([&, i] {
      const auto& sc = scenarios[i];
      const auto cfg = suite::TunedFelaConfig(
          m, batch, 8, opts.smoke ? 1 : 5, sim::Calibration::Default(),
          sc.factory);
      scenario_points[i].mp =
          RunExperiment(spec, suite::MpFactory(m), sc.factory);
      scenario_points[i].emp =
          RunExperiment(spec, suite::ElasticMpFactory(m), sc.factory);
      scenario_points[i].fela =
          RunExperiment(spec, suite::FelaFactory(m, cfg), sc.factory);
    });
  }
  runner.RunAll();

  std::printf("\nVGG19 @ batch %g, average throughput (samples/s):\n", batch);
  obs::BenchReport report("reactive_vs_proactive");
  common::TablePrinter table(
      {"scenario", "MP (static)", "ElasticMP (proactive)", "Fela (reactive)",
       "ElasticMP/MP", "Fela/ElasticMP"});
  double scenario_x = 0.0;
  for (size_t i = 0; i < scenario_count; ++i) {
    const Scenario& sc = scenarios[i];
    const ScenarioPoint& pt = scenario_points[i];
    for (const auto* r : {&pt.mp, &pt.emp, &pt.fela}) {
      report.Add(*r, scenario_x);
    }
    scenario_x += 1.0;
    const double mp = pt.mp.average_throughput;
    const double emp = pt.emp.average_throughput;
    const double fela = pt.fela.average_throughput;
    table.AddRow({sc.name, common::TablePrinter::Num(mp, 1),
                  common::TablePrinter::Num(emp, 1),
                  common::TablePrinter::Num(fela, 1),
                  common::TablePrinter::Ratio(emp / mp),
                  common::TablePrinter::Ratio(fela / emp)});
  }
  table.Print(std::cout);
  std::printf(
      "(expected: ElasticMP > MP under the persistent straggler, but the\n"
      " advantage shrinks or inverts under transient/rotating stragglers —\n"
      " the paper's argument for reactive scheduling, §III-C.)\n");

  // ---- 2. PS bottleneck ----------------------------------------------
  const std::vector<double> ps_batches =
      opts.Sweep<double>({128.0, 256.0, 512.0});
  std::vector<runtime::SweepItem> ps_items;
  for (double b : ps_batches) {
    runtime::ExperimentSpec s2;
    s2.total_batch = b;
    s2.iterations = opts.smoke ? 3 : 30;
    ps_items.push_back(runtime::SweepItem{s2, suite::PsDpFactory(m, 1),
                                          runtime::NoStragglerFactory(),
                                          nullptr});
    ps_items.push_back(runtime::SweepItem{s2, suite::PsDpFactory(m, 4),
                                          runtime::NoStragglerFactory(),
                                          nullptr});
    ps_items.push_back(runtime::SweepItem{s2, suite::DpFactory(m),
                                          runtime::NoStragglerFactory(),
                                          nullptr});
  }
  const std::vector<runtime::ExperimentResult> ps_results =
      runtime::RunSweep(ps_items, opts.jobs);

  std::printf("\nPS-architecture DP vs ring all-reduce DP (non-straggler):\n");
  common::TablePrinter ps_table({"batch", "PS-DP (1 server)",
                                 "PS-DP (4 servers)", "DP (ring)",
                                 "ring/PS1"});
  for (size_t i = 0; i < ps_batches.size(); ++i) {
    const double b = ps_batches[i];
    const double ps1 = ps_results[3 * i].average_throughput;
    const double ps4 = ps_results[3 * i + 1].average_throughput;
    const double ring = ps_results[3 * i + 2].average_throughput;
    ps_table.AddRow({common::TablePrinter::Num(b, 0),
                     common::TablePrinter::Num(ps1, 1),
                     common::TablePrinter::Num(ps4, 1),
                     common::TablePrinter::Num(ring, 1),
                     common::TablePrinter::Ratio(ring / ps1)});
  }
  ps_table.Print(std::cout);
  std::printf(
      "(the single-server PS funnels 2 * N * 575 MB through one NIC per\n"
      " iteration — Table II's centralized bottleneck.)\n");
  const runtime::StragglerFactory transient =
      [](int n) -> std::unique_ptr<sim::StragglerSchedule> {
    return std::make_unique<sim::TransientStragglers>(n, 4.0, 3, 7);
  };
  runtime::ExperimentSpec gate;
  gate.total_batch = 256;
  gate.iterations = 4;
  const int rc = bench::VerifyDeterminismGate(
      opts, "reactive_vs_proactive", gate, suite::PsDpFactory(m, 4),
      transient);
  // Seven iterations reach ElasticMP's first re-partition (its default
  // profile period is 5), so the gate covers the stage-cost rebuild.
  runtime::ExperimentSpec emp_gate = gate;
  emp_gate.iterations = 7;
  const int emp_rc = bench::VerifyDeterminismGate(
      opts, "reactive_vs_proactive.elastic_mp", emp_gate,
      suite::ElasticMpFactory(m), transient);
  return bench::FinishBench(opts, report) | rc | emp_rc;
}
