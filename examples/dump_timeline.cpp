// Runs one observed Fela iteration batch and writes the execution
// timeline as a Chrome trace-event file. Load the output in Perfetto
// (https://ui.perfetto.dev) or chrome://tracing: one track per worker
// plus a token-server/driver track, phase-colored spans, instant
// markers for token grants/steals/conflicts.
//
//   ./build/examples/dump_timeline [out.json]      # default fela_timeline.json
//
// Alongside the JSON it writes the compact FELATRB1 binary transcript
// (<out>.bin) with the formats of its tokens appended, so tools/fela-detok
// reconstructs the same JSON (or the text timeline) from that file alone:
//
//   ./build/tools/fela-detok --chrome fela_timeline.json.bin
//
// Also prints the per-worker attribution table and metrics CSV so the
// numbers behind the picture are on stdout.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "model/zoo.h"
#include "runtime/report.h"
#include "sim/trace_io.h"
#include "suite/suite.h"

int main(int argc, char** argv) {
  using namespace fela;
  const std::string path = argc > 1 ? argv[1] : "fela_timeline.json";

  const model::Model m = model::zoo::Vgg19();
  runtime::ExperimentSpec spec;
  spec.total_batch = 512;
  spec.iterations = 5;
  spec.observe = true;  // spans + trace + attribution + chrome trace

  // A mild round-robin straggler makes the timeline interesting: the
  // helper steals and token-wait gaps become visible.
  auto stragglers = [](int n) {
    return std::make_unique<sim::RoundRobinStragglers>(n, 2.0);
  };
  const auto cfg =
      suite::TunedFelaConfig(m, spec.total_batch, spec.num_workers, 5,
                             spec.calibration, stragglers);
  const auto result =
      runtime::RunExperiment(spec, suite::FelaFactory(m, cfg), stragglers);

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  out << result.chrome_trace;
  out.close();

  std::string transcript = result.binary_trace;
  std::string error;
  if (!obs::AppendTokenTable(&transcript, &error)) {
    std::fprintf(stderr, "cannot build the token table: %s\n",
                 error.c_str());
    return 1;
  }
  const std::string bin_path = path + ".bin";
  std::ofstream bin(bin_path, std::ios::trunc | std::ios::binary);
  if (!bin) {
    std::fprintf(stderr, "cannot write %s\n", bin_path.c_str());
    return 1;
  }
  bin << transcript;
  bin.close();

  std::printf("engine: %s  iterations: %d  AT: %.1f samples/s\n",
              result.engine_name.c_str(), result.stats.iteration_count(),
              result.average_throughput);
  std::cout << "\n" << runtime::RenderAttributionTable(result.attribution);
  std::printf("\nmetrics:\n%s", result.metrics.ToCsv().c_str());
  std::printf("\nwrote %s — open it at https://ui.perfetto.dev\n",
              path.c_str());
  std::printf("wrote %s — detokenize offline with fela-detok\n",
              bin_path.c_str());
  return 0;
}
