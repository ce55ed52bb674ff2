// Host-time benchmark of the simulator: how many host seconds, and how
// much memory, the simulator spends to produce its (deterministic)
// simulated results. See perfbench/README.md for the workloads, the
// layer map and the predictions for open work.
//
// One process, one thread: every experiment of a pass runs back to back
// (a closed loop, what runtime::SweepRunner does with jobs = 1). A run
// makes one untimed warm-up pass, then timed passes until --seconds have
// elapsed, and reports medians over the timed passes. Each timed pass
// follows a fixed calibration kernel, and times are reported in its
// units (see CalibrationSeconds).
//
//   --trace 0  untimed warm-up, then untraced passes; prints the
//              end-to-end metrics. Experiments go through
//              runtime::RunExperiment.
//   --trace 1  untraced and traced passes alternate; prints the
//              per-layer metrics and a self-time table per layer. A
//              traced pass makes the public calls RunExperiment makes,
//              in the same order, each inside a span.
//
// Every experiment of every pass is checked: its FELADET1 fingerprint
// must equal the first pass's (so traced == untraced and run-to-run
// determinism), the Token Server and failover invariants must hold
// (checked from the post_run_probe hook), and where the inputs do not
// depend on --seed (or --seed is the default) the fingerprint and
// headline numbers must equal the pins in perfbench/pins.txt.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "core/fela_engine.h"
#include "core/token_server.h"
#include "model/partition.h"
#include "model/profile.h"
#include "model/zoo.h"
#include "runtime/attribution.h"
#include "runtime/determinism.h"
#include "runtime/experiment.h"
#include "sim/chrome_trace.h"
#include "sim/faults.h"
#include "sim/topology.h"
#include "sim/trace_io.h"
#include "suite/suite.h"

namespace {

using namespace fela;
using Clock = std::chrono::steady_clock;

/// Pins apply at this seed for workloads whose inputs depend on --seed.
constexpr uint64_t kDefaultSeed = 1;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The q-quantile of v, interpolating linearly between order statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

// ---------------------------------------------------------------------
// Spans (traced passes only)

struct SpanRecord {
  std::string name;
  std::string layer;
  double start = 0.0;  // seconds since the run began
  double end = 0.0;
  int parent = -1;     // index into the span list, -1 for a root
  int pass = 0;
};

/// Keeps every span of the run in memory; written out when the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int Open(const char* name, const char* layer, int pass) {
    SpanRecord span;
    span.name = name;
    span.layer = layer;
    span.start = SecondsBetween(origin_, Clock::now());
    span.parent = open_.empty() ? -1 : open_.back();
    span.pass = pass;
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void Close(int id) {
    spans_[static_cast<size_t>(id)].end = SecondsBetween(origin_, Clock::now());
    open_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

// ---------------------------------------------------------------------
// Pins (perfbench/pins.txt)

/// The simulated outcome of one experiment that the pins fix.
struct Pin {
  std::string fingerprint;  // FNV-1a 64 of the FELADET1 transcript, hex
  std::string throughput;   // samples/s, %.3f
  std::string sim_seconds;  // simulated run time, %.3f
  uint64_t events = 0;      // simulator events processed
  uint64_t transfers = 0;   // fabric data transfers

  bool operator==(const Pin&) const = default;
  std::string ToString() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %s %s %" PRIu64 " %" PRIu64,
                  fingerprint.c_str(), throughput.c_str(),
                  sim_seconds.c_str(), events, transfers);
    return buf;
  }
};

bool ReadPins(const std::string& path, std::map<std::string, Pin>* pins) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string label;
    Pin pin;
    if (!(fields >> label >> pin.fingerprint >> pin.throughput >>
          pin.sim_seconds >> pin.events >> pin.transfers)) {
      std::fprintf(stderr, "perfbench: bad pin line: %s\n", line.c_str());
      return false;
    }
    (*pins)[label] = pin;
  }
  return true;
}

// ---------------------------------------------------------------------
// Engine wrapper: times Engine::Run inside runtime::RunExperiment.

class TimedEngine final : public runtime::Engine {
 public:
  TimedEngine(std::unique_ptr<runtime::Engine> inner, double* run_seconds)
      : inner_(std::move(inner)), run_seconds_(run_seconds) {}

  std::string name() const override { return inner_->name(); }
  runtime::RunStats Run(int iterations) override {
    const Clock::time_point start = Clock::now();
    runtime::RunStats stats = inner_->Run(iterations);
    *run_seconds_ = SecondsBetween(start, Clock::now());
    return stats;
  }
  const runtime::Engine& inner() const { return *inner_; }

 private:
  std::unique_ptr<runtime::Engine> inner_;
  double* run_seconds_;
};

const runtime::Engine& Unwrap(const runtime::Engine& engine) {
  const auto* timed = dynamic_cast<const TimedEngine*>(&engine);
  return timed != nullptr ? timed->inner() : engine;
}

// ---------------------------------------------------------------------
// What the post_run_probe reads while the engine and cluster are alive.

struct ProbeOutcome {
  uint64_t events = 0;
  uint64_t transfers = 0;
  uint64_t cross_rack = 0;
  uint64_t control_messages = 0;
  uint64_t control_dropped = 0;
  uint64_t spans = 0;
  bool fela = false;
  int ts_shards = 0;
  core::TokenServer::Stats ts;
  std::vector<std::string> violations;
};

void Probe(const runtime::Engine& engine, runtime::Cluster& cluster,
           ProbeOutcome* out) {
  out->events = cluster.simulator().events_processed();
  out->transfers = cluster.fabric().data_transfer_count();
  out->cross_rack = cluster.fabric().cross_rack_transfer_count();
  out->control_messages = cluster.fabric().control_message_count();
  out->control_dropped = cluster.fabric().control_dropped_count();
  out->spans = cluster.spans().size();
  if (const auto* fela = dynamic_cast<const core::FelaEngine*>(&engine)) {
    out->fela = true;
    out->ts_shards = fela->ts_shard_count();
    out->ts = fela->CumulativeTsStats();
    out->violations = fela->token_server().CheckInvariants();
    for (std::string& v : fela->CheckFailoverInvariants()) {
      out->violations.push_back(std::move(v));
    }
  }
}

// ---------------------------------------------------------------------
// A pass: the calls of one workload, timed, traced or not, and checked.

struct RunOptions {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  bool tiny = false;
  bool wrong_pin = false;  // self-test: corrupt one pin, expect a failure
  std::string record_pins;
};

/// Run-wide state shared by every pass.
struct RunState {
  RunOptions opts;
  bool pins_apply = false;
  std::map<std::string, Pin> pins;
  std::vector<std::pair<std::string, Pin>> recorded;  // first pass, in order
  std::map<std::string, std::string> first_fingerprint;
  std::unique_ptr<Tracer> tracer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int failures_printed = 0;
};

/// Per-pass accumulators.
struct PassStats {
  double calibration_s = 0.0;  // the calibration kernel, just before
  double peak_rss_mb = 0.0;    // peak resident set during the pass
  double wall_s = 0.0;
  double setup_s = 0.0;  // host time before each Engine::Run, summed
  double run_s = 0.0;    // host time inside Engine::Run, summed
  double sim_iters = 0.0;
  std::map<std::string, double> layer;  // per-layer metrics
};

class Pass {
 public:
  Pass(RunState* run, int index, bool traced)
      : run_(run),
        index_(index),
        tracer_(traced ? run->tracer.get() : nullptr) {}

  PassStats& stats() { return stats_; }
  bool traced() const { return tracer_ != nullptr; }
  const RunOptions& opts() const { return run_->opts; }

  /// Runs fn as one public call into `layer`, timed; recorded as a span
  /// on traced passes. Setup calls add to setup_s.
  template <typename F>
  auto Call(const char* name, const char* layer, bool setup, F&& fn) {
    const int span =
        tracer_ != nullptr ? tracer_->Open(name, layer, index_) : -1;
    const Clock::time_point start = Clock::now();
    auto finish = [&] {
      const double s = SecondsBetween(start, Clock::now());
      if (setup) stats_.setup_s += s;
      if (tracer_ != nullptr) {
        tracer_->Close(span);
        stats_.layer[std::string(name) + "_s"] += s;
      }
    };
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      finish();
    } else {
      auto value = fn();
      finish();
      return value;
    }
  }

  /// Counts one checked outcome; it failed if `problems` is not empty.
  /// The first few problems are printed to stderr.
  void Verify(const std::string& label,
              const std::vector<std::string>& problems) {
    ++run_->attempted;
    if (problems.empty()) return;
    ++run_->failed;
    for (const std::string& p : problems) {
      if (run_->failures_printed++ < 20) {
        std::fprintf(stderr, "FAIL %s: %s\n", label.c_str(), p.c_str());
      }
    }
  }

  /// Runs one experiment and checks it.
  void Experiment(const std::string& label, runtime::ExperimentSpec spec,
                  const runtime::EngineFactory& factory,
                  const runtime::FaultFactory& faults = nullptr) {
    ProbeOutcome probe;
    double run_s = 0.0;
    runtime::ExperimentResult result =
        traced() ? Traced(spec, factory, faults, &probe, &run_s)
                 : Untraced(spec, factory, faults, &probe, &run_s);
    const std::string fingerprint = Call(
        "runtime.determinism.transcript", "runtime/determinism", false, [&] {
          char hex[17];
          std::snprintf(hex, sizeof(hex), "%016" PRIx64,
                        runtime::Fnv1a64(runtime::BinaryTranscript(result)));
          return std::string(hex);
        });
    Account(result, probe, run_s);
    Check(label, result, probe, fingerprint);
  }

 private:
  runtime::ExperimentResult Untraced(runtime::ExperimentSpec spec,
                                     const runtime::EngineFactory& factory,
                                     const runtime::FaultFactory& faults,
                                     ProbeOutcome* probe, double* run_s) {
    spec.post_run_probe = [probe](const runtime::Engine& engine,
                                  runtime::Cluster& cluster) {
      Probe(Unwrap(engine), cluster, probe);
    };
    Clock::time_point engine_built;
    const runtime::EngineFactory timed = [&factory, run_s, &engine_built](
                                             runtime::Cluster& cluster,
                                             double total_batch) {
      auto engine = std::make_unique<TimedEngine>(
          factory(cluster, total_batch), run_s);
      engine_built = Clock::now();
      return engine;
    };
    const Clock::time_point start = Clock::now();
    runtime::ExperimentResult result = runtime::RunExperiment(
        spec, timed, runtime::NoStragglerFactory(), faults);
    stats_.setup_s += SecondsBetween(start, engine_built);
    return result;
  }

  /// The body of runtime::RunExperiment, one span per public call.
  runtime::ExperimentResult Traced(const runtime::ExperimentSpec& spec,
                                   const runtime::EngineFactory& factory,
                                   const runtime::FaultFactory& faults,
                                   ProbeOutcome* probe, double* run_s) {
    return Call("bench.experiment", "bench", false, [&] {
      const runtime::StragglerFactory stragglers =
          runtime::NoStragglerFactory();
      auto cluster = Call("runtime.cluster_build", "runtime", true, [&] {
        auto c = std::make_unique<runtime::Cluster>(
            spec.num_workers, spec.calibration,
            stragglers(spec.num_workers),
            faults ? faults(spec.num_workers) : nullptr);
        c->SetObservability(spec.observe);
        return c;
      });
      std::unique_ptr<runtime::Engine> engine =
          Call("runtime.engine_build", "runtime", true,
               [&] { return factory(*cluster, spec.total_batch); });
      runtime::ExperimentResult result;
      result.engine_name = engine->name();
      const bool fela = result.engine_name == "Fela";
      const std::string run_name =
          fela ? "core.fela_engine.run"
               : "baselines." + Lower(result.engine_name) + ".run";
      const Clock::time_point run_start = Clock::now();
      result.stats = Call(run_name.c_str(),
                          fela ? "core/fela_engine" : "baselines", false,
                          [&] { return engine->Run(spec.iterations); });
      *run_s = SecondsBetween(run_start, Clock::now());
      Call("bench.probe", "bench", false,
           [&] { Probe(*engine, *cluster, probe); });
      result.average_throughput =
          result.stats.EffectiveThroughput(spec.total_batch);
      result.gpu_utilization =
          result.stats.total_gpu_busy /
          (static_cast<double>(spec.num_workers) * result.stats.total_time);
      if (spec.observe) {
        result.observed = true;
        result.attribution = Call(
            "runtime.attribution.build", "runtime/attribution", false, [&] {
              return obs::BuildAttribution(result.engine_name,
                                           spec.num_workers,
                                           cluster->spans().spans(),
                                           result.stats.iterations);
            });
        Call("runtime.metrics.fill", "runtime/attribution", false, [&] {
          obs::FillRunMetrics(result.engine_name, result.stats,
                              result.attribution, &cluster->metrics());
        });
        result.metrics = cluster->metrics();
        result.chrome_trace =
            Call("sim.chrome_trace.render", "sim/chrome_trace", false, [&] {
              return obs::ChromeTraceString(cluster->spans(),
                                            &cluster->trace(),
                                            spec.num_workers);
            });
        result.binary_trace =
            Call("sim.trace_io.serialize", "sim/trace_io", false, [&] {
              return obs::SerializeBinaryTrace(
                  cluster->spans(), &cluster->trace(), spec.num_workers);
            });
      }
      return result;
    });
  }

  static std::string Lower(std::string s) {
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    return s;
  }

  void Account(const runtime::ExperimentResult& result,
               const ProbeOutcome& probe, double run_s) {
    stats_.run_s += run_s;
    stats_.sim_iters += result.stats.iteration_count();
    std::map<std::string, double>& m = stats_.layer;
    m["sim.events"] += static_cast<double>(probe.events);
    m["sim.run_s"] += run_s;
    m["sim.fabric.data_transfers"] += static_cast<double>(probe.transfers);
    m["sim.fabric.cross_rack_transfers"] +=
        static_cast<double>(probe.cross_rack);
    m["sim.fabric.control_messages"] +=
        static_cast<double>(probe.control_messages);
    m["sim.fabric.control_dropped"] +=
        static_cast<double>(probe.control_dropped);
    const runtime::FaultStats& f = result.stats.faults;
    m["sim.faults.ts_failovers"] += static_cast<double>(f.ts_failovers);
    m["sim.faults.ts_checkpoints"] += static_cast<double>(f.ts_checkpoints);
    m["sim.faults.leases_restored"] += static_cast<double>(f.leases_restored);
    m["sim.faults.request_retries"] += static_cast<double>(f.request_retries);
    m["sim.faults.tokens_reclaimed"] +=
        static_cast<double>(f.tokens_reclaimed);
    if (result.observed) {
      m["sim.span.count"] += static_cast<double>(probe.spans);
      m["sim.chrome_trace.bytes"] +=
          static_cast<double>(result.chrome_trace.size());
      m["sim.trace_io.bytes"] +=
          static_cast<double>(result.binary_trace.size());
    }
    if (probe.fela) {
      m["core.ts.grants"] += static_cast<double>(probe.ts.grants);
      m["core.ts.enqueued_waits"] +=
          static_cast<double>(probe.ts.enqueued_waits);
      m["core.ts.steals"] += static_cast<double>(probe.ts.steals);
      m["core.ts.cross_shard_steals"] +=
          static_cast<double>(probe.ts.cross_shard_steals);
      m["core.ts.conflicts"] += static_cast<double>(probe.ts.conflicts);
      m[probe.ts_shards > 1 ? "core.fela_engine.sharded_run_s"
                            : "core.fela_engine.single_shard_run_s"] += run_s;
    }
  }

  void Check(const std::string& label, const runtime::ExperimentResult& result,
             const ProbeOutcome& probe, const std::string& fingerprint) {
    RunState& run = *run_;
    std::vector<std::string> problems = probe.violations;
    Pin got;
    got.fingerprint = fingerprint;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", result.average_throughput);
    got.throughput = buf;
    std::snprintf(buf, sizeof(buf), "%.3f", result.stats.total_time);
    got.sim_seconds = buf;
    got.events = probe.events;
    got.transfers = probe.transfers;

    auto first = run.first_fingerprint.find(label);
    if (first == run.first_fingerprint.end()) {
      run.first_fingerprint[label] = fingerprint;
      run.recorded.emplace_back(label, got);
    } else if (first->second != fingerprint) {
      problems.push_back("fingerprint " + fingerprint +
                         " differs from this run's first pass " +
                         first->second);
    }
    if (run.pins_apply) {
      auto pin = run.pins.find(label);
      if (pin != run.pins.end() && run.opts.wrong_pin) {
        // Self-test: corrupt this experiment's pin for the whole run.
        std::string& fp = pin->second.fingerprint;
        fp.back() = fp.back() == '0' ? '1' : '0';
        run.opts.wrong_pin = false;
      }
      if (pin == run.pins.end()) {
        problems.push_back("no pin for this experiment");
      } else if (!(pin->second == got)) {
        problems.push_back("pinned " + pin->second.ToString() + ", got " +
                           got.ToString());
      }
    }
    Verify(label, problems);
  }

  RunState* run_;
  int index_;
  Tracer* tracer_;
  PassStats stats_;
};

// ---------------------------------------------------------------------
// Workloads

sim::Topology RackedTopology() {
  // 32-node racks, 40 Gbps uplinks, 5 us per ToR<->agg hop: the fabric
  // of bench_scale_workers.
  return sim::Topology::Racked(32, common::GbpsToBytesPerSec(40.0), 5e-6);
}

int PartitionLevels(Pass& pass, const model::Model& model) {
  return pass.Call("model.partition", "model", true, [&] {
    return static_cast<int>(
        model::BinPartitioner()
            .Partition(model, model::ProfileRepository::Default())
            .size());
  });
}

model::Model BuildModel(Pass& pass, model::Model (*zoo)()) {
  return pass.Call("model.zoo", "model", true, zoo);
}

/// Fela at 1024 workers, weak-scaled, racked fabric, auto TS sharding.
void ScalePass(Pass& pass) {
  const bool tiny = pass.opts().tiny;
  const int workers = tiny ? 64 : 1024;
  const model::Model model = BuildModel(pass, model::zoo::Vgg19);
  const int levels = PartitionLevels(pass, model);
  runtime::ExperimentSpec spec;
  spec.total_batch = 16.0 * workers;
  spec.iterations = tiny ? 2 : 20;
  spec.num_workers = workers;
  spec.calibration.topology = RackedTopology();
  core::FelaConfig cfg = core::FelaConfig::Defaults(levels, workers);
  cfg.ts_shards = 0;
  pass.Experiment(std::string(tiny ? "tiny/" : "") + "scale-1024/Fela", spec,
                  suite::FelaFactory(model, cfg));
}

/// The Fig. 8 grid: per point, tuning then DP, MP, HP and tuned Fela.
/// The seed shuffles the order of the points.
void PaperPass(Pass& pass) {
  const bool tiny = pass.opts().tiny;
  struct Case {
    const char* name;
    model::Model model;
    std::vector<double> batches;
  };
  std::vector<Case> cases;
  cases.push_back({"VGG19", BuildModel(pass, model::zoo::Vgg19),
                   tiny ? std::vector<double>{256}
                        : std::vector<double>{64, 128, 256, 512, 1024}});
  if (!tiny) {
    cases.push_back({"GoogLeNet", BuildModel(pass, model::zoo::GoogLeNet),
                     {128, 256, 512, 1024, 2048}});
  }
  std::vector<int> levels;
  for (const Case& c : cases) levels.push_back(PartitionLevels(pass, c.model));

  std::vector<std::pair<size_t, double>> points;
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    for (double batch : cases[ci].batches) points.emplace_back(ci, batch);
  }
  common::Rng rng(pass.opts().seed);
  rng.Shuffle(points);

  const int workers = 8;
  for (const auto& [ci, batch] : points) {
    const Case& c = cases[ci];
    const core::TuningReport report =
        pass.Call("core.tuning.warmup", "core/tuning", true, [&] {
          return suite::TuneFela(c.model, batch, workers, tiny ? 1 : 5);
        });
    pass.stats().layer["core.tuning.cases"] +=
        static_cast<double>(report.cases.size());
    runtime::ExperimentSpec spec;
    spec.total_batch = batch;
    spec.iterations = tiny ? 3 : 100;
    spec.num_workers = workers;
    char prefix[64];
    std::snprintf(prefix, sizeof(prefix), "%spaper-8/%s@%g/",
                  tiny ? "tiny/" : "", c.name, batch);
    const std::string p = prefix;
    // The tuned config must carry one weight per partition level.
    if (static_cast<int>(report.best_config.weights.size()) == levels[ci]) {
      pass.Verify(p + "tuning", {});
    } else {
      pass.Verify(p + "tuning", {"tuned config has the wrong weight count"});
    }
    pass.Experiment(p + "DP", spec, suite::DpFactory(c.model));
    pass.Experiment(p + "MP", spec, suite::MpFactory(c.model));
    pass.Experiment(p + "HP", spec, suite::HpFactory(c.model));
    pass.Experiment(p + "Fela", spec,
                    suite::FelaFactory(c.model, report.best_config));
  }
}

/// Observed run under a composite fault schedule; the seed drives the
/// lossy control plane's draws.
void ChaosPass(Pass& pass) {
  const bool tiny = pass.opts().tiny;
  const int workers = tiny ? 64 : 128;
  const uint64_t seed = pass.opts().seed;
  const model::Model model = BuildModel(pass, model::zoo::Vgg19);
  const int levels = PartitionLevels(pass, model);
  runtime::ExperimentSpec spec;
  spec.total_batch = 16.0 * workers;
  spec.iterations = tiny ? 1 : 20;
  spec.num_workers = workers;
  spec.calibration.topology = RackedTopology();
  spec.observe = true;
  const runtime::FaultFactory faults =
      [seed](int n) -> std::unique_ptr<sim::FaultSchedule> {
    std::vector<std::unique_ptr<sim::FaultSchedule>> parts;
    // The TS host (worker 0) crashes at 2 s and recovers at 12 s.
    parts.push_back(std::make_unique<sim::ScriptedCrashes>(
        std::vector<sim::CrashEvent>{{0, 2.0, 12.0}}));
    // [4 s, 8 s): the lower half of the cluster loses the upper half.
    sim::PartitionEvent cut;
    cut.start = 4.0;
    cut.end = 8.0;
    for (int w = 0; w < n / 2; ++w) cut.side_a.push_back(w);
    parts.push_back(std::make_unique<sim::NetworkPartition>(
        std::vector<sim::PartitionEvent>{cut}));
    // Worker 3's control latency is 4x over [5 s, 30 s).
    parts.push_back(std::make_unique<sim::GrayFailures>(
        std::vector<sim::GrayEvent>{{3, 5.0, 30.0, 4.0}}));
    parts.push_back(
        std::make_unique<sim::LossyControlPlane>(0.01, 0.01, seed));
    return std::make_unique<sim::CompositeFaults>(std::move(parts));
  };
  const std::string p =
      tiny ? "tiny/chaos-observed-128/" : "chaos-observed-128/";
  core::FelaConfig sharded = core::FelaConfig::Defaults(levels, workers);
  sharded.ts_shards = 0;
  core::FelaConfig single = sharded;
  single.ts_shards = 1;
  pass.Experiment(p + "Fela-shards-auto", spec,
                  suite::FelaFactory(model, sharded), faults);
  pass.Experiment(p + "Fela-shards-1", spec, suite::FelaFactory(model, single),
                  faults);
  pass.Experiment(p + "DP", spec, suite::DpFactory(model), faults);
}

struct Workload {
  const char* name;
  bool seed_changes_results;  // the pins hold only at kDefaultSeed
  void (*pass)(Pass&);
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"scale-1024", false, ScalePass},
      {"paper-8", false, PaperPass},
      {"chaos-observed-128", true, ChaosPass},
  };
  return kWorkloads;
}

// ---------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Per-layer metrics of one traced pass, every name present.
std::vector<Metric> LayerMetrics(const PassStats& s) {
  auto get = [&s](const std::string& key) {
    auto it = s.layer.find(key);
    return it == s.layer.end() ? 0.0 : it->second;
  };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double grants = get("core.ts.grants");
  return {
      {"model.partition_s", "s", get("model.partition_s")},
      {"core.tuning.warmup_s", "s", get("core.tuning.warmup_s")},
      {"core.tuning.cases", "count", get("core.tuning.cases")},
      {"core.ts.grants", "count", grants},
      {"core.ts.enqueued_waits", "count", get("core.ts.enqueued_waits")},
      {"core.ts.steals", "count", get("core.ts.steals")},
      {"core.ts.cross_shard_steals", "count",
       get("core.ts.cross_shard_steals")},
      {"core.ts.conflicts", "count", get("core.ts.conflicts")},
      {"core.ts.waits_per_grant", "ratio",
       ratio(get("core.ts.enqueued_waits"), grants)},
      {"core.ts.host_us_per_grant", "us",
       1e6 * ratio(get("core.fela_engine.run_s"), grants)},
      {"core.fela_engine.run_s", "s", get("core.fela_engine.run_s")},
      {"core.fela_engine.sharded_run_s", "s",
       get("core.fela_engine.sharded_run_s")},
      {"core.fela_engine.single_shard_run_s", "s",
       get("core.fela_engine.single_shard_run_s")},
      {"baselines.dp.run_s", "s", get("baselines.dp.run_s")},
      {"baselines.mp.run_s", "s", get("baselines.mp.run_s")},
      {"baselines.hp.run_s", "s", get("baselines.hp.run_s")},
      {"runtime.engine_build_s", "s", get("runtime.engine_build_s")},
      {"runtime.cluster_build_s", "s", get("runtime.cluster_build_s")},
      {"sim.events", "count", get("sim.events")},
      {"sim.host_us_per_event", "us",
       1e6 * ratio(get("sim.run_s"), get("sim.events"))},
      {"sim.fabric.data_transfers", "count", get("sim.fabric.data_transfers")},
      {"sim.fabric.cross_rack_transfers", "count",
       get("sim.fabric.cross_rack_transfers")},
      {"sim.fabric.control_messages", "count",
       get("sim.fabric.control_messages")},
      {"sim.fabric.control_dropped", "count",
       get("sim.fabric.control_dropped")},
      {"sim.faults.ts_failovers", "count", get("sim.faults.ts_failovers")},
      {"sim.faults.ts_checkpoints", "count", get("sim.faults.ts_checkpoints")},
      {"sim.faults.leases_restored", "count",
       get("sim.faults.leases_restored")},
      {"sim.faults.request_retries", "count",
       get("sim.faults.request_retries")},
      {"sim.faults.tokens_reclaimed", "count",
       get("sim.faults.tokens_reclaimed")},
      {"runtime.attribution.build_s", "s", get("runtime.attribution.build_s")},
      {"runtime.metrics.fill_s", "s", get("runtime.metrics.fill_s")},
      {"sim.chrome_trace.render_s", "s", get("sim.chrome_trace.render_s")},
      {"sim.chrome_trace.bytes", "bytes", get("sim.chrome_trace.bytes")},
      {"sim.trace_io.serialize_s", "s", get("sim.trace_io.serialize_s")},
      {"sim.trace_io.bytes", "bytes", get("sim.trace_io.bytes")},
      {"runtime.determinism.transcript_s", "s",
       get("runtime.determinism.transcript_s")},
      {"sim.span.count", "count", get("sim.span.count")},
  };
}

/// Self time per layer over the traced passes: a span's duration minus
/// the part its child spans cover, summed by layer, per pass.
void PrintSelfTimeTable(const std::vector<SpanRecord>& spans, int passes) {
  std::vector<double> child(spans.size(), 0.0);
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) child[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, std::pair<double, int>> by_layer;
  double total = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double self = spans[i].end - spans[i].start - child[i];
    by_layer[spans[i].layer].first += self;
    by_layer[spans[i].layer].second += 1;
    total += self;
  }
  std::vector<std::pair<std::string, std::pair<double, int>>> rows(
      by_layer.begin(), by_layer.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.first > b.second.first;
  });
  std::printf(
      "\nself time per layer, as measured (mean of %d traced passes):\n",
      passes);
  std::printf("  %-22s %10s %12s %7s\n", "layer", "spans", "self_s", "share");
  for (const auto& [layer, v] : rows) {
    std::printf("  %-22s %10.0f %12.6f %6.1f%%\n", layer.c_str(),
                static_cast<double>(v.second) / passes, v.first / passes,
                total > 0.0 ? 100.0 * v.first / total : 0.0);
  }
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  out << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"pass\":%d,"
                  "\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d}%s\n",
                  i, s.name.c_str(), s.layer.c_str(), s.pass, s.start, s.end,
                  s.parent, i + 1 < spans.size() ? "," : "");
    out << buf;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

/// Seconds the calibration kernel takes on the machine the baseline
/// was recorded on (see README.md); times are reported in these units.
constexpr double kReferenceCalibrationS = 0.1;

/// Fixed reference work, timed before every pass. Its time tracks how
/// fast the host runs simulator-like code at the moment: a 16 MB pointer
/// chase, hash-map churn, a priority queue and string formatting, which
/// slow down under other tenants' cache and core contention much as the
/// simulator does. The chase array is mmap'd and unmapped again so the
/// kernel leaves malloc's state alone, and the other parts stay below
/// malloc's mmap threshold.
double CalibrationSeconds() {
  constexpr uint32_t kSlots = 1u << 22;
  const size_t bytes = kSlots * sizeof(uint32_t);
  void* mem = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    std::perror("perfbench: mmap");
    std::exit(1);
  }
  uint32_t* next = static_cast<uint32_t*>(mem);
  // A full-period LCG over 2^22 slots: one cycle through every slot.
  for (uint32_t i = 0; i < kSlots; ++i) {
    next[i] = (i * 2654435765u + 12345u) & (kSlots - 1);
  }
  const Clock::time_point start = Clock::now();
  uint32_t at = 0;
  for (int i = 0; i < 400000; ++i) at = next[at];
  uint64_t x = at;
  auto draw = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 11;
  };
  std::unordered_map<uint64_t, uint64_t> map;
  for (int i = 0; i < 200000; ++i) {
    map[draw() % 8192] += static_cast<uint64_t>(i);
    if (i % 3 == 0) map.erase(draw() % 8192);
  }
  std::priority_queue<double> queue;
  for (int i = 0; i < 200000; ++i) {
    queue.push(static_cast<double>(draw() % 1000003));
    if (queue.size() > 8192) queue.pop();
  }
  std::string text;
  char buf[64];
  for (int i = 0; i < 100000; ++i) {
    std::snprintf(buf, sizeof(buf), "{\"ts\":%.3f,\"id\":%d},",
                  queue.top() * 1e-3, i);
    text += buf;
    if (text.size() > (32u << 10)) text.clear();
  }
  const double seconds = SecondsBetween(start, Clock::now());
  munmap(mem, bytes);
  volatile size_t sink = text.size() + map.size() + queue.size();
  (void)sink;
  return seconds;
}

/// Restarts VmHWM at the current resident set (Linux >= 4.0), so a
/// pass's peak excludes the calibration kernel before it.
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set of this program, from /proc/self/status VmHWM.
/// (getrusage's ru_maxrss is no good here: Linux carries it across exec,
/// so it would report the launching interpreter's footprint when that
/// is larger.) Returns 0 where /proc is unavailable.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void PrintResult(const RunState& run, bool correct,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  char buf[128];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                run.attempted, run.failed);
  json += buf;
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: fela_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --pins FILE [--spans-out FILE] [--tiny] "
               "[--wrong-pin] [--record-pins FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  double seconds = 10.0;
  int trace = 0;
  std::string pins_path;
  std::string spans_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(Usage());
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value());
    } else if (arg == "--pins") {
      pins_path = value();
    } else if (arg == "--spans-out") {
      spans_out = value();
    } else if (arg == "--record-pins") {
      opts.record_pins = value();
    } else if (arg == "--tiny") {
      opts.tiny = true;
    } else if (arg == "--wrong-pin") {
      opts.wrong_pin = true;
    } else {
      return Usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (opts.workload == w.name) workload = &w;
  }
  if (workload == nullptr || (trace != 0 && trace != 1) || pins_path.empty()) {
    return Usage();
  }

  const Clock::time_point origin = Clock::now();
  RunState run;
  run.opts = opts;
  if (!ReadPins(pins_path, &run.pins)) {
    std::fprintf(stderr, "perfbench: cannot read pins from %s\n",
                 pins_path.c_str());
    return 2;
  }
  run.pins_apply =
      opts.record_pins.empty() &&
      (!workload->seed_changes_results || opts.seed == kDefaultSeed);
  if (trace == 1) run.tracer = std::make_unique<Tracer>(origin);

  // Warm-up: lazily built singletons (profile repository, token
  // registry) and the allocator's first growth are paid here, not in a
  // timed pass. Its experiments are checked like every other.
  int pass_index = 0;
  {
    Pass warm(&run, pass_index++, false);
    workload->pass(warm);
  }
  if (!opts.record_pins.empty()) {
    std::ofstream out(opts.record_pins);
    out << "# label fnv1a64(FELADET1) samples/s sim_s events transfers\n";
    for (const auto& [label, pin] : run.recorded) {
      out << label << ' ' << pin.ToString() << '\n';
    }
    std::printf("recorded %zu pins to %s\n", run.recorded.size(),
                opts.record_pins.c_str());
    return out ? 0 : 1;
  }

  // Timed passes until the budget is spent; traced runs alternate an
  // untraced and a traced pass so both see the same machine state.
  std::vector<PassStats> untraced, traced;
  const Clock::time_point start = Clock::now();
  const int min_each = 3;
  while (SecondsBetween(start, Clock::now()) < seconds ||
         static_cast<int>(untraced.size()) < min_each ||
         (trace == 1 && static_cast<int>(traced.size()) < min_each)) {
    for (int t = 0; t <= trace; ++t) {
      Pass pass(&run, pass_index++, t == 1);
      pass.stats().calibration_s = CalibrationSeconds();
      ResetPeakRss();
      const Clock::time_point pass_start = Clock::now();
      if (pass.traced()) {
        const int root =
            run.tracer->Open("bench.pass", "bench", pass_index - 1);
        workload->pass(pass);
        run.tracer->Close(root);
      } else {
        workload->pass(pass);
      }
      pass.stats().wall_s = SecondsBetween(pass_start, Clock::now());
      pass.stats().peak_rss_mb = PeakRssMb();
      (t == 1 ? traced : untraced).push_back(pass.stats());
    }
  }

  // Times are reported in calibration units: each pass's seconds times
  // kReferenceCalibrationS / the calibration kernel's seconds just before
  // it, so they read as seconds on the baseline machine. Other tenants
  // slow a pass by up to ~1.7x for minutes at a time; they slow the
  // kernel alike, and the ratio stays put (README.md, "Statistic").
  auto column = [](const std::vector<PassStats>& passes, auto field) {
    std::vector<double> v;
    for (const PassStats& p : passes) v.push_back(field(p));
    return v;
  };
  const auto scale = [](const PassStats& p) {
    return kReferenceCalibrationS / p.calibration_s;
  };
  const auto wall = [&scale](const PassStats& p) {
    return p.wall_s * scale(p);
  };
  const double wall_s = Quantile(column(untraced, wall), 0.5);
  const bool correct = run.failed == 0;
  const double failed_frac =
      run.attempted > 0 ? static_cast<double>(run.failed) / run.attempted : 1.0;

  std::printf("perfbench %s seed=%" PRIu64 "%s: %zu untraced + %zu traced "
              "timed passes (+1 warm-up), %" PRIu64 " experiments, %" PRIu64
              " failed\n",
              workload->name, opts.seed, opts.tiny ? " tiny" : "",
              untraced.size(), traced.size(), run.attempted, run.failed);
  std::printf("pins %s\n",
              run.pins_apply ? "checked" : "not applicable at this seed");
  const std::vector<double> calibration = column(
      untraced, [](const PassStats& p) { return p.calibration_s; });
  std::printf("calibration kernel: median %.6f s, min %.6f, max %.6f "
              "(reference %.3f s)\n",
              Quantile(calibration, 0.5), Quantile(calibration, 0.0),
              Quantile(calibration, 1.0), kReferenceCalibrationS);

  std::vector<Metric> metrics;
  if (trace == 0) {
    struct Column {
      const char* name;
      const char* unit;
      std::vector<double> raw;     // as measured
      std::vector<double> scaled;  // in calibration units: reported
    };
    const auto rate = [](const PassStats& p) { return p.sim_iters / p.run_s; };
    const std::vector<Column> columns = {
        {"wall_s", "s",
         column(untraced, [](const PassStats& p) { return p.wall_s; }),
         column(untraced, wall)},
        {"setup_s", "s",
         column(untraced, [](const PassStats& p) { return p.setup_s; }),
         column(untraced,
                [&](const PassStats& p) { return p.setup_s * scale(p); })},
        {"sim_iters_per_host_s", "1/s", column(untraced, rate),
         column(untraced,
                [&](const PassStats& p) { return rate(p) / scale(p); })},
    };
    std::printf("\n%-22s %14s %6s  %s\n", "end-to-end", "median", "unit",
                "(as measured: median, min, max of n passes)");
    for (const Column& c : columns) {
      metrics.push_back({c.name, c.unit, Quantile(c.scaled, 0.5)});
      std::printf("%-22s %14.6f %6s  (%.6f, %.6f, %.6f of %zu)\n", c.name,
                  metrics.back().value, c.unit, Quantile(c.raw, 0.5),
                  Quantile(c.raw, 0.0), Quantile(c.raw, 1.0), c.raw.size());
    }
    metrics.push_back(
        {"peak_rss_mb", "MB",
         Quantile(column(untraced,
                         [](const PassStats& p) { return p.peak_rss_mb; }),
                  1.0)});
    std::printf("%-22s %14.6f %6s  (max over passes)\n", "peak_rss_mb",
                metrics.back().value, "MB");
    std::printf("%-22s %14.6f %6s\n", "failed_frac", failed_frac, "ratio");
  } else {
    // Per-layer: medians over the traced passes, times in calibration
    // units; counts are identical on every pass, so their median is the
    // count.
    std::vector<std::vector<Metric>> per_pass;
    for (const PassStats& p : traced) {
      per_pass.push_back(LayerMetrics(p));
      for (Metric& m : per_pass.back()) {
        if (m.unit == "s" || m.unit == "us") m.value *= scale(p);
      }
    }
    metrics = per_pass.front();
    for (size_t i = 0; i < metrics.size(); ++i) {
      std::vector<double> v;
      for (const auto& pm : per_pass) v.push_back(pm[i].value);
      metrics[i].value = Quantile(v, 0.5);
    }
    const double traced_wall = Quantile(column(traced, wall), 0.5);
    metrics.push_back({"bench.trace_overhead_s", "s", traced_wall - wall_s});
    std::printf("wall_s traced %.6f, untraced %.6f; every traced "
                "fingerprint %s the untraced one\n",
                traced_wall, wall_s,
                correct ? "equals" : "was checked against");
    PrintSelfTimeTable(run.tracer->spans(), static_cast<int>(traced.size()));
    std::printf("\n%-36s %16s %6s\n", "per-layer", "median", "unit");
    for (const Metric& m : metrics) {
      std::printf("%-36s %16.6f %6s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (!spans_out.empty()) {
      if (!WriteSpans(spans_out, run.tracer->spans())) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", spans_out.c_str());
        return 1;
      }
      std::printf("wrote %zu spans to %s\n", run.tracer->spans().size(),
                  spans_out.c_str());
    }
  }
  PrintResult(run, correct, metrics);
  return 0;
}
