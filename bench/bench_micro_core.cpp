// Microbenchmarks of the scheduling-path data structures (google-benchmark):
// event queue churn, token-bucket selection under ADS, locality scoring,
// and a full simulated Fela iteration. These bound the *scheduling*
// overhead Fela adds per token — the paper argues it is negligible next
// to training compute.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/tokenize.h"
#include "core/fela_engine.h"
#include "core/token_bucket.h"
#include "model/zoo.h"
#include "runtime/cluster.h"
#include "runtime/determinism.h"
#include "runtime/sweep.h"
#include "sim/simulator.h"
#include "sim/trace_io.h"
#include "suite/suite.h"
#include "testing/observability_reference.h"

namespace {

using namespace fela;

// The pre-slab EventQueue (priority_queue of std::function events plus
// two unordered_sets for cancel bookkeeping), kept verbatim as the
// before/after baseline for the slab + generation-tag rework. The BENCH
// baseline pins the comparison: BM_EventQueue* must beat BM_Legacy* by
// >= 2x on the push/pop path.
class LegacyEventQueue {
 public:
  sim::EventId Push(sim::SimTime when, std::function<void()> fn) {
    const sim::EventId id = next_id_++;
    heap_.push(Event{when, id, std::move(fn)});
    pending_.insert(id);
    ++size_;
    return id;
  }

  bool Cancel(sim::EventId id) {
    if (pending_.erase(id) == 0) return false;
    cancelled_.insert(id);
    --size_;
    return true;
  }

  bool empty() const { return size_ == 0; }

  std::pair<sim::SimTime, std::function<void()>> Pop() {
    SkipCancelled();
    Event& top = const_cast<Event&>(heap_.top());
    std::pair<sim::SimTime, std::function<void()>> out{top.when,
                                                       std::move(top.fn)};
    pending_.erase(top.id);
    heap_.pop();
    --size_;
    return out;
  }

 private:
  struct Event {
    sim::SimTime when;
    sim::EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (!sim::TimeEq(a.when, b.when)) return a.when > b.when;
      return a.id > b.id;
    }
  };

  void SkipCancelled() {
    while (!heap_.empty()) {
      auto found = cancelled_.find(heap_.top().id);
      if (found == cancelled_.end()) return;
      cancelled_.erase(found);
      heap_.pop();
    }
  }

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::unordered_set<sim::EventId> pending_;
  std::unordered_set<sim::EventId> cancelled_;
  sim::EventId next_id_ = 1;
  size_t size_ = 0;
};

template <typename Queue>
void EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Queue q;
    for (int i = 0; i < n; ++i) {
      q.Push(static_cast<double>((i * 2654435761u) % 1000), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.Pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueuePushPop<sim::EventQueue>(state);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024)->Arg(16384);

void BM_LegacyEventQueuePushPop(benchmark::State& state) {
  EventQueuePushPop<LegacyEventQueue>(state);
}
BENCHMARK(BM_LegacyEventQueuePushPop)->Arg(64)->Arg(1024)->Arg(16384);

// Cancel-dominated churn: the retry-timer pattern (arm a future event,
// cancel it, re-arm) over a base of long-lived events. Exercises the
// O(1) slab cancel against the legacy hash-set bookkeeping, and the
// compaction that keeps the heap from accreting dead entries.
template <typename Queue>
void EventQueueCancelHeavy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Queue q;
    for (int i = 0; i < 16; ++i) q.Push(1e9 + i, [] {});
    for (int i = 0; i < n; ++i) {
      auto id = q.Push(1e6 + i, [] {});
      benchmark::DoNotOptimize(q.Cancel(id));
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.Pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  EventQueueCancelHeavy<sim::EventQueue>(state);
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(1024)->Arg(16384);

void BM_LegacyEventQueueCancelHeavy(benchmark::State& state) {
  EventQueueCancelHeavy<LegacyEventQueue>(state);
}
BENCHMARK(BM_LegacyEventQueueCancelHeavy)->Arg(1024)->Arg(16384);

// The pipeline-baseline load: 8 devices, each with 512 completions
// queued at once, finishing in order at its own pace. Through
// PushInLane only the 8 lane heads sit in the heap; the Push twin
// carries the same events in a 4096-deep heap. One queue serves every
// round, as one serves a whole simulation, so the rounds after the
// first run on warm rings and slab.
template <bool kInLane>
void EventQueueLaneLoad(benchmark::State& state) {
  constexpr int kLanes = 8;
  constexpr int kPending = 512;
  sim::EventQueue q;
  sim::LaneId lanes[kLanes] = {};
  for (auto _ : state) {
    for (int k = 1; k <= kPending; ++k) {
      for (int l = 0; l < kLanes; ++l) {
        const double when = k * (1.0 + 0.125 * l);
        if constexpr (kInLane) {
          q.PushInLane(lanes[l], when, [] {});
        } else {
          q.Push(when, [] {});
        }
      }
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.Pop());
  }
  state.SetItemsProcessed(state.iterations() * kLanes * kPending);
}

void BM_EventQueueLanes(benchmark::State& state) {
  EventQueueLaneLoad<true>(state);
}
BENCHMARK(BM_EventQueueLanes);

void BM_EventQueueLanesViaPush(benchmark::State& state) {
  EventQueueLaneLoad<false>(state);
}
BENCHMARK(BM_EventQueueLanesViaPush);

void BM_SimulatorEventChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int remaining = n;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.Schedule(1e-6, tick);
    };
    sim.Schedule(0.0, tick);
    sim.Run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulatorEventChain)->Arg(1000)->Arg(100000);

void BM_TokenBucketAdsTake(benchmark::State& state) {
  const int tokens = static_cast<int>(state.range(0));
  core::InfoMapping info;
  for (int i = 0; i < tokens; ++i) {
    info.RecordCompleted(i, i % 8);
  }
  for (auto _ : state) {
    state.PauseTiming();
    core::TokenBucket bucket;
    for (int i = 0; i < tokens; ++i) {
      core::Token t;
      t.id = tokens + i;
      t.level = 1;
      t.batch = 32;
      t.deps = {{i, 16.0}, {(i + 1) % tokens, 16.0}};
      bucket.Add(std::move(t));
    }
    state.ResumeTiming();
    while (!bucket.empty()) {
      benchmark::DoNotOptimize(bucket.Take(3, info, {1}, true));
    }
  }
  state.SetItemsProcessed(state.iterations() * tokens);
}
BENCHMARK(BM_TokenBucketAdsTake)->Arg(8)->Arg(64)->Arg(512);

void BM_LocalityScore(benchmark::State& state) {
  core::InfoMapping info;
  for (int i = 0; i < 64; ++i) info.RecordCompleted(i, i % 8);
  std::vector<core::TokenDep> deps;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    deps.push_back({i, 16.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(info.LocalityScore(3, deps));
  }
}
BENCHMARK(BM_LocalityScore)->Arg(2)->Arg(8)->Arg(32);

void BM_FelaFullIteration(benchmark::State& state) {
  const double batch = static_cast<double>(state.range(0));
  const model::Model m = model::zoo::Vgg19();
  for (auto _ : state) {
    runtime::Cluster cluster(8, sim::Calibration::Default(), nullptr);
    core::FelaConfig cfg = core::FelaConfig::Defaults(3, 8);
    cfg.weights = {1, 2, 4};
    core::FelaEngine engine(&cluster, m, cfg, batch);
    benchmark::DoNotOptimize(engine.Run(1).total_time);
  }
}
BENCHMARK(BM_FelaFullIteration)->Arg(128)->Arg(1024);

// Same iteration with the observability layer armed: spans + trace
// recorded end-to-end. Compare against BM_FelaFullIteration to see the
// cost of observation; the disabled path must stay within noise of the
// pre-observability engine (a null-sink check per hook, no allocation).
void BM_FelaFullIterationObserved(benchmark::State& state) {
  const double batch = static_cast<double>(state.range(0));
  const model::Model m = model::zoo::Vgg19();
  for (auto _ : state) {
    runtime::Cluster cluster(8, sim::Calibration::Default(), nullptr);
    cluster.SetObservability(true);
    core::FelaConfig cfg = core::FelaConfig::Defaults(3, 8);
    cfg.weights = {1, 2, 4};
    core::FelaEngine engine(&cluster, m, cfg, batch);
    benchmark::DoNotOptimize(engine.Run(1).total_time);
    benchmark::DoNotOptimize(cluster.spans().size());
  }
}
BENCHMARK(BM_FelaFullIterationObserved)->Arg(128)->Arg(1024);

// The span sink's hot path in isolation: ring-buffer emit of a span
// carrying a tokenized detail (the production shape after the FELA_TOK
// migration — a trivially-copyable struct store, no allocation),
// including wrap-around eviction once the sink is full. The BENCH
// baseline pins BM_SpanSinkEmit >= 3x BM_LegacySpanSinkEmitText.
void BM_SpanSinkEmit(benchmark::State& state) {
  obs::SpanSink sink(/*capacity=*/4096);
  sink.set_enabled(true);
  double t = 0.0;
  int it = 0;
  for (auto _ : state) {
    sink.Emit(obs::Span{
        0, obs::Phase::kCompute, t, t + 1.0, it,
        common::TokenizedDetail(FELA_TOK("it=%d b=%g"), it, t)});
    t += 1.0;
    ++it;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanSinkEmit);

// The pre-tokenization span path, kept verbatim as the before/after
// baseline: detail is a freshly formatted std::string, so every emit
// pays an StrFormat plus a string copy into the ring.
struct LegacySpan {
  sim::NodeId track = 0;
  obs::Phase phase = obs::Phase::kIdle;
  sim::SimTime begin = 0.0;
  sim::SimTime end = 0.0;
  int iteration = -1;
  std::string detail;
};

class LegacySpanSink {
 public:
  explicit LegacySpanSink(size_t capacity) : capacity_(capacity) {}

  void Emit(LegacySpan span) {
    if (spans_.size() < capacity_) {
      spans_.push_back(std::move(span));
      return;
    }
    spans_[next_] = std::move(span);
    next_ = (next_ + 1) % capacity_;
    ++dropped_;
  }

  size_t size() const { return spans_.size(); }

 private:
  size_t capacity_;
  std::vector<LegacySpan> spans_;
  size_t next_ = 0;
  size_t dropped_ = 0;
};

void BM_LegacySpanSinkEmitText(benchmark::State& state) {
  LegacySpanSink sink(/*capacity=*/4096);
  double t = 0.0;
  int it = 0;
  for (auto _ : state) {
    sink.Emit(LegacySpan{0, obs::Phase::kCompute, t, t + 1.0, it,
                         common::StrFormat("it=%d b=%g", it, t)});
    t += 1.0;
    ++it;
  }
  benchmark::DoNotOptimize(sink.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LegacySpanSinkEmitText);

// The trace recorder's *enabled* tokenized path: what FELA_TRACE costs
// when tracing is on — a fixed-width record store, no formatting.
void BM_TraceRecorderRecord(benchmark::State& state) {
  sim::TraceRecorder trace(/*capacity=*/4096);
  trace.set_enabled(true);
  double t = 0.0;
  int it = 0;
  for (auto _ : state) {
    FELA_TRACE(&trace, t, 0, sim::TraceKind::kTokenGrant,
               FELA_TOK("Token_%lld b=%g"), static_cast<long long>(it), t);
    t += 1.0;
    ++it;
  }
  benchmark::DoNotOptimize(trace.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecorderRecord);

// The pre-tokenization trace recorder, kept as the before/after
// baseline the way LegacySpanSink is: every record stores a freshly
// formatted std::string detail in the ring. The BENCH baseline pins
// BM_TraceRecorderRecord >= 3x BM_LegacyTraceRecorderRecordText.
class LegacyTraceRecorder {
 public:
  explicit LegacyTraceRecorder(size_t capacity) : capacity_(capacity) {}

  void Record(sim::SimTime time, sim::NodeId node, sim::TraceKind kind,
              std::string detail) {
    sim::TraceEvent event{time, node, kind, std::move(detail)};
    if (events_.size() < capacity_) {
      events_.push_back(std::move(event));
      return;
    }
    events_[next_] = std::move(event);
    next_ = (next_ + 1) % capacity_;
    ++dropped_;
  }

  size_t size() const { return events_.size(); }

 private:
  size_t capacity_;
  std::vector<sim::TraceEvent> events_;
  size_t next_ = 0;
  size_t dropped_ = 0;
};

void BM_LegacyTraceRecorderRecordText(benchmark::State& state) {
  LegacyTraceRecorder trace(/*capacity=*/4096);
  double t = 0.0;
  int it = 0;
  for (auto _ : state) {
    trace.Record(t, 0, sim::TraceKind::kTokenGrant,
                 common::StrFormat("Token_%lld b=%g",
                                   static_cast<long long>(it), t));
    t += 1.0;
    ++it;
  }
  benchmark::DoNotOptimize(trace.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LegacyTraceRecorderRecordText);

/// Details shaped like the FELA_TOK sites in src/ (formats and args),
/// rendered in a loop by the two detokenizer benches.
struct DetokCase {
  std::string fmt;
  common::TokArgs args;
};

const std::vector<DetokCase>& DetokCases() {
  static const std::vector<DetokCase>* cases = [] {
    auto* out = new std::vector<DetokCase>();
    const auto add = [out](std::string fmt, auto... args) {
      DetokCase c{std::move(fmt), {}};
      (c.args.Push(args), ...);
      out->push_back(std::move(c));
    };
    add("it=%d", 41);
    add("src=%d seq=%llu", 17, 123456789ULL);
    add("Token_%lld b=%g dur=%.4fs", 1234LL, 32.0, 0.0123456);
    add("Token_%lld b=%g stolen=%d remote_fetches=%zu", 99LL, 12.5, 1,
        size_t{3});
    add("SM-%d %.1fMB among %zu", 7, 574.96, size_t{8});
    add("it=%d d=%.2fs", 12, 4.0);
    return out;
  }();
  return *cases;
}

// The detokenizer as the Chrome exporter runs it: every detail appended
// to one reused buffer, plain conversions through to_chars.
void BM_DetokFormat(benchmark::State& state) {
  const std::vector<DetokCase>& cases = DetokCases();
  std::string out;
  for (auto _ : state) {
    for (const DetokCase& c : cases) {
      out.clear();
      common::AppendDetokFormat(&out, c.fmt, c.args);
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cases.size()));
}
BENCHMARK(BM_DetokFormat);

// The snprintf-only detokenizer it replaced, kept as the test oracle
// (testing::ReferenceDetokFormat): a fresh string per detail, three
// std::string specs per conversion, one append per literal byte.
void BM_LegacyDetokFormat(benchmark::State& state) {
  const std::vector<DetokCase>& cases = DetokCases();
  for (auto _ : state) {
    for (const DetokCase& c : cases) {
      benchmark::DoNotOptimize(
          fela::testing::ReferenceDetokFormat(c.fmt, c.args));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cases.size()));
}
BENCHMARK(BM_LegacyDetokFormat);

// FELATRB1 serialization of a fixed synthetic run: 20K spans and 20K
// trace records, both rings wrapped once so flattening copies two
// ranges. Items are encoded records.
void BM_SerializeBinaryTrace(benchmark::State& state) {
  constexpr int kRecords = 20000;
  obs::SpanSink spans(/*capacity=*/kRecords);
  sim::TraceRecorder trace(/*capacity=*/kRecords);
  spans.set_enabled(true);
  trace.set_enabled(true);
  for (int i = 0; i < kRecords + kRecords / 4; ++i) {
    const double t = 1e-3 * i;
    spans.Emit(obs::Span{i % 128, obs::Phase::kCompute, t, t + 5e-4, i / 128,
                         common::TokenizedDetail(FELA_TOK("it=%d"), i)});
    FELA_TRACE(&trace, t, i % 128, sim::TraceKind::kTokenGrant,
               FELA_TOK("Token_%lld b=%g"), static_cast<long long>(i), 32.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::SerializeBinaryTrace(spans, &trace, 128));
  }
  state.SetItemsProcessed(state.iterations() * 2 * kRecords);
}
BENCHMARK(BM_SerializeBinaryTrace);

/// One observed GoogLeNet run shared by the transcript benches (built
/// once — the benches measure transcript serialization, not the run).
const runtime::ExperimentResult& ObservedResultForTranscripts() {
  static const runtime::ExperimentResult* result = [] {
    runtime::ExperimentSpec spec;
    spec.total_batch = 256;
    spec.iterations = 4;
    spec.observe = true;
    return new runtime::ExperimentResult(runtime::RunExperiment(
        spec,
        suite::FelaFactory(model::zoo::GoogLeNet(),
                           core::FelaConfig::Defaults(3, 8)),
        runtime::NoStragglerFactory()));
  }();
  return *result;
}

// Binary determinism transcript (FELADET1 + FELATRB1): what
// VerifyDeterminism and the bench --verify-determinism gates hash on
// every run pair. Baseline pins >= 3x over BM_TranscriptWriteText.
void BM_TranscriptWrite(benchmark::State& state) {
  const runtime::ExperimentResult& result = ObservedResultForTranscripts();
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::BinaryTranscript(result));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TranscriptWrite);

// The canonical text transcript (StrFormat per scalar + rendered trace
// text), now only produced on divergence for human diffing.
void BM_TranscriptWriteText(benchmark::State& state) {
  const runtime::ExperimentResult& result = ObservedResultForTranscripts();
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::DeterminismTranscript(result));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TranscriptWriteText);

void BM_BinPartition(benchmark::State& state) {
  const model::Model m = model::zoo::Vgg19();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::BinPartitioner().Partition(
        m, model::ProfileRepository::Default()));
  }
}
BENCHMARK(BM_BinPartition);

}  // namespace

// Hand-rolled BENCHMARK_MAIN(): google-benchmark rejects flags it does
// not know, so the sweep-recipe flags shared by the other benches
// (--verify-determinism, --jobs N, and the no-ops --json/--smoke) are
// stripped from argv before benchmark::Initialize sees them.
int main(int argc, char** argv) {
  bool verify = false;
  int jobs = 1;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify-determinism") == 0) {
      verify = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = std::atoi(argv[i] + 7);
    } else if (std::strcmp(argv[i], "--json") == 0 ||
               std::strcmp(argv[i], "--smoke") == 0) {
      // accepted for uniformity with the sweep benches; no effect here
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (jobs <= 0) jobs = fela::runtime::SweepRunner::HardwareJobs();
  if (verify) {
    using namespace fela;
    runtime::ExperimentSpec spec;
    spec.total_batch = 256;
    spec.iterations = 4;
    const runtime::DeterminismReport report = runtime::VerifyDeterminism(
        spec,
        suite::FelaFactory(model::zoo::GoogLeNet(),
                           core::FelaConfig::Defaults(3, 8)),
        runtime::NoStragglerFactory(), /*fault_factory=*/nullptr, jobs);
    std::printf("determinism[micro_core]: %s\n", report.ToString().c_str());
    if (!report.deterministic) return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
