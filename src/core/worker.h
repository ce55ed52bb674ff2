#ifndef FELA_CORE_WORKER_H_
#define FELA_CORE_WORKER_H_

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "core/token.h"
#include "core/token_server.h"
#include "model/cost_model.h"
#include "model/partition.h"
#include "sim/fabric.h"
#include "sim/gpu.h"
#include "sim/span.h"
#include "sim/trace.h"

namespace fela::core {

/// The worker's Parameter Chunks (§III-A): which token outputs are
/// resident in local storage. The token server's Info Mapping mirrors
/// this; the worker-side copy is the ground truth the tests cross-check.
///
/// Stored as a lazily-sorted flat vector rather than a hash set: Store is
/// an O(1) append on the hot compute-done path, and the first observable
/// read after a batch of appends sorts + dedupes once (token regrants
/// after a fault can complete the same id twice on one worker). Iteration
/// order is therefore always sorted — the info_mapping.h guarantee with
/// no per-snapshot copy.
class ParameterChunks {
 public:
  void Store(TokenId token) {
    // Strictly-increasing appends (the common case: token ids are
    // monotonic) keep the vector normalized with no deferred work.
    sorted_ = sorted_ && (held_.empty() || token > held_.back());
    held_.push_back(token);
  }
  bool Has(TokenId token) const {
    Normalize();
    return std::binary_search(held_.begin(), held_.end(), token);
  }
  size_t size() const {
    Normalize();
    return held_.size();
  }
  void Clear() {
    held_.clear();
    sorted_ = true;
  }

  /// Sorted key snapshot (see info_mapping.h): the only sanctioned way
  /// to iterate the held set into anything observable.
  std::vector<TokenId> HeldSorted() const {
    Normalize();
    return held_;
  }

 private:
  void Normalize() const {
    if (sorted_) return;
    std::sort(held_.begin(), held_.end());
    held_.erase(std::unique(held_.begin(), held_.end()), held_.end());
    sorted_ = true;
  }

  mutable std::vector<TokenId> held_;
  mutable bool sorted_ = true;
};

/// Request retransmission policy: the k-th consecutive retry of one
/// request waits JitteredBackoffSec(base, mult, max, k, seed, worker) —
/// exponential backoff with deterministic jitter. base_sec <= 0 disables
/// retries entirely (the fault-free default: no timer events scheduled);
/// mult 1.0 + seed 0 recovers the legacy fixed-interval behaviour.
struct RetryPolicy {
  double base_sec = 0.0;
  double multiplier = 1.0;
  double max_sec = 0.0;  // <= 0: uncapped
  uint64_t jitter_seed = 0;
};

/// How workers reach the token server.
struct WorkerCallbacks {
  /// Send a token request control message to the TS.
  std::function<void(sim::NodeId)> send_request;
  /// Send a completion report (with implicit request) to the TS.
  std::function<void(sim::NodeId, const Token&)> send_report;
};

/// Everything a FelaWorker references that is identical across the
/// engine's workers: simulation handles, the model and its partition,
/// the cost model, observability sinks, and the TS callbacks. Workers
/// hold one pointer to this instead of eight — per-worker hot state
/// shrinks to the scalars in FelaWorker itself, which is what lets a
/// 1k–10k-worker arena stay cache-resident (struct-of-shared +
/// array-of-hot layout). Owned by the engine; must outlive its workers.
struct WorkerContext {
  sim::Simulator* sim = nullptr;
  sim::Fabric* fabric = nullptr;
  const model::Model* model = nullptr;
  const std::vector<model::SubModel>* sub_models = nullptr;
  const model::LayerCostModel* cost = nullptr;
  sim::TraceRecorder* trace = nullptr;
  WorkerCallbacks cbs;
};

/// A Fela worker: Trainer (GPU compute), Coordinator (dependency
/// fetches), and Parameter Chunks. Event-driven; one token in flight at
/// a time (the §III-D combined report+request cycle).
class FelaWorker {
 public:
  using Callbacks = WorkerCallbacks;

  /// `ctx` carries all engine-shared dependencies; `gpu` is this
  /// worker's device.
  FelaWorker(sim::NodeId id, const WorkerContext* ctx, sim::GpuDevice* gpu);

  FelaWorker(const FelaWorker&) = delete;
  FelaWorker& operator=(const FelaWorker&) = delete;

  /// Starts the iteration: applies the injected straggler sleep (the
  /// GPU is blocked for `straggler_delay` seconds, §V-C) and the
  /// iteration's compute slowdown factor, then requests a token unless a
  /// request from the previous iteration is still unanswered.
  void BeginIteration(int iteration, double straggler_delay,
                      double slowdown = 1.0);

  /// A grant arrived from the TS (engine already applied latency and the
  /// grant's extra_delay). Fetches remote dependencies, then trains. A
  /// grant that arrives while the trainer is busy (a duplicate, or one
  /// that raced a retry) is dropped — the TS lease reclaims it.
  void OnGrant(const Grant& grant);

  /// Enables request retransmission: while a request is unanswered,
  /// fresh requests go out on the policy's backoff schedule (covers
  /// requests or grants lost on a lossy control plane or across a
  /// partition). Disabled by default, so fault-free runs schedule no
  /// timer events.
  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }

  /// Convenience: fixed-interval retries every `sec` seconds (no
  /// backoff, no jitter). <= 0 disables.
  void set_retry_timeout(double sec) {
    retry_ = RetryPolicy{sec, 1.0, sec, 0};
  }

  /// The worker process died: whatever was fetching/computing is
  /// discarded (the incarnation guard voids in-flight callbacks) and all
  /// timers stop. Parameter Chunks survive — the fault model keeps bulk
  /// data recoverable from persistent storage (DESIGN.md §Fault model).
  void OnCrash();

  /// Asks the TS for work if idle with no unanswered request (used when
  /// a recovered worker is re-admitted mid-iteration).
  void RequestWork(int iteration);

  /// Run teardown: cancels any pending retry timer and arms none from
  /// now on, so no dangling event keeps the simulator queue alive.
  void Quiesce();

  /// Enables token-wait span emission: the interval from each request
  /// (or report's implicit request) to the accepted grant shows up as a
  /// kTokenWait span on this worker's track.
  void set_span_sink(obs::SpanSink* spans) { spans_ = spans; }

  sim::NodeId id() const { return id_; }
  ParameterChunks& chunks() { return chunks_; }
  const ParameterChunks& chunks() const { return chunks_; }

  // -- Statistics ---------------------------------------------------------
  int tokens_trained() const { return tokens_trained_; }
  double samples_trained() const { return samples_trained_; }
  double bytes_fetched() const { return bytes_fetched_; }
  bool busy() const { return busy_; }
  uint64_t retries() const { return retries_; }
  uint64_t ignored_grants() const { return ignored_grants_; }
  int incarnation() const { return incarnation_; }

 private:
  void StartCompute(Token token);
  void OnComputeDone(Token token);
  void BeginTokenWait();
  void ArmRetryTimer();
  void CancelRetryTimer();
  void OnRetryFire();

  sim::Simulator* sim() const { return ctx_->sim; }
  sim::TraceRecorder* trace() const { return ctx_->trace; }

  sim::NodeId id_;
  const WorkerContext* ctx_;
  sim::GpuDevice* gpu_;
  obs::SpanSink* spans_ = nullptr;
  /// Open from request send to grant accept; lives across simulator
  /// callbacks because the span clock is simulated time.
  std::optional<obs::ScopedSpan> token_wait_;

  ParameterChunks chunks_;
  double slowdown_ = 1.0;
  bool request_outstanding_ = false;
  bool busy_ = false;
  int tokens_trained_ = 0;
  double samples_trained_ = 0.0;
  double bytes_fetched_ = 0.0;
  /// Bumped on every crash; fetch/compute completions captured under an
  /// older incarnation are discarded (the work died with the process).
  int incarnation_ = 0;
  int iteration_ = -1;
  RetryPolicy retry_;
  /// Consecutive retries of the *current* request (backoff exponent);
  /// reset whenever a fresh request cycle starts or a grant lands.
  int retry_attempt_ = 0;
  sim::EventId retry_timer_ = sim::kInvalidEventId;
  bool quiesced_ = false;  // set by Quiesce; blocks ArmRetryTimer
  uint64_t retries_ = 0;
  uint64_t ignored_grants_ = 0;
};

}  // namespace fela::core

#endif  // FELA_CORE_WORKER_H_
