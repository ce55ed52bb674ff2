#include "baselines/ps_engine.h"

#include "common/logging.h"
#include "model/memory_model.h"

namespace fela::baselines {

PsDpEngine::PsDpEngine(runtime::Cluster* cluster, const model::Model& model,
                       double total_batch, int num_servers)
    : BspEngine(cluster, model, total_batch), num_servers_(num_servers) {
  FELA_CHECK_GE(num_servers, 1);
  FELA_CHECK_LE(num_servers, cluster->num_workers());
  const double per_worker =
      total_batch / static_cast<double>(cluster->num_workers());
  const auto split = model::MemoryModel(cluster_->calibration())
                         .SplitForModel(model_, per_worker);
  micro_batch_ = split.micro_batch;
  micro_steps_ = split.steps;
  compute_seconds_ =
      cost_.RangeSeconds(model_, 0, model_.layer_count() - 1, micro_batch_) *
      static_cast<double>(micro_steps_);
  shard_bytes_ = model_.TotalParams() *
                 cluster_->calibration().bytes_per_scalar /
                 static_cast<double>(num_servers_);
}

void PsDpEngine::StartIteration(int iteration) {
  compute_pending_ = cluster_->num_workers();
  for (int w = 0; w < cluster_->num_workers(); ++w) {
    sim::GpuDevice& gpu = cluster_->gpu(w);
    const double delay = cluster_->stragglers().DelayFor(iteration, w);
    if (delay > 0.0) gpu.BlockUntil(now() + delay);
    const double slowdown = cluster_->stragglers().SlowdownFor(iteration, w);
    gpu.Enqueue(compute_seconds_ * slowdown,
                [this, w] { OnWorkerComputeDone(w); });
  }
}

void PsDpEngine::OnWorkerComputeDone(int worker) {
  // Honest fault contrast: this PS prototype checkpoints nothing and has
  // no elasticity — a worker crash during the iteration aborts the job,
  // and so does losing a worker behind a network partition (the PS at
  // node 0 cannot collect its gradient shard).
  const sim::FaultSchedule& faults = cluster_->faults();
  if (faults.Active() &&
      faults.AnyUnreachableDuring(iteration_start_, now(), worker,
                                  /*anchor=*/0)) {
    ++stats_.faults.crashes;
    stats_.stalled = true;
    return;
  }
  if (--compute_pending_ > 0) return;
  // BSP: everyone pushes gradient shards to the servers.
  sync_begin_ = now();
  transfers_pending_ = cluster_->num_workers() * num_servers_;
  for (int w = 0; w < cluster_->num_workers(); ++w) {
    for (int s = 0; s < num_servers_; ++s) {
      cluster_->fabric().Transfer(w, s, shard_bytes_,
                                  [this] { OnPushDone(); });
    }
  }
}

void PsDpEngine::OnPushDone() {
  if (--transfers_pending_ > 0) return;
  // Servers apply updates (negligible CPU) and every worker pulls.
  transfers_pending_ = cluster_->num_workers() * num_servers_;
  for (int w = 0; w < cluster_->num_workers(); ++w) {
    for (int s = 0; s < num_servers_; ++s) {
      cluster_->fabric().Transfer(s, w, shard_bytes_,
                                  [this] { OnPullDone(); });
    }
  }
}

void PsDpEngine::OnPullDone() {
  if (--transfers_pending_ > 0) return;
  // The whole push/update/pull window is BSP synchronization from every
  // worker's perspective (it outranks the per-shard transfer spans the
  // fabric records, so attribution charges it to sync_wait).
  obs::SpanSink& spans = cluster_->spans();
  if (spans.enabled() && now() > sync_begin_) {
    for (int w = 0; w < cluster_->num_workers(); ++w) {
      spans.Emit(obs::Span{w, obs::Phase::kSyncWait, sync_begin_, now(),
                           current_iteration_, {}});
    }
  }
  FinishIteration();
}

}  // namespace fela::baselines
