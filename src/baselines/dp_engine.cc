#include "baselines/dp_engine.h"

#include <algorithm>

#include "model/memory_model.h"
#include "sim/collectives.h"

namespace fela::baselines {

DpEngine::DpEngine(runtime::Cluster* cluster, const model::Model& model,
                   double total_batch)
    : BspEngine(cluster, model, total_batch) {
  const int n = cluster_->num_workers();
  per_worker_batch_ = total_batch / static_cast<double>(n);
  const auto split = model::MemoryModel(cluster_->calibration())
                         .SplitForModel(model_, per_worker_batch_);
  micro_batch_ = split.micro_batch;
  micro_steps_ = split.steps;
  compute_seconds_ =
      cost_.RangeSeconds(model_, 0, model_.layer_count() - 1, micro_batch_) *
      static_cast<double>(micro_steps_);
  param_bytes_ =
      model_.TotalParams() * cluster_->calibration().bytes_per_scalar;
  attempt_start_.assign(static_cast<size_t>(n), 0.0);
}

void DpEngine::StartIteration(int iteration) {
  workers_pending_ = cluster_->num_workers();
  for (int w = 0; w < cluster_->num_workers(); ++w) {
    const double delay = cluster_->stragglers().DelayFor(iteration, w);
    if (delay > 0.0) cluster_->gpu(w).BlockUntil(now() + delay);
    const double slowdown = cluster_->stragglers().SlowdownFor(iteration, w);
    EnqueueCompute(w, compute_seconds_ * slowdown);
  }
}

void DpEngine::EnqueueCompute(int worker, double seconds) {
  sim::GpuDevice& gpu = cluster_->gpu(worker);
  // The attempt starts when the device actually picks it up, not at
  // enqueue time — redo attempts queue behind the recovery block.
  attempt_start_[static_cast<size_t>(worker)] = std::max(now(), gpu.free_at());
  gpu.Enqueue(seconds, [this, worker, seconds] {
    OnWorkerComputeDone(worker, seconds);
  });
}

void DpEngine::OnWorkerComputeDone(int worker, double seconds) {
  const sim::FaultSchedule& faults = cluster_->faults();
  if (faults.Active() &&
      faults.AnyUnreachableDuring(attempt_start_[static_cast<size_t>(worker)],
                                  now(), worker, /*anchor=*/0)) {
    // The replica died mid-batch — or a partition hid it from the ring's
    // anchor: its gradient is gone. No membership change is possible
    // under DP, so the whole attempt is redone once the node is back and
    // reachable — or never, stalling the barrier.
    ++stats_.faults.crashes;
    const sim::SimTime up =
        faults.NextReachableAfter(now(), worker, /*anchor=*/0);
    if (sim::IsNever(up)) {
      stats_.stalled = true;
      return;  // peers wait at the barrier forever
    }
    ++stats_.faults.recoveries;
    if (up > now()) cluster_->gpu(worker).BlockUntil(up, obs::Phase::kCrashed);
    EnqueueCompute(worker, seconds);
    return;
  }
  if (--workers_pending_ > 0) return;
  // BSP barrier reached; synchronize all parameters.
  std::vector<sim::NodeId> all;
  for (int i = 0; i < cluster_->num_workers(); ++i) all.push_back(i);
  sim::AllReduce(&cluster_->simulator(), &cluster_->fabric(), std::move(all),
                 param_bytes_, [this] { FinishIteration(); },
                 &cluster_->spans());
}

}  // namespace fela::baselines
