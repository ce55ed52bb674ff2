#include "baselines/mp_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "model/partition.h"

namespace fela::baselines {

namespace {
/// Share of a full training pass spent in the forward direction (the
/// cost model charges fwd + bwd = 3x forward FLOPs).
constexpr double kForwardShare = 1.0 / 3.0;
}  // namespace

MpEngine::MpEngine(runtime::Cluster* cluster, const model::Model& model,
                   double total_batch, double micro_batch)
    : BspEngine(cluster, model, total_batch), micro_batch_(micro_batch) {
  FELA_CHECK_GT(micro_batch, 0.0);
  num_micros_ = std::max(
      1, static_cast<int>(std::ceil(total_batch / micro_batch)));
  const int stages =
      std::min(cluster->num_workers(), model_.layer_count());
  SetStages(model::EqualLayerCountPartition(model_, stages));
}

double MpEngine::MicroBatchOf(int micro) const {
  // Last micro-batch absorbs the remainder.
  if (micro + 1 < num_micros_) return micro_batch_;
  return total_batch_ - micro_batch_ * static_cast<double>(num_micros_ - 1);
}

void MpEngine::SetStages(std::vector<std::pair<int, int>> stages) {
  stages_ = std::move(stages);
  const double last = MicroBatchOf(num_micros_ - 1);
  stage_cost_.clear();
  for (const auto& [lo, hi] : stages_) {
    stage_cost_.push_back(
        StageCost{cost_.RangeSeconds(model_, lo, hi, micro_batch_),
                  cost_.RangeSeconds(model_, lo, hi, last)});
  }
}

double MpEngine::StageSeconds(int stage, int micro) const {
  const StageCost& c = stage_cost_[static_cast<size_t>(stage)];
  return micro + 1 < num_micros_ ? c.full : c.last;
}

double MpEngine::BoundaryBytes(int stage, int micro) const {
  const int first_layer = stages_[static_cast<size_t>(stage)].first;
  return model_.BoundaryActivationElems(first_layer) * MicroBatchOf(micro) *
         cluster_->calibration().bytes_per_scalar;
}

void MpEngine::StartIteration(int iteration) {
  backwards_pending_ = num_micros_;
  tail_forwards_done_ = 0;
  OnIterationStart(iteration);
  for (int s = 0; s < num_stages(); ++s) {
    const double delay = cluster_->stragglers().DelayFor(iteration, s);
    if (delay > 0.0) cluster_->gpu(s).BlockUntil(now() + delay);
  }
  // Stage 0 ingests every micro-batch back-to-back (samples are local).
  for (int k = 0; k < num_micros_; ++k) EnqueueForward(0, k);
}

void MpEngine::EnqueueForward(int stage, int micro) {
  const double seconds =
      StageSeconds(stage, micro) * kForwardShare *
      cluster_->stragglers().SlowdownFor(current_iteration_, stage);
  cluster_->gpu(stage).Enqueue(
      seconds, [this, stage, micro] { OnForwardDone(stage, micro); });
}

void MpEngine::OnForwardDone(int stage, int micro) {
  if (stage + 1 < num_stages()) {
    // Ship boundary activations to the next stage; its forward can only
    // start once they arrive.
    cluster_->fabric().Transfer(
        stage, stage + 1, BoundaryBytes(stage + 1, micro),
        [this, stage, micro] { EnqueueForward(stage + 1, micro); });
  } else {
    // GPipe-style BSP schedule: the backward phase only starts after the
    // tail stage has seen every micro-batch's forward; backwards then
    // drain in reverse order. This is the fill+drain bubble the paper
    // blames for MP's bad work conservation.
    ++tail_forwards_done_;
    if (tail_forwards_done_ == num_micros_) {
      for (int k = num_micros_ - 1; k >= 0; --k) EnqueueBackward(stage, k);
    }
  }
}

void MpEngine::EnqueueBackward(int stage, int micro) {
  const double seconds =
      StageSeconds(stage, micro) * (1.0 - kForwardShare) *
      cluster_->stragglers().SlowdownFor(current_iteration_, stage);
  cluster_->gpu(stage).Enqueue(
      seconds, [this, stage, micro] { OnBackwardDone(stage, micro); });
}

void MpEngine::OnBackwardDone(int stage, int micro) {
  if (stage > 0) {
    // Gradients w.r.t. the boundary activations flow upstream (same
    // size as the activations themselves).
    cluster_->fabric().Transfer(
        stage, stage - 1, BoundaryBytes(stage, micro),
        [this, stage, micro] { EnqueueBackward(stage - 1, micro); });
  } else {
    // Every stage owns its parameters exclusively: no synchronization.
    if (--backwards_pending_ == 0) FinishIteration();
  }
}

}  // namespace fela::baselines
