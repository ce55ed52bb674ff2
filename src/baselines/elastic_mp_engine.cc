#include "baselines/elastic_mp_engine.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace fela::baselines {

namespace {
constexpr double kForwardShare = 1.0 / 3.0;
}  // namespace

ElasticMpEngine::ElasticMpEngine(runtime::Cluster* cluster,
                                 const model::Model& model,
                                 double total_batch, double micro_batch,
                                 int profile_period)
    : cluster_(cluster),
      model_(model),
      cost_(cluster->calibration(), &model::ProfileRepository::Default()),
      total_batch_(total_batch),
      micro_batch_(micro_batch),
      profile_period_(profile_period) {
  FELA_CHECK_GT(total_batch, 0.0);
  FELA_CHECK_GT(micro_batch, 0.0);
  FELA_CHECK_GT(profile_period, 0);
  num_micros_ =
      std::max(1, static_cast<int>(std::ceil(total_batch / micro_batch)));
  const int stages = std::min(cluster->num_workers(), model_.layer_count());
  stages_ = model::EqualLayerCountPartition(model_, stages);
  CacheStageCosts();
  period_busy_start_.assign(static_cast<size_t>(stages), 0.0);
  period_sleep_start_.assign(static_cast<size_t>(stages), 0.0);
}

double ElasticMpEngine::MicroBatchOf(int micro) const {
  if (micro + 1 < num_micros_) return micro_batch_;
  return total_batch_ - micro_batch_ * static_cast<double>(num_micros_ - 1);
}

void ElasticMpEngine::CacheStageCosts() {
  const double last = MicroBatchOf(num_micros_ - 1);
  stage_cost_.clear();
  for (const auto& [lo, hi] : stages_) {
    stage_cost_.push_back(
        StageCost{cost_.RangeSeconds(model_, lo, hi, micro_batch_),
                  cost_.RangeSeconds(model_, lo, hi, last)});
  }
}

double ElasticMpEngine::StageSeconds(int stage, int micro) const {
  const StageCost& c = stage_cost_[static_cast<size_t>(stage)];
  return micro + 1 < num_micros_ ? c.full : c.last;
}

double ElasticMpEngine::BoundaryBytes(int stage, int micro) const {
  const int first_layer = stages_[static_cast<size_t>(stage)].first;
  return model_.BoundaryActivationElems(first_layer) * MicroBatchOf(micro) *
         cluster_->calibration().bytes_per_scalar;
}

void ElasticMpEngine::Repartition() {
  // Measured slowdown per worker over the elapsed period: wall GPU time
  // (compute + injected sleep) per second of useful compute.
  const int stages = static_cast<int>(stages_.size());
  std::vector<double> capacity(static_cast<size_t>(stages), 1.0);
  for (int s = 0; s < stages; ++s) {
    const double busy =
        cluster_->gpu(s).busy_time() - period_busy_start_[static_cast<size_t>(s)];
    const double sleep = cluster_->gpu(s).injected_sleep() -
                         period_sleep_start_[static_cast<size_t>(s)];
    // Capacity ~ nominal seconds of the stage's assigned work divided by
    // the wall seconds the device actually needed (slowdowns inflate
    // busy time; sleeps add on top). This is the profile ElasticPipe's
    // head node would gather.
    const double nominal_per_iter =
        stage_cost_[static_cast<size_t>(s)].full *
        static_cast<double>(num_micros_);
    const double nominal = nominal_per_iter * profile_period_;
    capacity[static_cast<size_t>(s)] =
        (busy + sleep) > 0.0 ? nominal / (busy + sleep) : 1.0;
  }
  double total_capacity = 0.0;
  for (double c : capacity) total_capacity += c;

  // Greedy contiguous re-partition: stage s receives roughly
  // total_flops * capacity_s / total_capacity.
  const double total_flops = model_.TotalFlopsPerSample();
  std::vector<std::pair<int, int>> ranges;
  int start = 0;
  double acc = 0.0;
  int stage = 0;
  for (int i = 0; i < model_.layer_count(); ++i) {
    acc += model_.layer(i).FlopsPerSample();
    const int remaining_layers = model_.layer_count() - i - 1;
    const int stages_after = stages - static_cast<int>(ranges.size()) - 1;
    if (stages_after <= 0) break;
    const double target = total_flops *
                          capacity[static_cast<size_t>(stage)] /
                          total_capacity;
    const bool must_close = remaining_layers == stages_after;
    const bool may_close = remaining_layers >= stages_after;
    if (must_close || (acc >= target && may_close)) {
      ranges.emplace_back(start, i);
      start = i + 1;
      acc = 0.0;
      ++stage;
    }
  }
  ranges.emplace_back(start, model_.layer_count() - 1);
  FELA_CHECK_EQ(ranges.size(), stages_.size());
  stages_ = std::move(ranges);
  CacheStageCosts();
  ++repartition_count_;
}

void ElasticMpEngine::StartIteration(int iteration) {
  current_iteration_ = iteration;
  iteration_start_ = cluster_->simulator().now();
  backwards_pending_ = num_micros_;
  tail_forwards_done_ = 0;
  if (cluster_->spans().enabled()) {
    iter_span_.emplace(&cluster_->spans(), cluster_->num_workers(),
                       obs::Phase::kIteration, iteration);
  }

  if (iteration > 0 && iteration % profile_period_ == 0) {
    Repartition();
  }
  if (iteration % profile_period_ == 0) {
    for (size_t s = 0; s < stages_.size(); ++s) {
      period_busy_start_[s] = cluster_->gpu(static_cast<int>(s)).busy_time();
      period_sleep_start_[s] =
          cluster_->gpu(static_cast<int>(s)).injected_sleep();
    }
  }

  for (int s = 0; s < static_cast<int>(stages_.size()); ++s) {
    const double delay = cluster_->stragglers().DelayFor(iteration, s);
    if (delay > 0.0) {
      cluster_->gpu(s).BlockUntil(cluster_->simulator().now() + delay);
    }
  }
  for (int k = 0; k < num_micros_; ++k) EnqueueForward(0, k);
}

void ElasticMpEngine::EnqueueForward(int stage, int micro) {
  const double seconds =
      StageSeconds(stage, micro) * kForwardShare *
      cluster_->stragglers().SlowdownFor(current_iteration_, stage);
  cluster_->gpu(stage).Enqueue(
      seconds, [this, stage, micro] { OnForwardDone(stage, micro); });
}

void ElasticMpEngine::OnForwardDone(int stage, int micro) {
  if (stage + 1 < static_cast<int>(stages_.size())) {
    cluster_->fabric().Transfer(
        stage, stage + 1, BoundaryBytes(stage + 1, micro),
        [this, stage, micro] { EnqueueForward(stage + 1, micro); });
  } else {
    ++tail_forwards_done_;
    if (tail_forwards_done_ == num_micros_) {
      for (int k = num_micros_ - 1; k >= 0; --k) EnqueueBackward(stage, k);
    }
  }
}

void ElasticMpEngine::EnqueueBackward(int stage, int micro) {
  const double seconds =
      StageSeconds(stage, micro) * (1.0 - kForwardShare) *
      cluster_->stragglers().SlowdownFor(current_iteration_, stage);
  cluster_->gpu(stage).Enqueue(
      seconds, [this, stage, micro] { OnBackwardDone(stage, micro); });
}

void ElasticMpEngine::OnBackwardDone(int stage, int micro) {
  if (stage > 0) {
    cluster_->fabric().Transfer(
        stage, stage - 1, BoundaryBytes(stage, micro),
        [this, stage, micro] { EnqueueBackward(stage - 1, micro); });
  } else {
    if (--backwards_pending_ == 0) FinishIteration();
  }
}

void ElasticMpEngine::FinishIteration() {
  // Stage migration cost: moving the re-partitioned parameters happens
  // off the critical path in ElasticPipe; we charge only the pipeline.
  stats_.iterations.push_back(runtime::IterationStats{
      iteration_start_, cluster_->simulator().now()});
  iter_span_.reset();  // emits the iteration framing span
  if (current_iteration_ + 1 < target_iterations_) {
    StartIteration(current_iteration_ + 1);
  } else {
    run_complete_ = true;
  }
}

runtime::RunStats ElasticMpEngine::Run(int iterations) {
  FELA_CHECK_GT(iterations, 0);
  FELA_CHECK(stats_.iterations.empty());
  target_iterations_ = iterations;
  cluster_->fabric().ResetStats();
  StartIteration(0);
  cluster_->simulator().Run();
  FELA_CHECK(run_complete_);
  stats_.total_time = cluster_->simulator().now();
  stats_.total_data_bytes = cluster_->fabric().total_data_bytes();
  stats_.total_gpu_busy = cluster_->TotalGpuBusy();
  stats_.control_messages = cluster_->fabric().control_message_count();
  return stats_;
}

}  // namespace fela::baselines
