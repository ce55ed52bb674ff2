#include "baselines/elastic_mp_engine.h"

#include <utility>

#include "common/logging.h"

namespace fela::baselines {

ElasticMpEngine::ElasticMpEngine(runtime::Cluster* cluster,
                                 const model::Model& model,
                                 double total_batch, double micro_batch,
                                 int profile_period)
    : MpEngine(cluster, model, total_batch, micro_batch),
      profile_period_(profile_period) {
  FELA_CHECK_GT(profile_period, 0);
  period_busy_start_.assign(static_cast<size_t>(num_stages()), 0.0);
  period_sleep_start_.assign(static_cast<size_t>(num_stages()), 0.0);
}

void ElasticMpEngine::OnIterationStart(int iteration) {
  if (iteration % profile_period_ != 0) return;
  if (iteration > 0) Repartition();
  for (int s = 0; s < num_stages(); ++s) {
    period_busy_start_[static_cast<size_t>(s)] = cluster_->gpu(s).busy_time();
    period_sleep_start_[static_cast<size_t>(s)] =
        cluster_->gpu(s).injected_sleep();
  }
}

void ElasticMpEngine::Repartition() {
  // Measured slowdown per worker over the elapsed period: wall GPU time
  // (compute + injected sleep) per second of useful compute.
  const int stages = num_stages();
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
        FullMicroSeconds(s) * static_cast<double>(num_micro_batches());
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
  FELA_CHECK_EQ(static_cast<int>(ranges.size()), stages);
  SetStages(std::move(ranges));
  ++repartition_count_;
}

}  // namespace fela::baselines
