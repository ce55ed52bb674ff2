#include "baselines/bsp_engine.h"

#include "common/logging.h"

namespace fela::baselines {

BspEngine::BspEngine(runtime::Cluster* cluster, const model::Model& model,
                     double total_batch)
    : cluster_(cluster),
      model_(model),
      cost_(cluster->calibration(), &model::ProfileRepository::Default()),
      total_batch_(total_batch) {
  FELA_CHECK_GT(total_batch, 0.0);
}

void BspEngine::BeginIteration(int iteration) {
  current_iteration_ = iteration;
  iteration_start_ = now();
  if (cluster_->spans().enabled()) {
    iter_span_.emplace(&cluster_->spans(), cluster_->num_workers(),
                       obs::Phase::kIteration, iteration);
  }
  StartIteration(iteration);
}

void BspEngine::FinishIteration() {
  stats_.iterations.push_back(runtime::IterationStats{iteration_start_, now()});
  iter_span_.reset();  // emits the iteration framing span
  if (current_iteration_ + 1 < target_iterations_) {
    BeginIteration(current_iteration_ + 1);
  } else {
    run_complete_ = true;
  }
}

runtime::RunStats BspEngine::Run(int iterations) {
  FELA_CHECK_GT(iterations, 0);
  FELA_CHECK(stats_.iterations.empty());
  target_iterations_ = iterations;
  cluster_->fabric().ResetStats();
  BeginIteration(0);
  cluster_->simulator().Run();
  FELA_CHECK(run_complete_ || stats_.stalled)
      << "simulation drained before finishing";
  if (iter_span_) {
    // A stalled or aborted iteration never ends; drop its framing span
    // instead of charging the stall window to it.
    iter_span_->Cancel();
    iter_span_.reset();
  }
  stats_.total_time = now();
  stats_.total_data_bytes = cluster_->fabric().total_data_bytes();
  stats_.total_gpu_busy = cluster_->TotalGpuBusy();
  stats_.control_messages = cluster_->fabric().control_message_count();
  return stats_;
}

}  // namespace fela::baselines
