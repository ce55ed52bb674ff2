#ifndef FELA_BASELINES_ELASTIC_MP_ENGINE_H_
#define FELA_BASELINES_ELASTIC_MP_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "model/cost_model.h"
#include "model/model.h"
#include "model/partition.h"
#include "runtime/cluster.h"
#include "runtime/engine.h"
#include "sim/span.h"

namespace fela::baselines {

/// ElasticPipe-style model parallelism ([15], the authors' own prior
/// system): the GPipe pipeline of MpEngine plus a head-node auto-tuner
/// that re-partitions the stages every `profile_period` iterations using
/// the *previous* period's measured per-worker slowdown. This is the
/// proactive/periodic scheduling the paper contrasts with Fela's reactive
/// token pulling (§I, §III-C): with a persistent straggler the profile is
/// accurate and re-balancing helps; with transient or rotating stragglers
/// the profile is stale by the time it is applied — the tuner takes work
/// away from workers that have already recovered and piles it onto
/// workers about to slow down, which can make things worse.
class ElasticMpEngine : public runtime::Engine {
 public:
  ElasticMpEngine(runtime::Cluster* cluster, const model::Model& model,
                  double total_batch, double micro_batch = 4.0,
                  int profile_period = 5);

  std::string name() const override { return "ElasticMP"; }
  runtime::RunStats Run(int iterations) override;

  const std::vector<std::pair<int, int>>& stages() const { return stages_; }
  int repartition_count() const { return repartition_count_; }

 private:
  void StartIteration(int iteration);
  void EnqueueForward(int stage, int micro);
  void OnForwardDone(int stage, int micro);
  void EnqueueBackward(int stage, int micro);
  void OnBackwardDone(int stage, int micro);
  void FinishIteration();
  /// Head-node auto-tuning: re-balance stage layer ranges against the
  /// measured per-worker slowdown of the elapsed profiling period.
  void Repartition();

  double BoundaryBytes(int stage, int micro) const;
  double MicroBatchOf(int micro) const;
  /// RangeSeconds of `stage` at the batch of `micro`, from stage_cost_.
  double StageSeconds(int stage, int micro) const;
  /// Fills stage_cost_ for the current stages_.
  void CacheStageCosts();

  runtime::Cluster* cluster_;
  model::Model model_;
  model::LayerCostModel cost_;
  double total_batch_;
  double micro_batch_;
  int num_micros_;
  int profile_period_;
  std::vector<std::pair<int, int>> stages_;
  /// Per-stage RangeSeconds at the full micro-batch and at the last one,
  /// which absorbs the remainder: every micro-batch costs one of the two.
  /// Rebuilt whenever Repartition() moves the stage boundaries.
  struct StageCost {
    double full;
    double last;
  };
  std::vector<StageCost> stage_cost_;

  // Profiling state: per-worker GPU busy + injected sleep at the start
  // of the current period.
  std::vector<double> period_busy_start_;
  std::vector<double> period_sleep_start_;
  int repartition_count_ = 0;

  int target_iterations_ = 0;
  int current_iteration_ = 0;
  sim::SimTime iteration_start_ = 0.0;
  int backwards_pending_ = 0;
  int tail_forwards_done_ = 0;
  bool run_complete_ = false;
  runtime::RunStats stats_;
  /// Iteration framing span on the driver track (= num_workers).
  std::optional<obs::ScopedSpan> iter_span_;
};

}  // namespace fela::baselines

#endif  // FELA_BASELINES_ELASTIC_MP_ENGINE_H_
