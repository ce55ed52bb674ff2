#ifndef FELA_BASELINES_BSP_ENGINE_H_
#define FELA_BASELINES_BSP_ENGINE_H_

#include <optional>

#include "model/cost_model.h"
#include "model/model.h"
#include "runtime/cluster.h"
#include "runtime/engine.h"
#include "sim/span.h"

namespace fela::baselines {

/// The BSP iteration driver the baseline engines share: iteration k+1
/// starts the instant iteration k ends, each iteration is framed by a
/// kIteration span on the driver track (= num_workers), and Run() drives
/// the simulator until the last iteration closes or the engine gives up
/// on a fault (RunStats::stalled).
///
/// A subclass schedules one iteration's work in StartIteration() and
/// calls FinishIteration() when that work is done. Everything else,
/// including the straggler blocks, stays in the subclass: GpuDevice emits
/// a span when it is blocked or fed, so the order of those calls is part
/// of the transcript, and it differs between engines.
class BspEngine : public runtime::Engine {
 public:
  /// Scheduled callbacks hold `this`.
  BspEngine(const BspEngine&) = delete;
  BspEngine& operator=(const BspEngine&) = delete;

  runtime::RunStats Run(int iterations) final;

 protected:
  BspEngine(runtime::Cluster* cluster, const model::Model& model,
            double total_batch);

  /// Schedules iteration `iteration`. Called once per iteration, after
  /// its start is recorded and its framing span opened.
  virtual void StartIteration(int iteration) = 0;

  /// Closes the current iteration now, then starts the next one or
  /// marks the run complete.
  void FinishIteration();

  sim::SimTime now() const { return cluster_->simulator().now(); }

  runtime::Cluster* cluster_;
  model::Model model_;
  model::LayerCostModel cost_;
  double total_batch_;

  int current_iteration_ = 0;
  sim::SimTime iteration_start_ = 0.0;
  runtime::RunStats stats_;

 private:
  void BeginIteration(int iteration);

  int target_iterations_ = 0;
  bool run_complete_ = false;
  std::optional<obs::ScopedSpan> iter_span_;
};

}  // namespace fela::baselines

#endif  // FELA_BASELINES_BSP_ENGINE_H_
