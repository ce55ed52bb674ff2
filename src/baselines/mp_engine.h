#ifndef FELA_BASELINES_MP_ENGINE_H_
#define FELA_BASELINES_MP_ENGINE_H_

#include <string>
#include <utility>
#include <vector>

#include "baselines/bsp_engine.h"
#include "model/model.h"
#include "runtime/cluster.h"

namespace fela::baselines {

/// The model-parallel (MP) baseline, after PipeDream/GPipe under BSP
/// (§V-A): the model is split into N FLOP-balanced stages, one per
/// worker; each iteration streams the batch through the pipeline in
/// small fixed micro-batches. Forward activations and backward gradients
/// cross stage boundaries as real transfers; the pipeline fill/drain
/// bubble and the under-saturated micro-batch are exactly the two
/// weaknesses the paper attributes to MP.
class MpEngine : public BspEngine {
 public:
  /// `micro_batch` is the fixed micro-batch size; the paper's MP
  /// baseline keeps it small to amortize the bubble (default 4).
  MpEngine(runtime::Cluster* cluster, const model::Model& model,
           double total_batch, double micro_batch = 4.0);

  std::string name() const override { return "MP"; }

  int num_stages() const { return static_cast<int>(stages_.size()); }
  int num_micro_batches() const { return num_micros_; }
  const std::vector<std::pair<int, int>>& stages() const { return stages_; }

 protected:
  /// Called once per iteration after its framing span opens and before
  /// the straggler blocks; the stages may be moved here (SetStages).
  virtual void OnIterationStart(int /*iteration*/) {}

  /// Replaces the stage layer ranges (inclusive, contiguous, one per
  /// stage) and rebuilds the per-stage cost cache.
  void SetStages(std::vector<std::pair<int, int>> stages);
  /// RangeSeconds of `stage` at the full micro-batch.
  double FullMicroSeconds(int stage) const {
    return stage_cost_[static_cast<size_t>(stage)].full;
  }

 private:
  void StartIteration(int iteration) final;
  void EnqueueForward(int stage, int micro);
  void OnForwardDone(int stage, int micro);
  void EnqueueBackward(int stage, int micro);
  void OnBackwardDone(int stage, int micro);

  /// Boundary activation bytes for one micro-batch entering `stage`.
  double BoundaryBytes(int stage, int micro) const;
  double MicroBatchOf(int micro) const;
  /// RangeSeconds of `stage` at the batch of `micro`, from stage_cost_.
  double StageSeconds(int stage, int micro) const;

  double micro_batch_;
  int num_micros_;
  std::vector<std::pair<int, int>> stages_;  // inclusive layer ranges
  /// Per-stage RangeSeconds at the full micro-batch and at the last one,
  /// which absorbs the remainder: every micro-batch costs one of the two.
  struct StageCost {
    double full;
    double last;
  };
  std::vector<StageCost> stage_cost_;

  int backwards_pending_ = 0;
  int tail_forwards_done_ = 0;
};

}  // namespace fela::baselines

#endif  // FELA_BASELINES_MP_ENGINE_H_
