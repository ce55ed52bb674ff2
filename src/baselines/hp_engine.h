#ifndef FELA_BASELINES_HP_ENGINE_H_
#define FELA_BASELINES_HP_ENGINE_H_

#include <string>
#include <vector>

#include "baselines/bsp_engine.h"
#include "model/model.h"
#include "runtime/cluster.h"

namespace fela::baselines {

/// The hybrid-parallel (HP) baseline after Stanza (§V-A, [6]): layer
/// separation with the paper's inherited configuration — N-1 CONV
/// workers train the convolutional front data-parallel, while a single
/// FC worker (the last node) owns all FC layers. Per iteration:
///
///   1. each CONV worker forwards its batch shard and ships the boundary
///      activations to the FC worker (in-cast);
///   2. the FC worker runs one FC forward+backward pass per arrived
///      shard, FIFO, and returns the boundary gradients to its sender;
///   3. CONV workers run their backward pass;
///   4. CONV workers ring-all-reduce the CONV parameters (FC parameters
///      live only on the FC worker — no synchronization).
///
/// The FC worker idles at the front of each iteration and becomes an
/// in-cast bottleneck as the batch grows — the two behaviours the paper
/// uses to explain HP's crossover against DP (Fig. 8 discussion).
class HpEngine final : public BspEngine {
 public:
  HpEngine(runtime::Cluster* cluster, const model::Model& model,
           double total_batch);

  std::string name() const override { return "HP"; }

  int fc_first_layer() const { return fc_first_layer_; }
  int conv_worker_count() const { return cluster_->num_workers() - 1; }
  sim::NodeId fc_worker() const { return cluster_->num_workers() - 1; }

 private:
  void StartIteration(int iteration) override;
  void OnConvForwardDone(int conv_worker);
  void OnActivationsAtFc(int conv_worker);
  void PumpFc();
  void OnFcPassDone(int conv_worker);
  void OnGradsAtConv(int conv_worker);
  void OnConvBackwardDone(int conv_worker);

  double shard_batch_;      // per CONV worker
  int fc_first_layer_;      // first FC layer index
  double conv_param_bytes_;
  double boundary_bytes_;   // CONV -> FC activations of one shard
  // Training-pass seconds of one shard, before straggler slowdown.
  double conv_seconds_;     // CONV layers, on a CONV worker
  double fc_seconds_;       // FC layers, on the FC worker

  int conv_pending_ = 0;
  std::vector<int> fc_waiting_;  // conv workers whose shards await FC
  bool fc_busy_ = false;
};

}  // namespace fela::baselines

#endif  // FELA_BASELINES_HP_ENGINE_H_
