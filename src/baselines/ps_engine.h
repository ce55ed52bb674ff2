#ifndef FELA_BASELINES_PS_ENGINE_H_
#define FELA_BASELINES_PS_ENGINE_H_

#include <string>

#include "baselines/bsp_engine.h"
#include "model/model.h"
#include "runtime/cluster.h"

namespace fela::baselines {

/// Parameter-server data parallelism (the FlexPS-style architecture the
/// paper's Table II criticizes for its "centralized bottleneck at PS").
/// Parameters are sharded over `num_servers` PS roles co-located with the
/// first nodes; each iteration every worker computes its gradient, pushes
/// each shard to its server, and pulls the updated shard back. With one
/// server, all 2 * N * param_bytes funnel through a single NIC — the
/// bottleneck this engine exists to demonstrate (compare DpEngine's ring
/// all-reduce, whose per-link traffic is independent of N).
class PsDpEngine final : public BspEngine {
 public:
  PsDpEngine(runtime::Cluster* cluster, const model::Model& model,
             double total_batch, int num_servers = 1);

  std::string name() const override { return "PS-DP"; }

  int num_servers() const { return num_servers_; }
  double shard_bytes() const { return shard_bytes_; }
  /// Per-device batch actually resident at once (gradient accumulation
  /// splits per_worker batches that exceed device memory); the memory
  /// oracle checks it against MemoryModel::MaxBatchForModel.
  double micro_batch() const { return micro_batch_; }
  int micro_steps() const { return micro_steps_; }

 private:
  void StartIteration(int iteration) override;
  void OnWorkerComputeDone(int worker);
  void OnPushDone();
  void OnPullDone();

  double micro_batch_;
  int micro_steps_;
  /// Gradient-accumulated compute per worker, before straggler slowdown.
  double compute_seconds_;
  int num_servers_;
  double shard_bytes_;

  int compute_pending_ = 0;
  int transfers_pending_ = 0;
  /// When the BSP barrier was reached (push phase start) this iteration.
  sim::SimTime sync_begin_ = 0.0;
};

}  // namespace fela::baselines

#endif  // FELA_BASELINES_PS_ENGINE_H_
