#include "baselines/hp_engine.h"

#include "common/logging.h"
#include "sim/collectives.h"

namespace fela::baselines {

namespace {
constexpr double kForwardShare = 1.0 / 3.0;
}  // namespace

HpEngine::HpEngine(runtime::Cluster* cluster, const model::Model& model,
                   double total_batch)
    : BspEngine(cluster, model, total_batch) {
  FELA_CHECK_GE(cluster->num_workers(), 2);
  shard_batch_ = total_batch / static_cast<double>(conv_worker_count());
  fc_first_layer_ = -1;
  for (int i = 0; i < model_.layer_count(); ++i) {
    if (model_.layer(i).kind == model::LayerKind::kFc) {
      fc_first_layer_ = i;
      break;
    }
  }
  FELA_CHECK_GE(fc_first_layer_, 1) << "HP baseline needs CONV + FC layers";
  const double bytes = cluster_->calibration().bytes_per_scalar;
  conv_param_bytes_ = model_.ParamsInRange(0, fc_first_layer_ - 1) * bytes;
  boundary_bytes_ =
      model_.BoundaryActivationElems(fc_first_layer_) * shard_batch_ * bytes;
  conv_seconds_ =
      cost_.RangeSeconds(model_, 0, fc_first_layer_ - 1, shard_batch_);
  fc_seconds_ = cost_.RangeSeconds(model_, fc_first_layer_,
                                   model_.layer_count() - 1, shard_batch_);
}

void HpEngine::StartIteration(int iteration) {
  conv_pending_ = conv_worker_count();
  for (int w = 0; w < cluster_->num_workers(); ++w) {
    const double delay = cluster_->stragglers().DelayFor(iteration, w);
    if (delay > 0.0) cluster_->gpu(w).BlockUntil(now() + delay);
  }
  for (int w = 0; w < conv_worker_count(); ++w) {
    const double fwd = conv_seconds_ * kForwardShare *
                       cluster_->stragglers().SlowdownFor(iteration, w);
    cluster_->gpu(w).Enqueue(fwd, [this, w] { OnConvForwardDone(w); });
  }
}

void HpEngine::OnConvForwardDone(int conv_worker) {
  cluster_->fabric().Transfer(
      conv_worker, fc_worker(), boundary_bytes_,
      [this, conv_worker] { OnActivationsAtFc(conv_worker); });
}

void HpEngine::OnActivationsAtFc(int conv_worker) {
  fc_waiting_.push_back(conv_worker);
  PumpFc();
}

void HpEngine::PumpFc() {
  if (fc_busy_ || fc_waiting_.empty()) return;
  // Stanza keeps per-worker shards separate (each conv worker's
  // activations round-trip independently), so the FC worker runs one
  // pass per shard, FIFO. This is what turns the FC worker into the
  // bottleneck as the batch grows (§V-C1 discussion).
  const int owner = fc_waiting_.front();
  fc_waiting_.erase(fc_waiting_.begin());
  const double fc_seconds =
      fc_seconds_ *
      cluster_->stragglers().SlowdownFor(current_iteration_, fc_worker());
  fc_busy_ = true;
  cluster_->gpu(fc_worker())
      .Enqueue(fc_seconds, [this, owner] { OnFcPassDone(owner); });
}

void HpEngine::OnFcPassDone(int conv_worker) {
  fc_busy_ = false;
  cluster_->fabric().Transfer(
      fc_worker(), conv_worker, boundary_bytes_,
      [this, conv_worker] { OnGradsAtConv(conv_worker); });
  PumpFc();
}

void HpEngine::OnGradsAtConv(int conv_worker) {
  const double bwd = conv_seconds_ * (1.0 - kForwardShare) *
                     cluster_->stragglers().SlowdownFor(current_iteration_,
                                                        conv_worker);
  cluster_->gpu(conv_worker)
      .Enqueue(bwd, [this, conv_worker] { OnConvBackwardDone(conv_worker); });
}

void HpEngine::OnConvBackwardDone(int) {
  if (--conv_pending_ > 0) return;
  std::vector<sim::NodeId> conv_workers;
  for (int i = 0; i < conv_worker_count(); ++i) conv_workers.push_back(i);
  sim::AllReduce(&cluster_->simulator(), &cluster_->fabric(),
                 std::move(conv_workers), conv_param_bytes_,
                 [this] { FinishIteration(); }, &cluster_->spans());
}

}  // namespace fela::baselines
