#include "sim/gpu.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace fela::sim {

GpuDevice::GpuDevice(Simulator* sim, NodeId node) : sim_(sim), node_(node) {}

void GpuDevice::Enqueue(double duration, EventFn done) {
  FELA_CHECK_GE(duration, 0.0);
  const SimTime start = std::max(sim_->now(), free_at_);
  const SimTime finish = start + duration;
  free_at_ = finish;
  busy_time_ += duration;
  if (spans_ != nullptr && spans_->enabled() && duration > 0.0) {
    spans_->Emit(obs::Span{node_, obs::Phase::kCompute, start, finish, -1, {}});
  }
  sim_->ScheduleInLane(lane_, finish, std::move(done));
}

void GpuDevice::BlockUntil(SimTime until, obs::Phase phase) {
  if (until <= free_at_ && until <= sim_->now()) return;
  const SimTime start = std::max(sim_->now(), free_at_);
  if (until > start) {
    injected_sleep_ += until - start;
    free_at_ = until;
    if (spans_ != nullptr && spans_->enabled()) {
      spans_->Emit(obs::Span{node_, phase, start, until, -1, {}});
    }
  }
}

void GpuDevice::ResetStats() {
  busy_time_ = 0.0;
  injected_sleep_ = 0.0;
}

}  // namespace fela::sim
