#include "cluster/container.hpp"

#include <algorithm>
#include <stdexcept>

#include "cluster/fleet_index.hpp"
#include "common/check.hpp"

namespace fifer {

const char* to_string(ContainerState s) {
  switch (s) {
    case ContainerState::kProvisioning: return "provisioning";
    case ContainerState::kIdle: return "idle";
    case ContainerState::kBusy: return "busy";
    case ContainerState::kTerminated: return "terminated";
  }
  return "?";
}

Container::Container(ContainerId id, std::string service, NodeId node, int batch_size,
                     SimTime spawned_at, SimDuration cold_start_ms)
    : id_(id),
      service_(std::move(service)),
      node_(node),
      batch_size_(std::max(1, batch_size)),
      spawned_at_(spawned_at),
      ready_at_(spawned_at + std::max(0.0, cold_start_ms)),
      last_used_at_(spawned_at + std::max(0.0, cold_start_ms)) {}

void Container::report(const Footprint& before) {
  if (index_ != nullptr) index_->update(*this, before);
}

void Container::set_batch_size(int b) {
  const Footprint before = footprint();
  batch_size_ = std::max(1, b);
  report(before);
  // Slot accounting (paper §3): occupancy never exceeds B_size. Retuning
  // B_size below the current occupancy would strand queued work outside any
  // slot, so it is an invariant violation, not a resize.
  FIFER_CHECK_LE(occupied(), batch_size_, kCluster)
      << "B_size shrunk below current occupancy";
}

void Container::mark_warm(SimTime now) {
  if (state_ != ContainerState::kProvisioning) {
    throw std::logic_error("Container::mark_warm: not provisioning");
  }
  const Footprint before = footprint();
  state_ = ContainerState::kIdle;
  last_used_at_ = now;
  report(before);
}

void Container::enqueue(TaskRef task) {
  if (terminated()) {
    throw std::logic_error("Container::enqueue: container terminated");
  }
  if (free_slots() <= 0) {
    throw std::logic_error("Container::enqueue: no free slots");
  }
  const Footprint before = footprint();
  local_queue_.push_back(task);
  FIFER_DCHECK(occupied() >= 0 && occupied() <= batch_size_, kCluster)
      << "occupancy " << occupied() << " outside [0, " << batch_size_ << "]";
  report(before);
}

TaskRef Container::pop() {
  if (queued() == 0) {
    throw std::logic_error("Container::pop: local queue empty");
  }
  const Footprint before = footprint();
  TaskRef t = local_queue_[queue_head_++];
  if (queue_head_ == local_queue_.size()) {
    local_queue_.clear();
    queue_head_ = 0;
  } else if (queue_head_ * 2 >= local_queue_.size()) {
    // Compact the consumed prefix in place (no reallocation), so the buffer
    // stays bounded by ~2x B_size even if the queue never fully drains.
    local_queue_.erase(
        local_queue_.begin(),
        local_queue_.begin() + static_cast<std::ptrdiff_t>(queue_head_));
    queue_head_ = 0;
  }
  report(before);
  return t;
}

void Container::begin_execution(SimTime now) {
  if (state_ != ContainerState::kIdle) {
    throw std::logic_error("Container::begin_execution: container not idle");
  }
  const Footprint before = footprint();
  state_ = ContainerState::kBusy;
  executing_ = true;
  exec_started_at_ = now;
  FIFER_DCHECK_LE(occupied(), batch_size_, kCluster);
  report(before);
}

void Container::end_execution(SimTime now) {
  if (state_ != ContainerState::kBusy) {
    throw std::logic_error("Container::end_execution: container not busy");
  }
  const Footprint before = footprint();
  state_ = ContainerState::kIdle;
  executing_ = false;
  // Busy-time accounting: execution intervals have non-negative length, so
  // the utilization integral is monotone.
  FIFER_DCHECK_GE(now, exec_started_at_, kCluster);
  busy_ms_ += now - exec_started_at_;
  last_used_at_ = now;
  ++jobs_executed_;
  report(before);
}

bool Container::idle_expired(SimTime now, SimDuration idle_timeout) const {
  return state_ == ContainerState::kIdle && queued() == 0 &&
         now - last_used_at_ >= idle_timeout;
}

void Container::terminate(SimTime now) {
  if (state_ == ContainerState::kBusy) {
    throw std::logic_error("Container::terminate: container busy");
  }
  const Footprint before = footprint();
  state_ = ContainerState::kTerminated;
  last_used_at_ = now;
  report(before);
}

}  // namespace fifer
