#include "core/stage.hpp"

#include <sstream>
#include <stdexcept>

#include "common/check.hpp"

namespace fifer {

StageState::StageState(StageProfile profile, SchedulerPolicy scheduler,
                       const MicroserviceSpec* service, StageMetrics* metrics)
    : profile_(std::move(profile)),
      scheduler_(scheduler),
      service_(service),
      metrics_(metrics) {}

void StageState::enqueue(TaskRef task, double priority_key) {
  const double key =
      scheduler_ == SchedulerPolicy::kFifo ? static_cast<double>(seq_) : priority_key;
  queue_.push(QueueEntry{key, seq_, task});
  ++seq_;
  ++total_enqueued_;
}

TaskRef StageState::pop_next() {
  if (queue_.empty()) throw std::logic_error("StageState::pop_next: queue empty");
  TaskRef t = queue_.top().task;
  queue_.pop();
  ++total_dequeued_;
  // Queue conservation: tasks leave the global queue at most as often as
  // they entered it.
  FIFER_DCHECK_LE(total_dequeued_, total_enqueued_, kCore);
  return t;
}

double StageState::peek_key() const {
  if (queue_.empty()) throw std::logic_error("StageState::peek_key: queue empty");
  return queue_.top().key;
}

Container& StageState::add_container(ContainerId id, NodeId node, int batch_size,
                                     SimTime spawned_at,
                                     SimDuration cold_start_ms) {
  const SlabHandle<Container> h = containers_.emplace(
      id, profile_.stage, node, batch_size, spawned_at, cold_start_ms);
  Container& c = containers_[h];
  c.set_handle(h);
  index_.admit(c);
  return c;
}

Container& StageState::container(ContainerId id) {
  for (Container& c : containers_) {
    if (c.id() == id && !c.terminated()) return c;
  }
  throw std::out_of_range("StageState::container: unknown or terminated id");
}

std::string StageState::audit_fleet_index() const {
  std::size_t warm = 0, provisioning = 0;
  int warm_free = 0, provisioning_slots = 0, capacity = 0;
  // Reference answers: the first container in admission order with the
  // strictly fewest free slots, and the first idle, empty one with the
  // strictly earliest last use.
  const Container* best = nullptr;
  const Container* lru = nullptr;
  for (const Container& c : containers_) {
    if (c.terminated()) continue;
    capacity += c.batch_size();
    if (!c.warm()) {
      ++provisioning;
      provisioning_slots += c.free_slots();
      continue;
    }
    ++warm;
    warm_free += c.free_slots();
    if (c.free_slots() > 0 &&
        (best == nullptr || c.free_slots() < best->free_slots())) {
      best = &c;
    }
    if (c.state() == ContainerState::kIdle && c.queued() == 0 &&
        (lru == nullptr || c.last_used_at() < lru->last_used_at())) {
      lru = &c;
    }
  }
  std::ostringstream out;
  const auto expect = [&out](const char* what, auto scanned, auto indexed) {
    if (scanned != indexed) {
      out << what << " scanned " << scanned << " indexed " << indexed << "; ";
    }
  };
  expect("live", warm + provisioning, live_count());
  expect("warm", warm, warm_count());
  expect("provisioning", provisioning, provisioning_count());
  expect("total_free_slots", warm_free + provisioning_slots, total_free_slots());
  expect("warm_free_slots", warm_free, warm_free_slots());
  expect("provisioning_slots", provisioning_slots, this->provisioning_slots());
  expect("total_capacity", capacity, total_capacity());
  expect("select_container", best, index_.best_fit());
  expect("least_recently_used_idle", lru, index_.least_recently_used_idle());
  return out.str();
}

void StageState::erase_terminated() {
  // Single order-preserving compaction pass: remaining containers keep
  // their relative (admission) order, exactly as the old vector remove_if
  // did, and a burst reap stays O(fleet) instead of O(fleet²).
  containers_.erase_if([](const Container& c) { return c.terminated(); });
}

void StageState::record_wait(SimTime now, SimDuration wait_ms) {
  // Waits are measured between two causally ordered events, so they cannot
  // be negative; samples arrive in simulated-time order.
  FIFER_DCHECK_GE(wait_ms, 0.0, kCore);
  FIFER_DCHECK(recent_waits_.empty() || now >= recent_waits_.back().first, kCore)
      << "wait samples out of order";
  recent_waits_.emplace_back(now, wait_ms);
  // Trim anything far older than the largest horizon anyone asks about.
  constexpr SimDuration kRetain = 60'000.0;
  while (!recent_waits_.empty() && recent_waits_.front().first < now - kRetain) {
    recent_waits_.pop_front();
  }
}

SimDuration StageState::recent_mean_wait_ms(SimTime now, SimDuration horizon_ms) const {
  double acc = 0.0;
  std::size_t n = 0;
  for (auto it = recent_waits_.rbegin(); it != recent_waits_.rend(); ++it) {
    if (it->first < now - horizon_ms) break;
    acc += it->second;
    ++n;
  }
  return n > 0 ? acc / static_cast<double>(n) : 0.0;
}

}  // namespace fifer
