#include "sim/event_queue.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"

namespace fifer {

void EventQueue::schedule(SimTime at, Callback cb) {
  if (at < watermark_) {
    throw std::logic_error("EventQueue: scheduling into the past");
  }
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(cb));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    callbacks_[slot] = std::move(cb);
  }
  heap_.push_back(Entry{at, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  // Bookkeeping invariant: every slot is either pending in the heap or free.
  FIFER_DCHECK_EQ(heap_.size() + free_slots_.size(), callbacks_.size(), kSim);
}

EventQueue::Fired EventQueue::pop() {
  if (heap_.empty()) {
    throw std::logic_error("EventQueue: pop on empty queue");
  }
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry entry = heap_.back();
  heap_.pop_back();
  // Causality: events fire in non-decreasing time order, so the watermark
  // (time of the last popped event) never runs backwards.
  FIFER_DCHECK_GE(entry.time, watermark_, kSim);
  // Moving the callback out leaves the slot empty: its capture fires (and
  // dies) with the returned event, never with a later tenant of the slot.
  Callback cb = std::move(callbacks_[entry.slot]);
  free_slots_.push_back(entry.slot);
  watermark_ = entry.time;
  return Fired{entry.time, std::move(cb)};
}

}  // namespace fifer
