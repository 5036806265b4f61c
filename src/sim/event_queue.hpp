#pragma once

#include <cstdint>
#include <vector>

#include "common/inline_function.hpp"
#include "common/types.hpp"

namespace fifer {

/// Time-ordered event queue at the heart of the discrete-event simulator.
///
/// Ordering is (time, sequence): events at equal simulated times fire in the
/// order they were scheduled, making runs deterministic regardless of heap
/// internals. An event, once scheduled, fires: there is no cancellation. A
/// step that must void a pending event can carry an epoch in its capture and
/// compare it when it fires.
///
/// Callbacks live **inline in the slot table** (InlineFunction): no heap
/// allocation per event (slots are recycled through a freelist), and the
/// binary-heap entries stay 24-byte PODs — sift operations shuffle plain
/// (time, seq, slot) triples instead of dragging a 64-byte type-erased
/// capture through an indirect move on every level. A warmed-up queue
/// therefore schedules and fires events without touching the allocator
/// (the zero-alloc dispatch-loop contract of DESIGN.md §5g; `bench_scale`
/// probes it with a counting allocator).
class EventQueue {
 public:
  /// 64 bytes covers the request path's largest capture (the finish event:
  /// this + stage + container handle + TaskRef = 40 bytes) with headroom;
  /// oversized captures fail to compile instead of silently allocating.
  using Callback = InlineFunction<void(), 64>;

  /// Schedules `cb` to fire at absolute simulated time `at`.
  /// `at` must be >= the time of the last popped event (no scheduling into
  /// the past); violations throw std::logic_error.
  void schedule(SimTime at, Callback cb);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

  /// Time of the earliest pending event; kNeverTime when empty.
  SimTime next_time() const { return heap_.empty() ? kNeverTime : heap_.front().time; }

  /// Pops and returns the earliest event. Precondition: !empty().
  struct Fired {
    SimTime time;
    Callback callback;
  };
  Fired pop();

  /// Time of the most recently popped event (the "now" watermark).
  SimTime watermark() const { return watermark_; }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Heap comparator: "a fires later than b" — the (time, seq) order that
  /// makes same-time events fire in schedule order.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// The pending events, a binary heap in (time, seq) order. Each entry
  /// owns one slot of `callbacks_` until it pops.
  std::vector<Entry> heap_;
  /// Callbacks parked by slot so heap sifts never move them; a popped
  /// event's slot goes back on `free_slots_`.
  std::vector<Callback> callbacks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  SimTime watermark_ = 0.0;
};

}  // namespace fifer
