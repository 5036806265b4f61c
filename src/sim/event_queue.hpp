#pragma once

#include <cstdint>
#include <vector>

#include "common/inline_function.hpp"
#include "common/types.hpp"

namespace fifer {

/// Handle returned by EventQueue::schedule, usable to cancel the event.
/// Encodes (slot generation << 32 | slot index); opaque to callers.
enum class EventId : std::uint64_t {};

/// Time-ordered event queue at the heart of the discrete-event simulator.
///
/// Ordering is (time, sequence): events at equal simulated times fire in the
/// order they were scheduled, making runs deterministic regardless of heap
/// internals. Cancellation is O(1) — the event's slot is marked dead and its
/// generation bumped; the heap entry is skipped lazily at pop time — which
/// keeps schedule/cancel cheap without heap surgery.
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
  EventId schedule(SimTime at, Callback cb);

  /// Cancels a pending event. Returns false if it already fired or was
  /// already cancelled.
  bool cancel(EventId id);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  /// Time of the earliest pending event; kNeverTime when empty.
  SimTime next_time() const;

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
  /// Per-slot state: the event's callback (parked here so heap sifts never
  /// move it) plus cancellation bookkeeping. A slot has exactly one
  /// outstanding heap entry; its generation is bumped when that entry is
  /// physically removed (fired or reaped after cancel), so stale EventIds
  /// can never cancel a later event reusing the slot.
  struct Slot {
    Callback callback;
    std::uint32_t gen = 0;
    bool live = false;
  };

  void drop_cancelled() const;
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot) const;

  // `mutable`: next_time() lazily reaps cancelled entries, as before.
  mutable std::vector<Entry> heap_;
  mutable std::vector<Slot> slots_;
  mutable std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_count_ = 0;
  SimTime watermark_ = 0.0;
};

}  // namespace fifer
