#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/container.hpp"

namespace fifer {

/// The fleet questions the request path asks on every task, answered
/// without a scan of the fleet. The containers keep it current: every
/// Container mutator reports the footprint it had before the change, and
/// the index swaps that contribution for the new one. It keeps
///
///  - the warm and provisioning counts, the free slots of each, and the
///    slot capacity (B_size summed over live containers);
///  - a placement heap of the warm containers with a free slot, keyed by
///    (free slots, admission sequence). Its top is the greedy bin-packing
///    choice of paper §4.4.1: the fewest free slots, the earliest admission
///    on ties — the first such container in admission order;
///  - an idle heap of the idle, empty containers, keyed by (last use,
///    admission sequence). Its top is the least recently used one, the
///    earliest admission on ties.
///
/// Each heap member keeps its heap position in the container, so a change
/// costs one O(log fleet) sift. The heaps' vectors grow only with the fleet
/// and never allocate in steady state. Not thread-safe, like the fleet.
class FleetIndex {
 public:
  FleetIndex() = default;
  FleetIndex(const FleetIndex&) = delete;
  FleetIndex& operator=(const FleetIndex&) = delete;

  /// Starts tracking `c`, a container that has not reported anywhere yet:
  /// stamps the next admission sequence and makes `c` report here.
  void admit(Container& c);
  /// `c` changed; `before` is its footprint from before the change.
  void update(Container& c, const Container::Footprint& before);

  std::size_t live_count() const {
    return static_cast<std::size_t>(warm_ + provisioning_);
  }
  std::size_t warm_count() const { return static_cast<std::size_t>(warm_); }
  std::size_t provisioning_count() const {
    return static_cast<std::size_t>(provisioning_);
  }
  int total_free_slots() const { return warm_free_ + provisioning_slots_; }
  int warm_free_slots() const { return warm_free_; }
  int provisioning_slots() const { return provisioning_slots_; }
  int total_capacity() const { return capacity_; }

  /// The top of the placement heap, or nullptr when no warm container has a
  /// free slot.
  Container* best_fit() const { return placement_.top(); }
  /// The top of the idle heap, or nullptr when no container is idle and
  /// empty.
  Container* least_recently_used_idle() const { return idle_.top(); }

 private:
  /// Binary min-heap of containers keyed by (key, admission sequence); the
  /// container member `pos` holds each member's index in the heap.
  class Heap {
   public:
    explicit Heap(std::uint32_t Container::*pos) : pos_(pos) {}
    Container* top() const {
      return entries_.empty() ? nullptr : entries_.front().c;
    }
    /// Inserts `c`, or re-keys it when it is already a member.
    void set(Container& c, double key, std::uint64_t seq);
    /// Drops `c` if it is a member.
    void remove(Container& c);

   private:
    struct Entry {
      double key;
      std::uint64_t seq;
      Container* c;
      bool operator<(const Entry& o) const {
        return key != o.key ? key < o.key : seq < o.seq;
      }
    };
    void put(std::size_t i, const Entry& e);
    void sift_up(std::size_t i);
    void sift_down(std::size_t i);

    std::vector<Entry> entries_;
    std::uint32_t Container::*pos_;
  };

  /// Adds (sign +1) or removes (-1) one container's share of the counts.
  void add(const Container::Footprint& f, int sign);
  /// Puts `c` in, moves it within, or drops it from each heap.
  void rekey(Container& c);

  std::uint64_t next_seq_ = 0;
  int warm_ = 0;
  int provisioning_ = 0;
  int warm_free_ = 0;
  int provisioning_slots_ = 0;
  int capacity_ = 0;
  Heap placement_{&Container::placement_pos_};
  Heap idle_{&Container::idle_pos_};
};

}  // namespace fifer
