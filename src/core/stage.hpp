#pragma once

#include <cstdint>
#include <deque>
#include <queue>
#include <string>
#include <vector>

#include "cluster/container.hpp"
#include "cluster/fleet_index.hpp"
#include "common/slab.hpp"
#include "common/types.hpp"
#include "core/app_profile.hpp"
#include "core/rm_config.hpp"
#include "workload/microservice.hpp"
#include "workload/request.hpp"

namespace fifer {

struct StageMetrics;

/// Runtime state of one stage (one microservice / function): the global
/// request queue, the container fleet, and the rolling load statistics the
/// load monitor reads (paper Figure 5 components 1 and 3).
///
/// The fleet lives in a `Slab<Container>` (common/slab.hpp): pointer-stable,
/// freelist-recycled, iterated in insertion order — so monitor/scaler sweeps
/// over `live()` are allocation-free and byte-identical to the
/// `vector<unique_ptr>` fleet this replaced. Its counts, its placement
/// choice and its reclamation candidate come from a FleetIndex
/// (cluster/fleet_index.hpp) that the containers keep current, so none of
/// them scans the fleet. The containers point at that index, so a stage
/// never moves or copies: build it in place.
class StageState {
 public:
  /// `service` and `metrics` are the stage's microservice and its metrics
  /// slot, resolved once by the request path so no per-task step looks
  /// them up by name; a standalone stage (tests, benches) has neither.
  StageState(StageProfile profile, SchedulerPolicy scheduler,
             const MicroserviceSpec* service = nullptr,
             StageMetrics* metrics = nullptr);
  StageState(const StageState&) = delete;
  StageState& operator=(const StageState&) = delete;

  const StageProfile& profile() const { return profile_; }
  const std::string& name() const { return profile_.stage; }
  const MicroserviceSpec* service() const { return service_; }
  StageMetrics* metrics() const { return metrics_; }

  // ----- global request queue -----

  /// Queues a task. `priority_key` is precomputed by the framework:
  /// deadline minus remaining busy time for LSF (time-invariant ordering),
  /// arrival sequence for FIFO.
  void enqueue(TaskRef task, double priority_key);

  bool queue_empty() const { return queue_.empty(); }
  std::size_t queue_length() const { return queue_.size(); }

  /// Pops the highest-priority task (least key). Precondition: !queue_empty().
  TaskRef pop_next();

  /// Peeks the highest-priority task's key without popping.
  double peek_key() const;

  // ----- container fleet -----

  /// Admits a freshly spawned container into the fleet slab and the fleet
  /// index, and stamps its slab handle. The container's service name is
  /// this stage's.
  Container& add_container(ContainerId id, NodeId node, int batch_size,
                           SimTime spawned_at, SimDuration cold_start_ms);

  /// Greedy candidate selection (paper §4.4.1): among *warm* containers
  /// with at least one free slot, pick the one with the fewest free slots
  /// (encourages early scale-in of lightly loaded containers), the earliest
  /// admitted on ties. Tasks are never bound to still-provisioning
  /// containers — they stay in the global queue and are pulled when the
  /// cold start finishes, exactly as Brigade's worker schedules only onto
  /// running pods. Returns nullptr when no warm container has a slot. O(1):
  /// the top of the index's placement heap.
  Container* select_container() { return index_.best_fit(); }

  /// The idle, empty container used least recently (earliest last_used_at,
  /// the earliest admitted on ties): this stage's candidate when idle
  /// capacity is reclaimed under cluster pressure. nullptr when none. O(1).
  Container* least_recently_used_idle() {
    return index_.least_recently_used_idle();
  }

  /// Container lookup by id (throws std::out_of_range when absent/reaped).
  /// Linear; hot paths use `get()` with the container's slab handle.
  Container& container(ContainerId id);

  /// O(1) handle dereference; nullptr when the handle went stale (the
  /// container was reaped).
  Container* get(SlabHandle<Container> h) { return containers_.get(h); }
  const Container* get(SlabHandle<Container> h) const {
    return containers_.get(h);
  }

  /// Non-allocating filtered range over live (non-terminated) containers,
  /// in admission order. One template serves const and non-const callers —
  /// the duplicated `live_containers()` pair this replaced drifted apart
  /// once already.
  template <typename It>
  class LiveRangeT {
   public:
    class iterator {
     public:
      iterator(It it, It end) : it_(it), end_(end) { skip(); }
      decltype(*std::declval<It>()) operator*() const { return *it_; }
      iterator& operator++() {
        ++it_;
        skip();
        return *this;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.it_ == b.it_;
      }
      friend bool operator!=(const iterator& a, const iterator& b) {
        return !(a == b);
      }

     private:
      void skip() {
        while (it_ != end_ && it_->terminated()) ++it_;
      }
      It it_, end_;
    };

    LiveRangeT(It begin, It end) : begin_(begin), end_(end) {}
    iterator begin() const { return iterator(begin_, end_); }
    iterator end() const { return iterator(end_, end_); }

   private:
    It begin_, end_;
  };

  using LiveRange = LiveRangeT<Slab<Container>::iterator>;
  using ConstLiveRange = LiveRangeT<Slab<Container>::const_iterator>;

  /// All live (non-terminated) containers, as a zero-allocation view.
  LiveRange live() { return {containers_.begin(), containers_.end()}; }
  ConstLiveRange live() const {
    return {containers_.begin(), containers_.end()};
  }

  // Fleet counts: O(1) reads of the fleet index.
  std::size_t live_count() const { return index_.live_count(); }
  std::size_t warm_count() const { return index_.warm_count(); }
  std::size_t provisioning_count() const { return index_.provisioning_count(); }

  /// Total free slots across live containers.
  int total_free_slots() const { return index_.total_free_slots(); }
  /// Free slots on warm containers only.
  int warm_free_slots() const { return index_.warm_free_slots(); }
  /// Slot capacity of containers still cold-starting (they will pull from
  /// the global queue when ready, so pending spawns count as future supply).
  int provisioning_slots() const { return index_.provisioning_slots(); }
  /// Total slot capacity (live containers x batch size) — Algorithm 1b's
  /// "current_req".
  int total_capacity() const { return index_.total_capacity(); }

  /// Recomputes every fleet count, the placement choice and the
  /// reclamation candidate by scanning the fleet, and describes each one
  /// the index disagrees on; empty when they all match. The reference for
  /// the index (the housekeeping tick's FIFER_DCHECK).
  std::string audit_fleet_index() const;

  /// Removes terminated containers from the fleet (driver reaps after
  /// releasing node resources). Their slab slots return to the freelist;
  /// handles to them go stale.
  void erase_terminated();

  // ----- load-monitor bookkeeping -----

  /// Floor below which the idle reaper will not shrink this stage's fleet.
  /// The proactive scaler maintains it at the current forecast target so
  /// reap-then-respawn churn (and its pointless cold starts) cannot occur.
  int keep_warm_floor() const { return keep_warm_floor_; }
  void set_keep_warm_floor(int n) { keep_warm_floor_ = n < 0 ? 0 : n; }

  /// Records a task's queue wait when it begins execution; the reactive
  /// monitor asks for the recent average (Algorithm 1a's Calculate_Delay).
  void record_wait(SimTime now, SimDuration wait_ms);

  /// Mean queue wait of tasks that started execution within the trailing
  /// `horizon_ms` (the paper's "last 10 s of jobs"); 0 when none.
  SimDuration recent_mean_wait_ms(SimTime now, SimDuration horizon_ms) const;

  std::uint64_t total_enqueued() const { return total_enqueued_; }

 private:
  struct QueueEntry {
    double key;
    std::uint64_t seq;
    TaskRef task;
    bool operator>(const QueueEntry& o) const {
      if (key != o.key) return key > o.key;
      return seq > o.seq;
    }
  };

  StageProfile profile_;
  SchedulerPolicy scheduler_;
  const MicroserviceSpec* service_;
  StageMetrics* metrics_;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> queue_;
  std::uint64_t seq_ = 0;
  std::uint64_t total_enqueued_ = 0;
  std::uint64_t total_dequeued_ = 0;

  FleetIndex index_;
  Slab<Container> containers_;
  int keep_warm_floor_ = 0;

  std::deque<std::pair<SimTime, SimDuration>> recent_waits_;
};

}  // namespace fifer
