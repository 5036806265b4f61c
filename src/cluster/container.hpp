#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/slab.hpp"
#include "common/types.hpp"
#include "workload/request.hpp"

namespace fifer {

class FleetIndex;

/// Lifecycle states of a container.
enum class ContainerState {
  kProvisioning,  ///< Spawned; cold start in progress.
  kIdle,          ///< Warm, no task executing.
  kBusy,          ///< Warm, executing a task.
  kTerminated,    ///< Reaped (idle timeout or shutdown).
};

const char* to_string(ContainerState s);

/// One warm-able container hosting a single microservice (function).
///
/// A container owns a local queue whose capacity is its batch size
/// (`B_size`, the paper §3): the number of requests that may be queued at /
/// executed by this container back-to-back without violating the stage's
/// slack. The scheduling and scaling *decisions* live in `core/`; this class
/// only tracks occupancy and lifecycle.
///
/// A container admitted into a stage's fleet reports every change of state,
/// occupancy, B_size or last use to that stage's FleetIndex
/// (cluster/fleet_index.hpp): each mutator snapshots its Footprint first and
/// hands it to the index afterwards. A standalone container reports nowhere.
/// The index holds pointers to it, so a container never moves or copies.
class Container {
 public:
  Container(ContainerId id, std::string service, NodeId node, int batch_size,
            SimTime spawned_at, SimDuration cold_start_ms);
  Container(const Container&) = delete;
  Container& operator=(const Container&) = delete;

  ContainerId id() const { return id_; }
  const std::string& service() const { return service_; }
  NodeId node() const { return node_; }

  /// This container's slot in its stage's slab registry (set by StageState
  /// at admission). Lets records and policies address the container in O(1)
  /// without a fleet scan, and goes stale the moment the container is
  /// reaped — see common/slab.hpp.
  SlabHandle<Container> handle() const { return handle_; }
  void set_handle(SlabHandle<Container> h) { handle_ = h; }

  int batch_size() const { return batch_size_; }
  /// Allows the load balancer to retune B_size when slack policy changes.
  void set_batch_size(int b);

  ContainerState state() const { return state_; }
  bool warm() const {
    return state_ == ContainerState::kIdle || state_ == ContainerState::kBusy;
  }
  bool terminated() const { return state_ == ContainerState::kTerminated; }

  SimTime spawned_at() const { return spawned_at_; }
  /// When the cold start finishes and the container can execute.
  SimTime ready_at() const { return ready_at_; }
  SimDuration cold_start_ms() const { return ready_at_ - spawned_at_; }

  /// Marks the cold start finished (driver calls this at ready_at()).
  void mark_warm(SimTime now);

  /// Slots currently in use: queued tasks plus the in-flight one. Inline —
  /// every mutator's report to the fleet index calls it.
  int occupied() const {
    return static_cast<int>(queued()) + (executing_ ? 1 : 0);
  }

  /// Slots still available in the local queue. A busy container's in-flight
  /// task occupies one slot, matching the paper's definition of free slots
  /// as batch size minus queued work.
  int free_slots() const {
    if (terminated()) return 0;
    const int n = batch_size_ - occupied();
    return n > 0 ? n : 0;
  }

  /// Number of tasks waiting in the local queue (excluding in-flight).
  std::size_t queued() const { return local_queue_.size() - queue_head_; }

  /// Enqueues a task (precondition: free_slots() > 0).
  void enqueue(TaskRef task);

  /// Pops the next local task (FIFO within a container; cross-container
  /// ordering is the scheduler's job). Precondition: queued() > 0.
  TaskRef pop();

  bool executing() const { return executing_; }
  void begin_execution(SimTime now);
  void end_execution(SimTime now);

  SimTime last_used_at() const { return last_used_at_; }
  std::uint64_t jobs_executed() const { return jobs_executed_; }

  /// Whether the container has been idle (warm, empty) since before
  /// `now - idle_timeout`.
  bool idle_expired(SimTime now, SimDuration idle_timeout) const;

  void terminate(SimTime now);

  /// Busy time accumulated; used for utilization metrics.
  SimDuration busy_ms() const { return busy_ms_; }

 private:
  friend class FleetIndex;
  static constexpr std::uint32_t kNotIndexed = 0xffffffffu;

  /// What the container adds to its stage's fleet counts.
  struct Footprint {
    ContainerState state;
    int free_slots;
    int batch_size;
  };
  Footprint footprint() const { return {state_, free_slots(), batch_size_}; }
  /// Hands the pre-change footprint to the fleet index, if any.
  void report(const Footprint& before);

  ContainerId id_;
  SlabHandle<Container> handle_;
  std::string service_;
  NodeId node_;
  int batch_size_;
  SimTime spawned_at_;
  SimTime ready_at_;
  SimTime last_used_at_;
  ContainerState state_ = ContainerState::kProvisioning;
  bool executing_ = false;
  /// FIFO local queue as a compacting vector ring: pops advance queue_head_
  /// and the buffer resets when drained, so its capacity settles at B_size
  /// and steady-state enqueue/pop never allocates (unlike the deque this
  /// replaced, which churned block allocations under sustained cycling).
  std::vector<TaskRef> local_queue_;
  std::size_t queue_head_ = 0;
  std::uint64_t jobs_executed_ = 0;
  SimDuration busy_ms_ = 0.0;
  SimTime exec_started_at_ = 0.0;
  /// FleetIndex bookkeeping: the index this container reports to, its
  /// admission order within the stage, and its positions in the index's
  /// placement and idle heaps (kNotIndexed when not a member).
  FleetIndex* index_ = nullptr;
  std::uint64_t admission_seq_ = 0;
  std::uint32_t placement_pos_ = kNotIndexed;
  std::uint32_t idle_pos_ = kNotIndexed;
};

}  // namespace fifer
