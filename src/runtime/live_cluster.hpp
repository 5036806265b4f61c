#pragma once

#include <cstddef>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/slab.hpp"
#include "common/sync.hpp"
#include "common/types.hpp"
#include "runtime/live_container.hpp"

namespace fifer {

/// The live runtime's worker threads: one `LiveContainer` per live
/// container, animating the passive containers that the request path's
/// `Cluster` accounts for.
///
/// Workers live in a `Slab<LiveContainer>` (DESIGN.md §5g): stable storage
/// (threads hold `this` across their lifetime), O(1) id -> worker lookup via
/// a handle index, and no per-worker heap node beyond the slab chunk.
///
/// Two locking domains:
///  - `adopt` / `worker` / `retire` run inside request-path steps, with the
///    runtime state lock held, exactly as the simulator serializes spawns
///    and terminations on its event loop.
///  - Thread lifecycle (`join_retired`, shutdown) has its own small mutex,
///    because joins must happen *without* the runtime lock: a worker blocked
///    on that lock in a callback would deadlock a joiner holding it. Slab
///    storage for a joined worker is reclaimed later, back under the runtime
///    lock (`adopt` / `retire` drain the joined list), so the two domains
///    never touch the slab concurrently.
class LiveCluster {
 public:
  LiveCluster();

  // ----- workers (caller holds the runtime state lock) -----

  /// Constructs a worker in place (LiveContainer is neither copyable nor
  /// movable — it owns a thread). `args...` forward to
  /// `LiveContainer(id, args...)`.
  template <typename... Args>
  LiveContainer& adopt(ContainerId id, Args&&... args) {
    reap_joined();
    const std::uint64_t key = value_of(id);
    check_new_worker(key);
    const SlabHandle<LiveContainer> h =
        workers_.emplace(id, std::forward<Args>(args)...);
    index_.emplace(key, h);
    if (index_.size() > peak_workers_) peak_workers_ = index_.size();
    return *workers_.get(h);
  }

  /// Lookup; nullptr once retired.
  LiveContainer* worker(ContainerId id);

  /// Stops `id`'s worker and moves it to the retirement list; the thread is
  /// joined later by `join_retired` (off the runtime lock) and its slab slot
  /// reclaimed on a later pass through here. Called for idle-reap and
  /// scale-down terminations.
  void retire(ContainerId id);

  /// High-water mark of concurrently live worker threads.
  std::size_t peak_workers() const { return peak_workers_; }

  // ----- thread lifecycle (call WITHOUT the runtime state lock) -----

  /// Joins retired workers. Cheap when none are pending; call it from the
  /// run loop so long runs do not accumulate exited threads.
  void join_retired() FIFER_EXCLUDES(retired_mu_);

  /// Shutdown: stop every remaining worker, then join them all. Only from
  /// the single-threaded teardown phase (no locks contended).
  void stop_and_join_all() FIFER_EXCLUDES(retired_mu_);

 private:
  /// One retired worker: the pointer the joiner uses (slab storage is
  /// stable) and the handle the reaper erases.
  struct Retired {
    LiveContainer* worker;
    SlabHandle<LiveContainer> handle;
  };

  void check_new_worker(std::uint64_t key) const;
  /// Reclaims slab slots of already-joined workers; runtime lock held.
  void reap_joined() FIFER_EXCLUDES(retired_mu_);

  // The members below (workers_, index_, peak_workers_) are serialized
  // externally by the runtime state lock — LiveRuntime::mu_ — per the
  // "caller holds the runtime state lock" section above; a member
  // annotation cannot name another object's mutex, so this is
  // contract-by-comment, checked by the lock-order ranks at run time.
  Slab<LiveContainer> workers_;
  std::unordered_map<std::uint64_t, SlabHandle<LiveContainer>> index_;
  std::size_t peak_workers_ = 0;

  mutable Mutex retired_mu_;
  /// Stopped but not yet joined (drained by join_retired, no runtime lock).
  std::vector<Retired> retired_ FIFER_GUARDED_BY(retired_mu_);
  /// Joined but slab slot not yet reclaimed (drained by reap_joined, under
  /// the runtime lock).
  std::vector<SlabHandle<LiveContainer>> joined_ FIFER_GUARDED_BY(retired_mu_);
};

}  // namespace fifer
