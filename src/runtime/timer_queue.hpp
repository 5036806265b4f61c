#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/inline_function.hpp"
#include "common/sync.hpp"
#include "common/types.hpp"
#include "runtime/clock.hpp"

namespace fifer {

/// Wall-clock analogue of `sim/event_queue`: callbacks scheduled at
/// simulated deadlines, fired on the driving thread when the scaled wall
/// clock reaches them. This is what carries everything in the live runtime
/// that is an *event* rather than a container's own work: arrival replay,
/// event-bus transition deliveries, the scaler's periodic ticks, and
/// housekeeping.
///
/// Threading contract:
///  - `at` / `every` / `notify` may be called from any thread (timer
///    callbacks and container worker threads both schedule follow-ups).
///    `mu_` is a `lock_rank::kRuntimeLeaf` lock: the runtime state lock may
///    be held while scheduling, never the other way around.
///  - `run` executes callbacks on the calling thread only, with no internal
///    lock held — callbacks are free to take the runtime's state lock and to
///    schedule further timers.
///  - Same-deadline callbacks fire in registration order (the determinism
///    contract the simulator's event queue established; under wall-clock
///    jitter this is best-effort rather than exact, but the tie-break keeps
///    the common case — periodic ticks registered back-to-back — stable).
class WallTimerQueue {
 public:
  /// Move-only, with its capture stored inline: wide enough to carry a
  /// request-path step (`Pacer::Callback`) plus the runtime pointer that
  /// locks around it. Each scheduled entry still makes one shared_ptr
  /// allocation to hold it (see Entry).
  using Callback = InlineFunction<void(SimTime), 96>;

  explicit WallTimerQueue(const LiveClock& clock);

  /// Schedules `cb` at simulated time `when` (past deadlines fire at the
  /// next loop iteration).
  void at(SimTime when, Callback cb) FIFER_EXCLUDES(mu_);

  /// Schedules `cb` every `period` simulated ms, first at now + period.
  /// When the loop falls behind (a callback overran the period), missed
  /// occurrences are skipped rather than replayed in a burst — a live
  /// monitoring tick wants "at this cadence", not "this many times".
  void every(SimDuration period, Callback cb) FIFER_EXCLUDES(mu_);

  /// Wakes `run` so it re-evaluates `done` (call after externally visible
  /// progress, e.g. a job completing on a worker thread).
  void notify() FIFER_EXCLUDES(mu_);

  /// Runs callbacks in deadline order on the calling thread until `done()`
  /// returns true (checked between callbacks and on every wakeup) or the
  /// wall deadline passes. `done` is called with no queue lock held.
  /// Returns the number of callbacks executed.
  std::uint64_t run(const std::function<bool()>& done,
                    LiveClock::WallTime hard_deadline) FIFER_EXCLUDES(mu_);

  std::uint64_t executed() const { return executed_; }

  /// Number of scheduled entries not yet fired (periodic entries count as
  /// one — they re-arm on fire). Callable from any thread; the server's
  /// drain path uses it to tell "idle" from "work still scheduled".
  std::size_t pending() FIFER_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return queue_.size();
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    SimDuration period;  ///< 0 = one-shot.
    // Shared so the priority queue's value type stays copyable; each entry
    // has exactly one owner at a time.
    std::shared_ptr<Callback> cb;
    bool operator>(const Entry& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };

  const LiveClock& clock_;
  Mutex mu_;
  CondVar cv_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_
      FIFER_GUARDED_BY(mu_);
  std::uint64_t seq_ FIFER_GUARDED_BY(mu_) = 0;
  std::uint64_t wake_generation_ FIFER_GUARDED_BY(mu_) = 0;
  /// Touched only by `run` on the driving thread; not shared.
  std::uint64_t executed_ = 0;
};

}  // namespace fifer
