#pragma once

#include <chrono>

#include "common/types.hpp"

namespace fifer {

/// Wall-clock time source of live runs, with time compression: the time
/// source of the driver's scaled wall clock (core/framework.hpp).
///
/// The simulator and live mode share one time axis — simulated
/// milliseconds (`SimTime`) — so the same `PolicyEngine` strategies, SLOs,
/// and monitoring cadences run unchanged in either mode. The live clock maps
/// that axis onto `std::chrono::steady_clock` through a compression factor:
/// at `scale = 100`, one wall millisecond is 100 simulated milliseconds, so
/// the paper's 1000 ms SLO becomes a 10 ms wall budget and a 10-minute trace
/// replays in 6 wall seconds. `scale = 1` is real time.
///
/// The clock reads 0 until `start()` anchors it. That two-phase start is
/// load-bearing: offline work (LSTM pre-training, static pool sizing) runs
/// before the anchor, so wall time spent there does not leak into the
/// experiment's simulated timeline.
///
/// Thread-safety: deliberately lock-free and unannotated. The anchor is
/// configuration written exactly once by the driver's `run()` before any
/// other thread reads the clock (the serving front-end's I/O thread starts
/// after `start()`), and every later access is a read — the one shape of
/// shared state the annotation contract of common/sync.hpp exempts. TSan
/// verifies the publish ordering in CI.
class LiveClock {
 public:
  using WallClock = std::chrono::steady_clock;
  using WallTime = WallClock::time_point;

  /// `scale` = simulated ms per wall ms; clamped to a small positive value.
  explicit LiveClock(double scale);

  double scale() const { return scale_; }
  bool started() const { return started_; }

  /// Anchors simulated t = 0 at the current wall instant. Call exactly once,
  /// before any thread reads the clock concurrently (the anchor is written
  /// unsynchronized by design — it is configuration, not shared state).
  void start();

  /// Simulated milliseconds since start(); 0.0 before the anchor is set.
  SimTime now_ms() const;

  /// Wall instant at which simulated time `t` is reached. Deadlines in the
  /// past come back as-is; sleepers fire immediately (an open-loop load
  /// generator does the same when it falls behind).
  WallTime wall_deadline(SimTime t) const;

  /// Wall duration equivalent of a simulated duration.
  std::chrono::nanoseconds wall_duration(SimDuration sim_ms) const;

 private:
  double scale_;
  bool started_ = false;
  WallTime anchor_{};
};

}  // namespace fifer
