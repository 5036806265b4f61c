#include "sim/clock.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace fifer {

LiveClock::LiveClock(double scale) : scale_(std::max(scale, 1e-6)) {}

void LiveClock::start() {
  FIFER_CHECK(!started_, kCommon) << "LiveClock started twice";
  anchor_ = WallClock::now();
  started_ = true;
}

SimTime LiveClock::now_ms() const {
  if (!started_) return 0.0;
  const std::chrono::duration<double, std::milli> wall = WallClock::now() - anchor_;
  return wall.count() * scale_;
}

LiveClock::WallTime LiveClock::wall_deadline(SimTime t) const {
  const WallTime base = started_ ? anchor_ : WallClock::now();
  return base + wall_duration(t < 0.0 ? 0.0 : t);
}

std::chrono::nanoseconds LiveClock::wall_duration(SimDuration sim_ms) const {
  const double wall_ns = sim_ms / scale_ * 1e6;
  return std::chrono::nanoseconds(
      static_cast<std::chrono::nanoseconds::rep>(wall_ns < 0.0 ? 0.0 : wall_ns));
}

}  // namespace fifer
