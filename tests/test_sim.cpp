// Unit tests for the discrete-event engine: the event queue (src/sim) and
// the one driver's fire loop under the virtual clock (src/core/framework).

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/framework.hpp"
#include "core/policy/scaler.hpp"
#include "sim/event_queue.hpp"
#include "workload/generators.hpp"

namespace fifer {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30.0, [&] { order.push_back(3); });
  q.schedule(10.0, [&] { order.push_back(1); });
  q.schedule(20.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto f = q.pop();
    f.callback();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EmptyBehaviour) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kNeverTime);
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, RejectsSchedulingIntoThePast) {
  EventQueue q;
  q.schedule(10.0, [] {});
  q.pop().callback();
  EXPECT_DOUBLE_EQ(q.watermark(), 10.0);
  EXPECT_THROW(q.schedule(5.0, [] {}), std::logic_error);
  EXPECT_NO_THROW(q.schedule(10.0, [] {}));  // same time is fine
}

TEST(EventQueue, FiredSlotsRecycleCorrectly) {
  // Each round fires one event and schedules the next into its freed slot;
  // a capture must fire exactly once and never leak into the slot's next
  // tenant.
  EventQueue q;
  auto fired = std::make_shared<int>(0);
  double t = 0.0;
  q.schedule(t, [fired] { ++*fired; });
  for (int round = 0; round < 50; ++round) {
    t += 1.0;
    q.schedule(t, [fired] { ++*fired; });
    q.pop().callback();
    EXPECT_EQ(q.size(), 1u);
  }
  q.pop().callback();
  EXPECT_EQ(*fired, 51);
  EXPECT_TRUE(q.empty());
  // Every popped capture is gone: only the test's reference is left.
  EXPECT_EQ(fired.use_count(), 1);
}

// ------------------------------------------- the driver, virtual clock

/// A scaler that only registers the periodic steps a test hands it, through
/// the PolicyContext every policy sees.
class TickScaler final : public Scaler {
 public:
  explicit TickScaler(std::function<void(PolicyContext&)> install)
      : install_(std::move(install)) {}
  const char* name() const override { return "ticks"; }
  void install(PolicyContext& ctx) override { install_(ctx); }

 private:
  std::function<void(PolicyContext&)> install_;
};

/// A run of `duration_s` simulated seconds with no arrivals, whose scaler
/// registers what `install` registers.
ExperimentParams tick_params(double duration_s,
                             std::function<void(PolicyContext&)> install) {
  ExperimentParams p;
  p.rm = RmConfig::rscale();
  p.trace = poisson_trace(duration_s, 0.0);
  p.policy_factory = [install = std::move(install)](ExperimentParams& params) {
    PolicyEngine e = params.rm.assemble(params);
    e.scaler = std::make_unique<TickScaler>(install);
    return e;
  };
  return p;
}

TEST(Simulation, AtAndAfterAdvanceClock) {
  // Every event reads its own time: a tick at its grid point, and an
  // `after` step at the tick's time plus its delay.
  Driver<VirtualClock>* driver = nullptr;
  std::vector<SimTime> ticks;
  std::vector<SimTime> afters;
  auto p = tick_params(20.0, [&](PolicyContext& ctx) {
    ctx.every(seconds(4.0), [&](SimTime now) {
      ticks.push_back(now);
      EXPECT_DOUBLE_EQ(driver->now(), now);
      driver->after(50.0, [&] { afters.push_back(driver->now()); });
    });
  });
  Driver<VirtualClock> d(std::move(p));
  driver = &d;
  const LiveRunReport r = d.run();
  EXPECT_EQ(ticks, (std::vector<SimTime>{4000.0, 8000.0, 12000.0, 16000.0, 20000.0}));
  EXPECT_EQ(afters, (std::vector<SimTime>{4050.0, 8050.0, 12050.0, 16050.0}));
  EXPECT_EQ(r.timer_events, r.result.sim_events);
}

TEST(Simulation, NestedSchedulingWorks) {
  Driver<VirtualClock>* driver = nullptr;
  std::vector<SimTime> times;
  auto p = tick_params(10.0, [&](PolicyContext& ctx) {
    ctx.every(seconds(4.0), [&](SimTime) {
      driver->after(10.0, [&] {
        times.push_back(driver->now());
        driver->after(5.0, [&] { times.push_back(driver->now()); });
      });
    });
  });
  Driver<VirtualClock> d(std::move(p));
  driver = &d;
  d.run();
  EXPECT_EQ(times, (std::vector<SimTime>{4010.0, 4015.0, 8010.0, 8015.0}));
}

TEST(Simulation, IdleGapJumpsToTheDrainCheck) {
  // Nothing is due between 10 s and the trace end at 15 s: the clock
  // jumps over the gap to the next drain check at 20 s, and the run ends
  // there, not at its last event.
  std::vector<SimTime> ticks;
  auto p = tick_params(15.0, [&](PolicyContext& ctx) {
    ctx.every(seconds(7.0), [&](SimTime now) { ticks.push_back(now); });
  });
  p.housekeeping_interval_ms = minutes(1.0);
  const LiveRunReport r = Driver<VirtualClock>(std::move(p)).run();
  EXPECT_EQ(ticks, (std::vector<SimTime>{7000.0, 14000.0}));
  EXPECT_TRUE(r.drained);
  EXPECT_DOUBLE_EQ(r.sim_duration_ms, 20000.0);
  EXPECT_DOUBLE_EQ(r.result.duration_ms, 20000.0);
}

TEST(Simulation, EventAtDeadlineBoundaryFires) {
  // The trace ends at 10 s, so the run may end at the 10-s drain check; the
  // step due exactly there fires first.
  std::vector<SimTime> ticks;
  auto p = tick_params(10.0, [&](PolicyContext& ctx) {
    ctx.every(seconds(5.0), [&](SimTime now) { ticks.push_back(now); });
  });
  const ExperimentResult r = run_experiment(std::move(p));
  EXPECT_EQ(ticks, (std::vector<SimTime>{5000.0, 10000.0}));
  EXPECT_DOUBLE_EQ(r.duration_ms, 10000.0);
}

TEST(Simulation, EveryRepeats) {
  // Periodic steps repeat on their grid; same-time steps fire in the order
  // they were registered.
  std::vector<std::pair<int, SimTime>> fired;
  auto p = tick_params(10.0, [&](PolicyContext& ctx) {
    for (int k = 0; k < 3; ++k) {
      ctx.every(seconds(2.5), [&fired, k](SimTime now) { fired.emplace_back(k, now); });
    }
  });
  run_experiment(std::move(p));
  ASSERT_EQ(fired.size(), 12u);  // t = 2.5, 5, 7.5, 10 s, three steps each
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].first, static_cast<int>(i % 3)) << "step " << i;
    EXPECT_DOUBLE_EQ(fired[i].second, 2500.0 * static_cast<double>(i / 3 + 1))
        << "step " << i;
  }
}

TEST(Simulation, EveryRejectsNonPositivePeriod) {
  for (const SimDuration period : {0.0, -5.0}) {
    auto p = tick_params(10.0, [period](PolicyContext& ctx) {
      ctx.every(period, [](SimTime) {});
    });
    EXPECT_THROW(run_experiment(std::move(p)), std::invalid_argument) << period;
  }
  // The housekeeping period goes through the same check.
  auto p = tick_params(10.0, [](PolicyContext&) {});
  p.housekeeping_interval_ms = 0.0;
  EXPECT_THROW(run_experiment(std::move(p)), std::invalid_argument);
}

TEST(Simulation, AfterClampsNegativeDelay) {
  // A negative delay runs now: the step fires at the tick's own time.
  Driver<VirtualClock>* driver = nullptr;
  std::vector<SimTime> times;
  auto p = tick_params(10.0, [&](PolicyContext& ctx) {
    ctx.every(seconds(3.0), [&](SimTime) {
      driver->after(-10.0, [&] { times.push_back(driver->now()); });
    });
  });
  Driver<VirtualClock> d(std::move(p));
  driver = &d;
  d.run();
  EXPECT_EQ(times, (std::vector<SimTime>{3000.0, 6000.0, 9000.0}));
}

TEST(Simulation, ManyEventsExecuteExactlyOnce) {
  Driver<VirtualClock>* driver = nullptr;
  int count = 0;
  auto p = tick_params(10.0, [&](PolicyContext& ctx) {
    ctx.every(seconds(5.0), [&](SimTime now) {
      if (now > seconds(5.0)) return;
      for (int i = 0; i < 10000; ++i) {
        driver->after(static_cast<double>(i % 100), [&count] { ++count; });
      }
    });
  });
  Driver<VirtualClock> d(std::move(p));
  driver = &d;
  const LiveRunReport r = d.run();
  EXPECT_EQ(count, 10000);
  EXPECT_GT(r.result.sim_events, 10000u);
}

}  // namespace
}  // namespace fifer
