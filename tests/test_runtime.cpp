// Live-mode runtime tests: clock compression, wall-timer ordering, the
// container worker lifecycle, bounded shutdown, and — the headline contract —
// sim-vs-live fidelity on the same preset/trace/seed.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "obs/recording_sink.hpp"
#include "runtime/live_runtime.hpp"
#include "workload/generators.hpp"

// Timing-sensitive assertions are meaningless under sanitizer slowdown;
// those tests skip themselves and CI runs them in the release leg instead.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define FIFER_SANITIZED 1
#endif
#if !defined(FIFER_SANITIZED) && defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FIFER_SANITIZED 1
#endif
#endif

namespace fifer {
namespace {

// ------------------------------------------------------------------- clock

TEST(LiveClock, ReadsZeroBeforeStart) {
  LiveClock clock(100.0);
  EXPECT_FALSE(clock.started());
  EXPECT_DOUBLE_EQ(clock.now_ms(), 0.0);
  clock.start();
  EXPECT_TRUE(clock.started());
}

TEST(LiveClock, CompressesWallDurations) {
  LiveClock clock(100.0);
  // 500 simulated ms at 100x compression = 5 wall ms.
  EXPECT_EQ(clock.wall_duration(500.0), std::chrono::milliseconds(5));
  LiveClock real_time(1.0);
  EXPECT_EQ(real_time.wall_duration(250.0), std::chrono::milliseconds(250));
}

TEST(LiveClock, NowAdvancesAtScale) {
  LiveClock clock(100.0);
  clock.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const SimTime t = clock.now_ms();
  EXPECT_GE(t, 500.0);  // slept >= 5 wall ms, so >= 500 simulated ms
}

TEST(LiveClock, DeadlinesAreScaleSpaced) {
  LiveClock clock(10.0);
  clock.start();
  const auto d1 = clock.wall_deadline(100.0);
  const auto d2 = clock.wall_deadline(200.0);
  // 100 simulated ms apart at 10x = 10 wall ms apart.
  EXPECT_EQ(std::chrono::duration_cast<std::chrono::milliseconds>(d2 - d1),
            std::chrono::milliseconds(10));
}

// ------------------------------------------------------------- timer queue

TEST(WallTimerQueue, FiresInDeadlineOrderWithStableTies) {
  LiveClock clock(1000.0);  // 1 wall ms = 1 simulated second
  WallTimerQueue timers(clock);
  std::vector<int> order;
  timers.at(50.0, [&](SimTime) { order.push_back(2); });
  timers.at(10.0, [&](SimTime) { order.push_back(1); });
  timers.at(50.0, [&](SimTime) { order.push_back(3); });  // tie: after 2
  clock.start();
  timers.run([&] { return order.size() == 3; },
             LiveClock::WallClock::now() + std::chrono::seconds(20));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(WallTimerQueue, PeriodicTicksKeepFiring) {
  LiveClock clock(1000.0);
  WallTimerQueue timers(clock);
  int ticks = 0;
  clock.start();
  timers.every(seconds(1.0), [&](SimTime) { ++ticks; });
  timers.run([&] { return ticks >= 3; },
             LiveClock::WallClock::now() + std::chrono::seconds(20));
  EXPECT_GE(ticks, 3);
}

TEST(WallTimerQueue, NotifyWakesTheDonePredicate) {
  LiveClock clock(1.0);
  WallTimerQueue timers(clock);
  std::atomic<bool> flag{false};
  clock.start();
  // Only a far-future entry in the queue: without notify() the loop would
  // sleep toward it; the external thread must be able to wake it early.
  timers.at(minutes(10.0), [](SimTime) {});
  std::thread poker([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    flag = true;
    timers.notify();
  });
  const auto t0 = LiveClock::WallClock::now();
  timers.run([&] { return flag.load(); },
             LiveClock::WallClock::now() + std::chrono::seconds(30));
  poker.join();
  EXPECT_TRUE(flag.load());
  EXPECT_LT(LiveClock::WallClock::now() - t0, std::chrono::seconds(25));
}

TEST(WallTimerQueue, PendingCountsQueuedTimers) {
  LiveClock clock(1000.0);
  WallTimerQueue timers(clock);
  EXPECT_EQ(timers.pending(), 0u);
  timers.at(minutes(10.0), [](SimTime) {});
  timers.at(minutes(20.0), [](SimTime) {});
  timers.every(minutes(1.0), [](SimTime) {});
  EXPECT_EQ(timers.pending(), 3u);

  // One-shots are consumed when fired; periodic entries re-arm themselves.
  LiveClock fast(1000.0);
  WallTimerQueue firing(fast);
  int fired = 0;
  firing.at(10.0, [&](SimTime) { ++fired; });
  firing.every(seconds(1.0), [&](SimTime) {});
  fast.start();
  firing.run([&] { return fired >= 1; },
             LiveClock::WallClock::now() + std::chrono::seconds(20));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(firing.pending(), 1u);  // only the periodic survives
}

TEST(WallTimerQueue, NotifyRacesHardDeadlineExpiry) {
  // Hammer notify() from another thread while run() expires on its hard
  // wall deadline: the loop must exit exactly once, with no hang and no
  // missed wakeup, whichever side wins the race.
  LiveClock clock(1.0);
  WallTimerQueue timers(clock);
  clock.start();
  timers.at(minutes(10.0), [](SimTime) {});

  std::atomic<bool> done{false};
  std::thread hammer([&] {
    while (!done.load(std::memory_order_acquire)) {
      timers.notify();
    }
  });

  const auto t0 = LiveClock::WallClock::now();
  // done-predicate never true: only the hard deadline can end the run.
  timers.run([] { return false; }, t0 + std::chrono::milliseconds(50));
  const auto wall = LiveClock::WallClock::now() - t0;
  done.store(true, std::memory_order_release);
  hammer.join();

  EXPECT_GE(wall, std::chrono::milliseconds(45));
  EXPECT_LT(wall, std::chrono::seconds(20));  // generous CI margin
  EXPECT_EQ(timers.pending(), 1u);  // the far-future entry never fired
}

// -------------------------------------------------------- container worker

/// Records the host callbacks a worker makes, in order, and lets the test
/// thread wait for a prefix to appear.
class MockHost : public LiveContainerHost {
 public:
  explicit MockHost(SimDuration exec_ms = 1.0) : exec_ms_(exec_ms) {}

  void on_container_ready(ContainerId) override { push("ready"); }
  SimDuration on_task_begin(ContainerId, TaskRef t) override {
    push("begin:" + std::to_string(value_of(t.job->id)));
    return exec_ms_;
  }
  void on_task_finish(ContainerId, TaskRef t) override {
    push("finish:" + std::to_string(value_of(t.job->id)));
  }

  std::vector<std::string> events() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_;
  }
  bool wait_for(std::size_t n, std::chrono::milliseconds budget) {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, budget, [&] { return events_.size() >= n; });
  }

 private:
  void push(std::string e) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      events_.push_back(std::move(e));
    }
    cv_.notify_all();
  }
  const SimDuration exec_ms_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::string> events_;
};

TEST(LiveContainer, ColdStartsThenServesItsQueueInOrder) {
  LiveClock clock(1000.0);
  MockHost host(/*exec_ms=*/500.0);  // 0.5 wall ms per task
  Job a, b, c;
  a.id = static_cast<JobId>(1);
  b.id = static_cast<JobId>(2);
  c.id = static_cast<JobId>(3);
  clock.start();
  LiveContainer worker(static_cast<ContainerId>(7), "ASR", clock,
                       /*spawned_at=*/0.0, /*cold_ms=*/seconds(1.0),
                       /*batch_capacity=*/2, &host);
  // The bounded batch queue: B_size slots, no more.
  EXPECT_TRUE(worker.submit(TaskRef{&a, 0}));
  EXPECT_TRUE(worker.submit(TaskRef{&b, 0}));
  EXPECT_FALSE(worker.submit(TaskRef{&c, 0}));
  worker.start();
  ASSERT_TRUE(host.wait_for(5, std::chrono::seconds(20)));
  worker.request_stop();
  worker.join();
  EXPECT_EQ(host.events(),
            (std::vector<std::string>{"ready", "begin:1", "finish:1",
                                      "begin:2", "finish:2"}));
}

TEST(LiveContainer, StopInterruptsTheColdStartSleep) {
  LiveClock clock(1.0);  // real time: the 10-minute cold start never elapses
  MockHost host;
  clock.start();
  LiveContainer worker(static_cast<ContainerId>(1), "ASR", clock, 0.0,
                       minutes(10.0), 1, &host);
  worker.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  worker.request_stop();
  worker.join();  // must return promptly, without the ready callback
  EXPECT_TRUE(host.events().empty());
}

TEST(LiveContainer, StartIsDeferredAndIdempotent) {
  LiveClock clock(1000.0);
  MockHost host;
  LiveContainer worker(static_cast<ContainerId>(1), "ASR", clock, 0.0, 100.0,
                       1, &host);
  // Not started: no thread, no callbacks.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(host.events().empty());
  clock.start();
  worker.start();
  worker.start();  // second call is a no-op
  ASSERT_TRUE(host.wait_for(1, std::chrono::seconds(20)));
  worker.request_stop();
  worker.join();
  EXPECT_EQ(host.events(), (std::vector<std::string>{"ready"}));
}

// --------------------------------------------------------------- live runs

ExperimentParams live_params(const RmConfig& rm, double duration_s,
                             double lambda, std::uint64_t seed = 7) {
  ExperimentParams p;
  p.rm = rm;
  p.rm.idle_timeout_ms = minutes(1.0);
  p.mix = WorkloadMix::heavy();
  p.trace = poisson_trace(duration_s, lambda);
  p.trace_name = "poisson";
  p.seed = seed;
  p.train.epochs = 2;
  return p;
}

// TSan-safe smoke: small workload, generous compression, no timing
// assertions — this is the live leg the sanitizer matrix runs.
TEST(LiveRuntime, SmokeDrainsAllJobs) {
  LiveOptions o;
  o.time_scale = 400.0;  // 20 s of trace in 50 ms of wall time (plus drain)
  const LiveRunReport r = run_live(live_params(RmConfig::rscale(), 20.0, 8.0), o);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.result.jobs_submitted, 50u);
  EXPECT_EQ(r.result.jobs_completed, r.result.jobs_submitted);
  EXPECT_GT(r.result.containers_spawned, 0u);
  EXPECT_GT(r.peak_worker_threads, 0u);
  // Arrivals, bus deliveries, and periodic ticks all ride the timer queue.
  EXPECT_GT(r.timer_events, r.result.jobs_submitted);
  EXPECT_DOUBLE_EQ(r.time_scale, 400.0);
}

// A trace that generates zero arrivals must still start, tick, and drain
// cleanly — the degenerate case of the replay pump (and the shape of an
// external serving run where no client ever connects).
TEST(LiveRuntime, ZeroArrivalTraceDrains) {
  LiveOptions o;
  o.time_scale = 400.0;
  const LiveRunReport r =
      run_live(live_params(RmConfig::rscale(), 10.0, /*lambda=*/0.0), o);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.result.jobs_submitted, 0u);
  EXPECT_EQ(r.result.jobs_completed, 0u);
}

// ---------------------------------------------------------- external gate

/// Minimal ExternalArrivalSource: submits `n` requests from its own thread
/// (the shape of the epoll thread in serving mode), then probes the gate's
/// rejection contract during stop(), when the runtime has already closed it.
class StubExternalSource : public ExternalArrivalSource {
 public:
  StubExternalSource(std::uint32_t n, std::vector<std::uint32_t> app_indices)
      : n_(n), app_indices_(std::move(app_indices)) {}

  void start(ExternalGate& gate, const LiveClock&) override {
    gate_ = &gate;
    worker_ = std::thread([this] {
      for (std::uint32_t i = 0; i < n_; ++i) {
        ExternalRequest req;
        req.app_index = app_indices_[i % app_indices_.size()];
        req.input_scale = 1.0;
        req.tag = i;
        if (gate_->submit(req) == ExternalGate::Admit::kAccepted) {
          accepted_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Out-of-range app indices are rejected at the gate, not crashed on.
      ExternalRequest bad;
      bad.app_index = 0xffffffffu;
      unknown_rejected_.store(
          gate_->submit(bad) == ExternalGate::Admit::kUnknownApp,
          std::memory_order_relaxed);
      done_.store(true, std::memory_order_release);
      gate_->wake();
    });
  }

  void on_completion(const ExternalCompletion& c) override {
    completion_order_ok_ =
        completion_order_ok_ && c.completion_ms >= c.arrival_ms;
    completions_.fetch_add(1, std::memory_order_release);
  }

  bool finished() override {
    return done_.load(std::memory_order_acquire) &&
           completions_.load(std::memory_order_acquire) ==
               accepted_.load(std::memory_order_acquire);
  }

  void stop() override {
    // The runtime closes the gate before calling stop(): a straggler submit
    // must bounce with kDraining (the submit-after-drain contract).
    ExternalRequest late;
    late.app_index = 0;
    drain_rejected_ = gate_->submit(late) == ExternalGate::Admit::kDraining;
    if (worker_.joinable()) worker_.join();
  }

  std::uint64_t accepted() const {
    return accepted_.load(std::memory_order_acquire);
  }
  std::uint64_t completions() const {
    return completions_.load(std::memory_order_acquire);
  }
  bool unknown_rejected() const {
    return unknown_rejected_.load(std::memory_order_acquire);
  }
  bool drain_rejected() const { return drain_rejected_; }
  bool completion_order_ok() const { return completion_order_ok_; }

 private:
  const std::uint32_t n_;
  const std::vector<std::uint32_t> app_indices_;
  ExternalGate* gate_ = nullptr;
  std::thread worker_;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> completions_{0};
  std::atomic<bool> done_{false};
  std::atomic<bool> unknown_rejected_{false};
  bool drain_rejected_ = false;      // written in stop(), read after run
  bool completion_order_ok_ = true;  // written under the state lock
};

TEST(LiveRuntime, ExternalSourceFeedsJobsThroughTheGate) {
  auto p = live_params(RmConfig::rscale(), 10.0, 5.0);
  // Only apps in the active mix are servable; map their names to the wire
  // protocol's registry-order indices.
  std::vector<std::uint32_t> servable;
  {
    std::uint32_t i = 0;
    for (const auto& chain : p.applications.all()) {
      for (const auto& entry : p.mix.entries()) {
        if (entry.app == chain.name) servable.push_back(i);
      }
      ++i;
    }
  }
  ASSERT_FALSE(servable.empty());
  StubExternalSource source(/*n=*/40, servable);
  LiveOptions o;
  o.time_scale = 400.0;
  o.max_wall_seconds = 60.0;
  o.external_source = &source;
  const LiveRunReport r = run_live(std::move(p), o);

  EXPECT_TRUE(r.drained);
  EXPECT_EQ(source.accepted(), 40u);
  EXPECT_EQ(source.completions(), 40u);
  EXPECT_EQ(r.result.jobs_submitted, 40u);
  EXPECT_EQ(r.result.jobs_completed, 40u);
  EXPECT_TRUE(source.unknown_rejected());
  EXPECT_TRUE(source.drain_rejected());
  EXPECT_TRUE(source.completion_order_ok());
}

// An external source that is finished before submitting anything: the run
// ends immediately with zero jobs (the serving-mode zero-request drain).
class EmptyExternalSource : public ExternalArrivalSource {
 public:
  void start(ExternalGate& gate, const LiveClock&) override { gate_ = &gate; }
  void on_completion(const ExternalCompletion&) override {}
  bool finished() override { return true; }
  void stop() override {
    ExternalRequest late;
    late.app_index = 0;
    drain_rejected_ = gate_->submit(late) == ExternalGate::Admit::kDraining;
  }
  bool drain_rejected() const { return drain_rejected_; }

 private:
  ExternalGate* gate_ = nullptr;
  bool drain_rejected_ = false;
};

TEST(LiveRuntime, ExternalSourceFinishedImmediatelyDrainsEmpty) {
  auto p = live_params(RmConfig::rscale(), 10.0, 5.0);
  EmptyExternalSource source;
  LiveOptions o;
  o.time_scale = 400.0;
  o.external_source = &source;
  const LiveRunReport r = run_live(std::move(p), o);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.result.jobs_submitted, 0u);
  EXPECT_TRUE(source.drain_rejected());
}

// The full Fifer policy — batching, LSF, reactive + proactive scaling with
// the EWMA predictor pre-trained offline — runs unchanged on the live path.
TEST(LiveRuntime, FiferPolicyRunsLive) {
  LiveOptions o;
  o.time_scale = 400.0;
  auto p = live_params(RmConfig::fifer(), 20.0, 8.0);
  const LiveRunReport r = run_live(std::move(p), o);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.result.jobs_completed, r.result.jobs_submitted);
  EXPECT_EQ(r.result.policy, "Fifer");
}

TEST(LiveRuntime, SpansAndDecisionsReachTheTraceSink) {
  auto p = live_params(RmConfig::fifer(), 10.0, 5.0);
  auto sink = std::make_shared<obs::RecordingTraceSink>();
  p.trace_sink = sink;
  LiveOptions o;
  o.time_scale = 400.0;
  const LiveRunReport r = run_live(std::move(p), o);
  ASSERT_TRUE(r.drained);
  // One span per executed task; decisions include batch-size, schedule,
  // place, and the scaler's entries — same decision log as the simulator.
  std::uint64_t tasks = 0;
  for (const auto& [name, st] : r.result.stages) tasks += st.tasks_executed;
  EXPECT_EQ(sink->spans().size(), tasks);
  EXPECT_GT(sink->decisions().size(), 0u);
}

TEST(LiveRuntime, BoundedShutdownHonorsTheWallBudget) {
#ifdef FIFER_SANITIZED
  GTEST_SKIP() << "wall-clock budget assertions are unreliable under sanitizers";
#endif
  // A 10-minute trace against a 0.5 s wall budget: the runtime must cut the
  // run at the budget, report drained = false, and still tear down cleanly
  // (workers joined, no callbacks after return).
  LiveOptions o;
  o.time_scale = 10.0;  // the full trace would need 60 wall seconds
  o.max_wall_seconds = 0.5;
  const auto t0 = std::chrono::steady_clock::now();
  const LiveRunReport r = run_live(live_params(RmConfig::rscale(), 600.0, 8.0), o);
  const auto wall = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(r.drained);
  EXPECT_LT(r.result.jobs_completed, r.result.jobs_submitted);
  EXPECT_LT(wall, std::chrono::seconds(30));  // generous CI margin
}

// ---------------------------------------------------------------- fidelity

// The Figure-8 contract at test scale: the simulator and the live prototype,
// given the same preset, trace, and seed, must agree within 5 percentage
// points of SLO-violation rate and 10% of peak container count.
TEST(LiveRuntime, FidelityMatchesSimulatorOnSharedSeed) {
#ifdef FIFER_SANITIZED
  GTEST_SKIP() << "timing fidelity is meaningless under sanitizer slowdown";
#endif
  // lambda is chosen so the offered load sits comfortably inside the
  // prototype's real-time capacity at 100x compression.  Near cluster
  // saturation the event loop itself becomes a bottleneck and wall-clock
  // jitter snowballs into second-scale queueing tails, which is a property
  // of the harness, not of the policies under test (see DESIGN.md section
  // 5e for the capacity discussion).
  ExperimentParams p = live_params(RmConfig::bline(), 120.0, 20.0, /*seed=*/11);
  p.warmup_ms = seconds(20.0);
  ExperimentParams sim_params = p;
  const ExperimentResult sim = run_experiment(std::move(sim_params));

  LiveOptions o;
  o.time_scale = 100.0;  // 120 s of trace in 1.2 s of wall time
  const LiveRunReport live = run_live(std::move(p), o);
  ASSERT_TRUE(live.drained);

  // Same seed, same RNG split: the arrival plans are identical, so the two
  // runs process the same request sequence.
  EXPECT_EQ(live.result.jobs_submitted, sim.jobs_submitted);
  EXPECT_EQ(live.result.jobs_completed, sim.jobs_completed);

  const double delta_pp =
      std::abs(live.result.slo_violation_pct() - sim.slo_violation_pct());
  EXPECT_LE(delta_pp, 5.0) << "SLO violations: sim " << sim.slo_violation_pct()
                           << "% vs live " << live.result.slo_violation_pct()
                           << "%";

  const auto sim_peak = static_cast<double>(sim.peak_active_containers);
  const auto live_peak = static_cast<double>(live.result.peak_active_containers);
  ASSERT_GT(sim_peak, 0.0);
  EXPECT_LE(std::abs(live_peak - sim_peak), std::max(0.10 * sim_peak, 1.0))
      << "peak containers: sim " << sim_peak << " vs live " << live_peak;
}

}  // namespace
}  // namespace fifer
