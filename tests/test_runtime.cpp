// Live-mode runtime tests: clock compression, the event loop's pacing (the
// container lifecycle as events, periodic steps, wakes and bounded
// shutdown), and — the headline contract — sim-vs-live fidelity on the same
// preset/trace/seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "core/framework.hpp"
#include "core/policy/scaler.hpp"
#include "obs/recording_sink.hpp"
#include "runtime/gateway.hpp"
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
  // Containers are events on the loop, not threads.
  EXPECT_EQ(r.peak_worker_threads, 0u);
  // Arrivals, bus deliveries, container events and periodic ticks are all
  // events, and each one's lag is sampled; each arrival's admission too.
  EXPECT_GT(r.timer_events, r.result.jobs_submitted);
  EXPECT_EQ(r.timer_lag.samples, r.timer_events);
  EXPECT_EQ(r.admission_lag.samples, r.result.jobs_submitted);
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

// The drain rule is the simulator's under either clock: a replay ends at
// the first 10-s drain check at or past its trace end with nothing in
// flight, and reports that instant. The trace is light and SBatch's pools
// are warm long before it ends, so its last request completes seconds
// before the check at 20 s.
TEST(LiveRuntime, ReplayEndsOnItsSimulatorTwinsDrainCheck) {
  ExperimentParams p = live_params(RmConfig::sbatch(), 11.0, 2.0);
  const ExperimentResult sim = run_experiment(p);
  LiveOptions o;
  o.time_scale = 100.0;
  const LiveRunReport live = run_live(std::move(p), o);
  ASSERT_TRUE(live.drained);
  EXPECT_DOUBLE_EQ(sim.duration_ms, seconds(20.0));
  EXPECT_DOUBLE_EQ(live.result.duration_ms, sim.duration_ms);
  EXPECT_DOUBLE_EQ(live.sim_duration_ms, sim.duration_ms);
}

// ---------------------------------------------------------- external gate

/// Minimal ExternalArrivalSource: submits `n` requests from its poll(), one
/// per call (the shape of the server in serving mode), then probes the
/// gate's rejection contract during stop(), when the runtime has already
/// closed it.
class StubExternalSource : public ExternalArrivalSource {
 public:
  StubExternalSource(std::uint32_t n, std::vector<std::uint32_t> app_indices)
      : n_(n), app_indices_(std::move(app_indices)) {}

  void start(ExternalGate& gate, const LiveClock&) override { gate_ = &gate; }

  void poll(LiveClock::WallTime until) override {
    if (submitted_ < n_) {
      ExternalRequest req;
      req.app_index = app_indices_[submitted_ % app_indices_.size()];
      req.input_scale = 1.0;
      req.tag = submitted_++;
      if (gate_->submit(req) == ExternalGate::Admit::kAccepted) ++accepted_;
      return;
    }
    if (!probed_) {
      // Out-of-range app indices are rejected at the gate, not crashed on.
      ExternalRequest bad;
      bad.app_index = 0xffffffffu;
      unknown_rejected_ =
          gate_->submit(bad) == ExternalGate::Admit::kUnknownApp;
      probed_ = true;
      return;
    }
    std::this_thread::sleep_until(until);
  }

  void on_completion(const ExternalCompletion& c) override {
    completion_order_ok_ =
        completion_order_ok_ && c.completion_ms >= c.arrival_ms;
    ++completions_;
  }

  bool finished() override { return probed_ && completions_ == accepted_; }

  void stop() override {
    // The runtime closes the gate before calling stop(): a straggler submit
    // must bounce with kDraining (the submit-after-drain contract).
    ExternalRequest late;
    late.app_index = 0;
    drain_rejected_ = gate_->submit(late) == ExternalGate::Admit::kDraining;
  }

  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t completions() const { return completions_; }
  bool unknown_rejected() const { return unknown_rejected_; }
  bool drain_rejected() const { return drain_rejected_; }
  bool completion_order_ok() const { return completion_order_ok_; }

 private:
  const std::uint32_t n_;
  const std::vector<std::uint32_t> app_indices_;
  ExternalGate* gate_ = nullptr;
  std::uint32_t submitted_ = 0;
  bool probed_ = false;
  std::uint64_t accepted_ = 0;
  std::uint64_t completions_ = 0;
  bool unknown_rejected_ = false;
  bool drain_rejected_ = false;
  bool completion_order_ok_ = true;
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
  void poll(LiveClock::WallTime until) override {
    std::this_thread::sleep_until(until);
  }
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

// ------------------------------------------------------------ event pacing

/// The lifecycle log's container lines (ExperimentParams::trace_log_path):
/// container id -> {spawn time, sampled cold start}.
struct SpawnRecord {
  SimTime spawned_ms = 0.0;
  SimDuration cold_ms = 0.0;
};

std::map<std::uint64_t, SpawnRecord> read_spawns(const std::string& path) {
  std::map<std::uint64_t, SpawnRecord> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const Json j = Json::parse(line);
    if (j.at("type").as_string() != "container") continue;
    out[static_cast<std::uint64_t>(j.at("id").as_number())] =
        SpawnRecord{j.at("spawned_ms").as_number(), j.at("cold_start_ms").as_number()};
  }
  return out;
}

/// A live run with its spans and its lifecycle log's spawns.
struct PacedRun {
  LiveRunReport report;
  std::map<std::uint64_t, SpawnRecord> spawns;
  /// Container id -> the spans of the tasks it executed, by start time.
  std::map<std::uint64_t, std::vector<obs::SpanRecord>> spans;
};

PacedRun run_paced(const RmConfig& rm, const std::string& tag) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "fifer_live_pacing";
  fs::create_directories(dir);
  auto p = live_params(rm, 20.0, 8.0);
  p.trace_log_path = (dir / (tag + ".jsonl")).string();
  auto sink = std::make_shared<obs::RecordingTraceSink>();
  p.trace_sink = sink;
  LiveOptions o;
  o.time_scale = 100.0;
  PacedRun out;
  out.report = run_live(p, o);
  out.spawns = read_spawns(p.trace_log_path);
  for (const obs::SpanRecord& s : sink->spans()) out.spans[s.container].push_back(s);
  for (auto& [id, spans] : out.spans) {
    std::sort(spans.begin(), spans.end(),
              [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
                return a.exec_start < b.exec_start;
              });
  }
  return out;
}

// A container is a ready event at the end of its cold start plus one finish
// event per task: it executes nothing before it is ready, then serves its
// local queue one task at a time, in the order tasks were dispatched to it.
TEST(LivePacing, ContainersColdStartThenServeTheirQueueInOrder) {
  const PacedRun run = run_paced(RmConfig::fifer(), "fifer");
  ASSERT_TRUE(run.report.drained);
  ASSERT_FALSE(run.spans.empty());
  std::size_t queues_served = 0;
  for (const auto& [id, spans] : run.spans) {
    ASSERT_EQ(run.spawns.count(id), 1u) << "container " << id;
    const SpawnRecord& spawn = run.spawns.at(id);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].exec_start, spawn.spawned_ms + spawn.cold_ms)
          << "container " << id;
      if (i == 0) continue;
      EXPECT_GE(spans[i].exec_start, spans[i - 1].exec_end) << "container " << id;
      EXPECT_GE(spans[i].dispatched, spans[i - 1].dispatched) << "container " << id;
    }
    if (spans.size() > 1) ++queues_served;
  }
  EXPECT_GT(queues_served, 0u);
}

// SBatch spawns its pools offline, before the clock anchor. Their ready
// events are due `cold_ms` into the simulated timeline, so each pool
// container turns warm `cold_ms` after the anchor: not earlier (the offline
// wall time does not count) and, by no more than one event's lag, later.
TEST(LivePacing, OfflineSpawnedContainersAreReadyColdMsAfterTheAnchor) {
  const PacedRun run = run_paced(RmConfig::sbatch(), "sbatch");
  ASSERT_TRUE(run.report.drained);
  std::size_t checked = 0;
  for (const auto& [id, spans] : run.spans) {
    const SpawnRecord& spawn = run.spawns.at(id);
    if (spawn.spawned_ms != 0.0 || spans.front().cold_wait_ms <= 0.0) continue;
    // The first task's cold-start wait runs from its enqueue to the instant
    // the ready event marked the container warm.
    const obs::SpanRecord& first = spans.front();
    const SimTime marked_ready = first.enqueued + first.cold_wait_ms;
    EXPECT_GE(marked_ready, spawn.cold_ms - 1e-6) << "container " << id;
#ifndef FIFER_SANITIZED
    // 10 wall ms at 100x.
    EXPECT_LE(marked_ready, spawn.cold_ms + 1000.0) << "container " << id;
#endif
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

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

ExperimentParams tick_params(std::function<void(PolicyContext&)> install) {
  auto p = live_params(RmConfig::rscale(), 10.0, /*lambda=*/0.0);
  p.policy_factory = [install = std::move(install)](ExperimentParams& params) {
    PolicyEngine e = params.rm.assemble(params);
    e.scaler = std::make_unique<TickScaler>(install);
    return e;
  };
  return p;
}

TEST(LivePacing, SameDeadlineStepsFireInScheduleOrder) {
  std::vector<int> order;
  auto p = tick_params([&order](PolicyContext& ctx) {
    for (int k = 0; k < 3; ++k) {
      ctx.every(seconds(1.0), [&order, k](SimTime) { order.push_back(k); });
    }
  });
  // A period is 50 wall ms: only a step late by that much could reorder
  // the next occurrences.
  LiveOptions o;
  o.time_scale = 20.0;
  const LiveRunReport r = run_live(std::move(p), o);
  ASSERT_TRUE(r.drained);
  ASSERT_GE(order.size(), 9u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], static_cast<int>(i % 3)) << "step " << i;
  }
}

TEST(LivePacing, PeriodicTicksSkipMissedOccurrences) {
  // The first occurrence stalls the loop for 30 periods. A tick that
  // replayed what it missed would then fire ~30 times at once.
  constexpr SimDuration kPeriod = 100.0;
  std::vector<SimTime> fired;
  auto p = tick_params([&fired](PolicyContext& ctx) {
    ctx.every(kPeriod, [&fired](SimTime now) {
      fired.push_back(now);
      if (fired.size() == 1) std::this_thread::sleep_for(std::chrono::milliseconds(30));
    });
  });
  LiveOptions o;
  o.time_scale = 100.0;  // 30 wall ms = 3000 simulated ms
  const LiveRunReport r = run_live(std::move(p), o);
  ASSERT_TRUE(r.drained);
  ASSERT_GE(fired.size(), 3u);
  EXPECT_GE(fired[1] - fired[0], 2900.0);
  const auto burst = std::count_if(fired.begin(), fired.end(), [&](SimTime t) {
    return t >= fired[1] && t < fired[1] + kPeriod / 2.0;
  });
  EXPECT_LE(burst, 2);
  EXPECT_LE(static_cast<double>(fired.size()),
            (r.sim_duration_ms - (fired[1] - fired[0])) / kPeriod + 3.0);
}

/// An external source that submits nothing and reports finished
/// `finish_after` after the run started, the way a FIN would arrive; its
/// polls wait for that moment. With `hammer`, every poll returns at once,
/// like a source whose sockets are always busy.
class WakingSource : public ExternalArrivalSource {
 public:
  WakingSource(std::chrono::milliseconds finish_after, bool hammer)
      : finish_after_(finish_after), hammer_(hammer) {}

  void start(ExternalGate&, const LiveClock&) override {
    finish_at_ = LiveClock::WallClock::now() + finish_after_;
  }
  void poll(LiveClock::WallTime until) override {
    if (!hammer_) std::this_thread::sleep_until(std::min(until, finish_at_));
  }
  void on_completion(const ExternalCompletion&) override {}
  bool finished() override { return LiveClock::WallClock::now() >= finish_at_; }
  void stop() override {}

 private:
  const std::chrono::milliseconds finish_after_;
  const bool hammer_;
  LiveClock::WallTime finish_at_{};
};

TEST(LivePacing, FinWakeEndsTheDrainPromptly) {
  // Real time: the loop waits toward the scaler's next tick, seconds away.
  // Only the source's poll returning with the FIN can end the run early.
  WakingSource source(std::chrono::milliseconds(20), /*hammer=*/false);
  LiveOptions o;
  o.time_scale = 1.0;
  o.max_wall_seconds = 30.0;
  o.external_source = &source;
  const auto t0 = std::chrono::steady_clock::now();
  const LiveRunReport r = run_live(live_params(RmConfig::rscale(), 10.0, 5.0), o);
  const auto wall = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(r.drained);
  EXPECT_LT(wall, std::chrono::seconds(5));
}

TEST(LivePacing, WakesRacingTheHardDeadlineEndTheRunOnce) {
  // Polls return nonstop while the source finishes right at the wall
  // budget: whichever wins, the loop ends once, without hanging.
  WakingSource source(std::chrono::milliseconds(50), /*hammer=*/true);
  LiveOptions o;
  o.time_scale = 1.0;
  o.max_wall_seconds = 0.05;
  o.external_source = &source;
  const auto t0 = std::chrono::steady_clock::now();
  const LiveRunReport r = run_live(live_params(RmConfig::rscale(), 10.0, 5.0), o);
  const auto wall = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.result.jobs_submitted, 0u);
  EXPECT_GE(wall, std::chrono::milliseconds(40));
  EXPECT_LT(wall, std::chrono::seconds(20));  // generous CI margin
}

/// An external source that submits nothing and counts its polls, each of
/// which waits until its deadline; it is finished once polled three times,
/// as if its clients' FINs had come in.
class CountingSource : public ExternalArrivalSource {
 public:
  void start(ExternalGate&, const LiveClock&) override {}
  void poll(LiveClock::WallTime until) override {
    ++polls_;
    std::this_thread::sleep_until(until);
  }
  void on_completion(const ExternalCompletion&) override {}
  bool finished() override { return polls_ >= 3; }
  void stop() override {}
  std::uint64_t polls() const { return polls_; }

 private:
  std::uint64_t polls_ = 0;
};

TEST(LivePacing, ALoopThatIsBehindStillPollsItsSource) {
  // A step that takes five of its periods re-arms to an instant already
  // past, so after its first occurrence the loop never reaches its wait,
  // where a served run polls its source. It must poll it anyway, without
  // blocking; otherwise the source never finishes and the run ends only on
  // its wall budget.
  auto p = tick_params([](PolicyContext& ctx) {
    ctx.every(1.0, [](SimTime) {
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::microseconds(50);
      while (std::chrono::steady_clock::now() < until) {
      }
    });
  });
  CountingSource source;
  LiveOptions o;
  o.time_scale = 100.0;  // a 1-ms period is 10 wall µs
  o.max_wall_seconds = 5.0;
  o.external_source = &source;
  const LiveRunReport r = run_live(std::move(p), o);
  EXPECT_TRUE(r.drained);
  EXPECT_GE(source.polls(), 3u);
  EXPECT_GE(r.timer_lag.max_ms, 4.0);  // the loop really was behind
}

TEST(LivePacing, ShutdownWithPendingContainerEventsEndsCleanly) {
  // Cut at 3 simulated seconds: Bline spawns on demand, so containers are
  // still cold-starting (pending ready events) and executing (pending
  // finish events) when the budget runs out.
  LiveOptions o;
  o.time_scale = 10.0;
  o.max_wall_seconds = 0.3;
  const auto t0 = std::chrono::steady_clock::now();
  const LiveRunReport r = run_live(live_params(RmConfig::bline(), 60.0, 20.0), o);
  const auto wall = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(r.drained);
  EXPECT_GT(r.result.containers_spawned, 0u);
  EXPECT_LT(r.result.jobs_completed, r.result.jobs_submitted);
  EXPECT_LT(wall, std::chrono::seconds(20));
}

// One seed, one request sequence: every preset's simulator run submits
// exactly the materialized plan's arrivals past the warm-up — SBatch
// included, whose offline start draws cold starts from the seed stream.
TEST(ArrivalPlan, EveryPresetReplaysTheMaterializedPlan) {
  for (const char* name : {"bline", "sbatch", "rscale", "bpred", "fifer", "hpa"}) {
    ExperimentParams p = live_params(RmConfig::by_name(name), 30.0, 5.0, /*seed=*/3);
    p.warmup_ms = seconds(5.0);
    std::uint64_t planned = 0;
    for (const Arrival& a : materialize_arrival_plan(p)) {
      if (a.time >= p.warmup_ms) ++planned;
    }
    ASSERT_GT(planned, 0u);
    EXPECT_EQ(run_experiment(p).jobs_submitted, planned) << name;
  }
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

  // How far the live run fell behind its clock, for every failure message.
  std::ostringstream lag;
  lag << "; timer lag p50/p99/max " << live.timer_lag.p50_ms << "/"
      << live.timer_lag.p99_ms << "/" << live.timer_lag.max_ms
      << " sim ms, admission lag " << live.admission_lag.p50_ms << "/"
      << live.admission_lag.p99_ms << "/" << live.admission_lag.max_ms
      << " sim ms";

  // Same seed, same RNG split: the arrival plans are identical, and warm-up
  // membership counts from the planned arrival, so the two runs measure the
  // same request set.
  EXPECT_EQ(live.result.jobs_submitted, sim.jobs_submitted) << lag.str();
  EXPECT_EQ(live.result.jobs_completed, sim.jobs_completed) << lag.str();

  const double delta_pp =
      std::abs(live.result.slo_violation_pct() - sim.slo_violation_pct());
  EXPECT_LE(delta_pp, 5.0) << "SLO violations: sim " << sim.slo_violation_pct()
                           << "% vs live " << live.result.slo_violation_pct()
                           << "%" << lag.str();

  const auto sim_peak = static_cast<double>(sim.peak_active_containers);
  const auto live_peak = static_cast<double>(live.result.peak_active_containers);
  ASSERT_GT(sim_peak, 0.0);
  EXPECT_LE(std::abs(live_peak - sim_peak), std::max(0.10 * sim_peak, 1.0))
      << "peak containers: sim " << sim_peak << " vs live " << live_peak
      << lag.str();
}

}  // namespace
}  // namespace fifer
