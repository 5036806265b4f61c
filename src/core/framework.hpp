#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/experiment_params.hpp"
#include "core/external_source.hpp"
#include "core/metrics.hpp"
#include "core/request_path.hpp"
#include "sim/clock.hpp"
#include "sim/event_queue.hpp"
#include "workload/arrival.hpp"

namespace fifer {

/// Knobs of a wall-clock run; everything about the *experiment* (workload,
/// policies, cluster) still comes from ExperimentParams, so a sim/live pair
/// differs only in these.
struct LiveOptions {
  /// Simulated ms per wall ms. 100 compresses the paper's 1000 ms SLO to a
  /// 10 ms wall budget and its 10 s monitoring interval to 100 ms of wall
  /// time; 1 is real time.
  double time_scale = 100.0;
  /// Hard wall-clock budget for the whole run. <= 0 leaves a replay bounded
  /// by the simulated hard deadline alone (trace end + 10 min, as in the
  /// simulator) and gives a served run 60 s. The bounded-shutdown
  /// guarantee: run() returns within this budget even if the workload
  /// wedges, with `drained = false` in the report.
  double max_wall_seconds = 0.0;
  /// When set, the run serves *externally submitted* arrivals (the socket
  /// front-end) instead of replaying the trace plan: the run skips the
  /// arrival pump, opens the driver's ExternalGate, and drains once the
  /// source reports finished(). Non-owning; must outlive the run.
  ExternalArrivalSource* external_source = nullptr;
};

/// A lag distribution in simulated ms, summarized in constant memory.
struct LagSummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t samples = 0;
};

/// What a run produced: the ExperimentResult, plus facts about the run
/// itself that the fidelity harness and CI budget checks read. The lag and
/// wall fields are the wall clock's; the virtual clock leaves them unset.
struct LiveRunReport {
  ExperimentResult result;
  /// True when the run ended by the drain rule: past the trace end (or the
  /// source finished) with every submitted request completed. False means
  /// the hard deadline or the wall budget cut it short.
  bool drained = false;
  /// Simulated duration of the run (== result window), for convenience.
  SimTime sim_duration_ms = 0.0;
  /// Wall seconds the driving loop spent between clock anchor and shutdown.
  double wall_seconds = 0.0;
  double time_scale = 1.0;
  /// Events fired (arrivals, bus deliveries, container ready and finish
  /// events, policy ticks, housekeeping); equals `result.sim_events`.
  std::uint64_t timer_events = 0;
  /// Pacing threads beyond the event loop. Containers are events, so this
  /// reads 0; kept because benchmark reports carry it.
  std::size_t peak_worker_threads = 0;
  /// How late events fired: fire time minus scheduled time.
  LagSummary timer_lag;
  /// Replays only: how late requests were admitted, admission time minus
  /// planned arrival time. Empty for a served run.
  LagSummary admission_lag;
};

/// The simulator's clock: it jumps to the next event at once. Nothing waits
/// and nothing is late, so this clock has nothing to record.
class VirtualClock {
 public:
  static constexpr bool kWall = false;
  /// Nothing to set up on the loop thread.
  struct Pacing {};

  explicit VirtualClock(const LiveOptions&) {}

  void start() {}
  /// The loop moves on to `target`, the next event or drain check: the
  /// virtual clock jumps there.
  SimTime advance(SimTime target) { return reached_ = target; }
  /// The time the clock last jumped to.
  SimTime now() const { return reached_; }
  static constexpr bool expired(SimTime) { return false; }
  /// Never reached: under this clock something is always due.
  void wait_until(SimTime) {}
  void on_fired(SimDuration) {}
  void on_admitted(SimDuration) {}
  void report(LiveRunReport&) const {}

 private:
  SimTime reached_ = 0.0;
};

/// The live prototype's clock: LiveClock's scaled wall time, a wait until
/// the next event is due — serving the external source's I/O meanwhile, or
/// sleeping when a replay has none — and lag trackers for how late events
/// and admissions ran.
class ScaledWallClock {
 public:
  static constexpr bool kWall = true;

  /// Sets the loop thread's timer slack to 1 ns while in scope, then puts
  /// the previous value back. The kernel's default slack (50 µs) lets every
  /// timed wait of the loop — a sleep, or a served run's epoll wait — end up
  /// to that much late, which is 50 simulated ms per wake at 1000x
  /// compression.
  class Pacing {
   public:
    Pacing();
    ~Pacing();
    Pacing(const Pacing&) = delete;
    Pacing& operator=(const Pacing&) = delete;

   private:
    int restore_ = 0;
  };

  explicit ScaledWallClock(const LiveOptions& opts);

  const LiveClock& live() const { return live_; }
  /// Anchors simulated t = 0 at the current wall instant.
  void start() { live_.start(); }
  /// Reads where the wall clock is; `target` is where the loop would go
  /// next. When `target` is already due the loop is behind and never
  /// reaches its wait, so a served run first serves its sockets without
  /// blocking, at most once per kBusyPollWallMs of wall time.
  SimTime advance(SimTime target);
  SimTime now() const { return live_.now_ms(); }
  /// True once the wall budget is spent.
  bool expired(SimTime t) const { return t >= budget_end_; }
  /// Waits until simulated time `t`: a served run serves its source's I/O
  /// until then (the source may return earlier, once it served something),
  /// a replay sleeps.
  void wait_until(SimTime t);
  void on_fired(SimDuration lag) { timer_lag_.add(lag); }
  void on_admitted(SimDuration lag) { admission_lag_.add(lag); }
  /// The wall facts of the run: scale, wall time since the anchor, lags.
  void report(LiveRunReport& r) const;

 private:
  /// A lag distribution kept in constant memory.
  class LagTracker {
   public:
    void add(double lag_ms);
    LagSummary summary() const;

   private:
    P2Quantile p50_{0.50};
    P2Quantile p99_{0.99};
    double max_ = 0.0;
  };

  LiveClock live_;
  /// A served run's source; nullptr for a replay.
  ExternalArrivalSource* const src_;
  /// The wall budget in simulated ms; kNeverTime when there is none.
  SimTime budget_end_ = kNeverTime;
  /// A served run's busy-poll cadence in simulated ms, and the simulated
  /// time at which the loop, if behind, serves its sockets next.
  SimDuration busy_poll_period_ = 0.0;
  SimTime busy_poll_at_ = 0.0;
  LagTracker timer_lag_;
  LagTracker admission_lag_;
};

/// The one driver of the request path, in simulated or in wall-clock time.
/// `Clock` is the only difference: the VirtualClock jumps to the next event
/// (`run_experiment`), the ScaledWallClock waits until it is due
/// (`run_live`). Either way the driver owns the EventQueue, the lazy arrival
/// pump, the periodic re-arm, the fire loop with its event count and its
/// `sim.event` profiler scope, the drain rule and the hard deadline. It is
/// the RequestPath's Pacer, and the ExternalGate of a served run — under the
/// virtual clock the gate stays closed. Every step the path takes — an
/// arrival, a bus delivery, a container's ready or finish event, a policy
/// tick — is one event. It mirrors the event-driven simulator the paper's
/// authors built for their large-scale evaluation (§5.2) and, on the wall
/// clock, their prototype (Figure 8).
///
/// The drain rule: a replay ends at the first multiple of 10 simulated s at
/// or past the trace end where nothing is in flight, checked after every
/// event due at or before it fired; the run reports that instant as its
/// end. A served run also checks whenever the loop is about to wait, which
/// covers the start of the run, a FIN and the last in-flight completion.
/// The hard deadline is trace end + 10 min of simulated time; a wall-clock
/// run also stops once its wall budget (LiveOptions::max_wall_seconds) is
/// spent.
///
/// One thread runs the experiment: run() fires due events on the calling
/// thread, and policies never see concurrency. Every event and every gate
/// submission is one *step* that reads the clock once and runs the same
/// bookkeeping in either mode. Under the wall clock the loop waits for its
/// next event in the clock: a replay sleeps, and a served run spends the
/// wait in its source's poll(), which decodes requests and submits them
/// through the gate on this same thread. Completions are answered through
/// the source on it too.
///
/// One instance runs one experiment:
///
///   ExperimentResult r = Driver<VirtualClock>(params).run().result;
///   LiveRunReport live = Driver<ScaledWallClock>(params, {.time_scale = 100}).run();
template <class Clock>
class Driver final : public Pacer, public ExternalGate {
 public:
  explicit Driver(ExperimentParams params, LiveOptions opts = {});

  /// Runs the experiment and returns the collected metrics. Single-shot.
  /// Returns within the wall budget (see LiveOptions).
  LiveRunReport run();

  /// The request path — its stages, profiles, cluster and engine, or a
  /// PolicyContext to call a policy with — for introspection before run().
  RequestPath& path() { return path_; }

  // --- Pacer (called by the request path, inside a step) ---
  SimTime now() const override { return now_; }
  void after(SimDuration delay, Callback cb) override;
  /// Rejects a non-positive period (std::invalid_argument). An occurrence
  /// the loop fell a period or more behind is skipped, not replayed in a
  /// burst: the next one is the first on the period grid past now. Under
  /// the virtual clock nothing is ever behind.
  void every(SimDuration period_ms, std::function<void(SimTime)> cb) override;
  void on_job_completed(const Job& job) override;

  // --- ExternalGate (called from the source's poll(), between steps) ---
  Admit submit(const ExternalRequest& req) override;

 private:
  /// A periodic step registered through every(); stored in a deque so the
  /// events that re-arm it can hold its address.
  struct Periodic {
    SimDuration period;
    std::function<void(SimTime)> cb;
  };
  /// How and when drive() ended the run.
  struct Ending {
    SimTime at;
    bool drained;
  };

  /// Runs periodic `p`'s occurrence due at `due`, then re-arms it.
  void tick(Periodic& p, SimTime due);
  /// Submits arrival `i` and schedules arrival `i + 1`, so the queue holds
  /// at most one pending arrival.
  void pump(std::size_t i);
  /// The drain condition at time `t`.
  bool drained(SimTime t);
  /// The fire loop: fires events until the drain rule, the hard deadline or
  /// the wall budget ends the run.
  Ending drive();

  Clock clock_;
  ExternalArrivalSource* const src_;

  RequestPath path_;
  EventQueue events_;
  std::deque<Periodic> periodic_;
  /// The current step's clock reading.
  SimTime now_ = 0.0;
  /// Events fired so far.
  std::uint64_t fired_ = 0;
  /// The trace end and the hard deadline, set by run(). A served run has
  /// neither.
  SimTime trace_end_ = 0.0;
  SimTime hard_end_ = kNeverTime;
  /// The replayed arrival plan, set by run().
  std::vector<Arrival> arrivals_;
  /// Registry insertion order -> app name: the wire protocol's app_index
  /// numbering. Built at construction, immutable afterwards.
  std::vector<std::string> app_names_;
  /// Parallel to app_names_: whether every stage of the chain is
  /// provisioned (stage pools come from the workload *mix*, which may be a
  /// subset of the registry). submit() rejects unservable apps as
  /// kUnknownApp instead of crashing in stage_of().
  std::vector<bool> app_servable_;
  /// Served-run bookkeeping: the original ExternalRequest of job id `i` at
  /// index i (external jobs are the only jobs, and ids are sequential).
  std::vector<ExternalRequest> external_meta_;
  /// Gate state: only true while a served run's loop runs.
  bool accepting_external_ = false;
  bool ran_ = false;
};

extern template class Driver<VirtualClock>;
extern template class Driver<ScaledWallClock>;

/// Runs one experiment in simulated time and returns its metrics.
ExperimentResult run_experiment(ExperimentParams params);

/// Runs one experiment in scaled wall-clock time: a replay of the trace
/// plan, or — with LiveOptions::external_source — a served run.
LiveRunReport run_live(ExperimentParams params, LiveOptions opts = {});

}  // namespace fifer
