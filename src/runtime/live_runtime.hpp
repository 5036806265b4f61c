#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/sync.hpp"
#include "core/experiment_params.hpp"
#include "core/metrics.hpp"
#include "core/request_path.hpp"
#include "runtime/clock.hpp"
#include "runtime/external_source.hpp"
#include "sim/event_queue.hpp"
#include "workload/arrival.hpp"

namespace fifer {

/// Knobs specific to live execution; everything about the *experiment*
/// (workload, policies, cluster) still comes from ExperimentParams, so a
/// sim/live pair differs only in these.
struct LiveOptions {
  /// Simulated ms per wall ms. 100 compresses the paper's 1000 ms SLO to a
  /// 10 ms wall budget and its 10 s monitoring interval to 100 ms of wall
  /// time; 1 is real time.
  double time_scale = 100.0;
  /// Graceful-drain window after the trace ends: in-flight requests get this
  /// much *simulated* time to finish before the run gives up. Matches the
  /// simulator's hang backstop.
  SimDuration drain_grace_ms = minutes(10.0);
  /// Hard wall-clock budget for the whole run; <= 0 derives it from the
  /// trace length, drain grace, and time scale. The bounded-shutdown
  /// guarantee: run() returns within this budget even if the workload
  /// wedges, with `drained = false` in the report.
  double max_wall_seconds = 0.0;
  /// When set, the run serves *externally submitted* arrivals (the socket
  /// front-end) instead of replaying the trace plan: the run skips the
  /// arrival pump, opens the runtime's ExternalGate, and drains once the
  /// source reports finished(). Non-owning; must outlive the run. In this
  /// mode the hard wall budget is `max_wall_seconds` (default 60 s when
  /// unset — a serving run has no trace length to derive one from).
  ExternalArrivalSource* external_source = nullptr;
};

/// A lag distribution in simulated ms, summarized in constant memory.
struct LagSummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t samples = 0;
};

/// What a live run produced: the same ExperimentResult the simulator emits,
/// plus live-execution facts the fidelity harness and CI budget checks read.
struct LiveRunReport {
  ExperimentResult result;
  /// True when every submitted request completed before shutdown; false
  /// means the hard wall deadline cut the run short.
  bool drained = false;
  /// Simulated duration of the run (== result window), for convenience.
  SimTime sim_duration_ms = 0.0;
  /// Wall seconds the driving loop spent between clock anchor and shutdown.
  double wall_seconds = 0.0;
  double time_scale = 1.0;
  /// Events fired (arrivals, bus deliveries, container ready and finish
  /// events, policy ticks, housekeeping).
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

/// The live-mode executor: the simulator's request path (RequestPath — the
/// same stages, metrics, spans and PolicyEngine strategies byte-for-byte)
/// on the simulator's own EventQueue, with each event fired when a
/// time-compressed wall clock reaches it instead of at once. Every step the
/// simulator takes — an arrival, a bus delivery, a container's ready or
/// finish event, a policy tick — is an event here too; containers own no
/// thread. The run replays the trace plan in scaled real time, or — with
/// LiveOptions::external_source — serves requests submitted through the
/// ExternalGate, then drains, or stops at the wall budget.
///
/// Concurrency model — one loop thread, one lock:
///  - The request path and the event queue are guarded by one state mutex
///    `mu_`; policies never see concurrency, exactly as on the simulator's
///    event loop. Every event and every gate submission is one *step*: it
///    takes `mu_`, reads the clock once, and runs the same bookkeeping the
///    simulator runs at its event boundaries.
///  - run() fires due events on the calling thread and sleeps on `cv_`
///    until the next one is due. It is woken only when a step on another
///    thread (a gate submission) schedules a new earliest event, or when
///    the drain condition may have changed (wake(), a last completion).
///  - Lock order: `mu_` is ranked `lock_rank::kRuntimeState`; the one lock
///    taken under it is the serving front-end's respond channel (a
///    `kRuntimeLeaf`), and debug builds trap any inverted acquisition
///    through the lock-order registry (common/sync.hpp).
///
/// One instance runs one experiment, like the framework:
///
///   LiveRunReport r = LiveRuntime(params, {.time_scale = 100}).run();
class LiveRuntime : public Pacer, public ExternalGate {
 public:
  LiveRuntime(ExperimentParams params, LiveOptions opts);

  /// Runs the experiment and returns the collected metrics. Single-shot.
  /// Returns within the wall budget (see LiveOptions).
  LiveRunReport run() FIFER_EXCLUDES(mu_);

  // --- Pacer (called by the request path, inside a step) ---
  SimTime now() const override FIFER_REQUIRES(mu_) { return now_; }
  void after(SimDuration delay, Callback cb) override FIFER_REQUIRES(mu_);
  void every(SimDuration period_ms, std::function<void(SimTime)> cb) override
      FIFER_REQUIRES(mu_);
  void on_job_completed(const Job& job) override FIFER_REQUIRES(mu_);

  // --- ExternalGate (called from the front-end's I/O thread; takes mu_) ---
  Admit submit(const ExternalRequest& req) override FIFER_EXCLUDES(mu_);
  void wake() override FIFER_EXCLUDES(mu_);

 private:
  /// A periodic step registered through every(); stored in a deque so the
  /// events that re-arm it can hold its address.
  struct Periodic {
    SimDuration period;
    std::function<void(SimTime)> cb;
  };

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

  /// Opens a step: reads the clock once for everything the step stamps.
  void begin_step() FIFER_REQUIRES(mu_) { now_ = clock_.now_ms(); }
  /// Queues `cb` at simulated time `when`, waking the loop if it now sleeps
  /// past the new earliest event.
  void schedule(SimTime when, EventQueue::Callback cb) FIFER_REQUIRES(mu_);
  /// Runs periodic `p`'s occurrence due at `due`, then re-arms it.
  void tick(Periodic& p, SimTime due) FIFER_REQUIRES(mu_);
  /// Submits arrival `i` and schedules arrival `i + 1`, so the queue holds
  /// at most one pending arrival — the simulator's lazy arrival pump.
  void pump(std::size_t i) FIFER_REQUIRES(mu_);
  /// Tells a sleeping loop to re-evaluate its drain condition.
  void wake_loop() FIFER_REQUIRES(mu_);
  /// Fires events until the run drains or the clock reaches `hard_end_ms`;
  /// returns the number fired.
  std::uint64_t drive(SimTime trace_end_ms, SimTime hard_end_ms)
      FIFER_EXCLUDES(mu_);

  /// The single state lock. Declared first so guarded members below can
  /// name it in annotations.
  mutable Mutex mu_;
  CondVar cv_;

  // Immutable after construction.
  const LiveOptions opts_;
  LiveClock clock_;

  RequestPath path_ FIFER_GUARDED_BY(mu_);
  EventQueue events_ FIFER_GUARDED_BY(mu_);
  std::deque<Periodic> periodic_ FIFER_GUARDED_BY(mu_);
  /// The current step's clock reading.
  SimTime now_ FIFER_GUARDED_BY(mu_) = 0.0;
  /// While run() waits on cv_: true, with the simulated time it waits for.
  bool loop_waiting_ FIFER_GUARDED_BY(mu_) = false;
  SimTime loop_wakes_at_ FIFER_GUARDED_BY(mu_) = 0.0;
  /// Set by wake_loop(); run() re-checks its drain condition before waiting.
  bool woken_ FIFER_GUARDED_BY(mu_) = false;
  LagTracker timer_lag_ FIFER_GUARDED_BY(mu_);
  LagTracker admission_lag_ FIFER_GUARDED_BY(mu_);
  /// The replayed arrival plan; written by run() before any concurrency,
  /// read-only afterwards.
  std::vector<Arrival> arrivals_;
  /// Registry insertion order -> app name: the wire protocol's app_index
  /// numbering. Built at construction, immutable afterwards.
  std::vector<std::string> app_names_;
  /// Parallel to app_names_: whether every stage of the chain is
  /// provisioned (stage pools come from the workload *mix*, which may be a
  /// subset of the registry). submit() rejects unservable apps as
  /// kUnknownApp instead of crashing in stage_of().
  std::vector<bool> app_servable_;
  /// External-mode bookkeeping: the original ExternalRequest of job id `i`
  /// at index i (external jobs are the only jobs, and ids are sequential).
  std::vector<ExternalRequest> external_meta_ FIFER_GUARDED_BY(mu_);
  /// Gate state: only true between run() opening the gate (external mode)
  /// and drain/teardown.
  bool accepting_external_ FIFER_GUARDED_BY(mu_) = false;
  bool arrivals_done_ FIFER_GUARDED_BY(mu_) = false;
  /// Only touched by run() on the driving thread before any concurrency.
  bool ran_ = false;
};

/// Convenience wrapper: builds the live runtime and runs it.
LiveRunReport run_live(ExperimentParams params, LiveOptions opts = {});

}  // namespace fifer
