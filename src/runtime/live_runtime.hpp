#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/slab.hpp"
#include "common/sync.hpp"
#include "core/experiment_params.hpp"
#include "core/metrics.hpp"
#include "core/request_path.hpp"
#include "runtime/clock.hpp"
#include "runtime/external_source.hpp"
#include "runtime/live_cluster.hpp"
#include "runtime/live_container.hpp"
#include "runtime/timer_queue.hpp"
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
  /// Timer callbacks fired (arrivals, bus deliveries, ticks, housekeeping).
  std::uint64_t timer_events = 0;
  /// High-water mark of concurrently live container worker threads.
  std::size_t peak_worker_threads = 0;
};

/// The live-mode executor: the simulator's request path (RequestPath — the
/// same stages, metrics, spans and PolicyEngine strategies byte-for-byte),
/// paced by real threads in real (compressed) wall-clock time instead of a
/// discrete event queue. Events (arrivals, bus deliveries, policy ticks) ride
/// a wall-clock timer queue (WallTimerQueue); containers are worker threads
/// that sleep out cold starts and service times (LiveContainer, owned by
/// LiveCluster). The run replays the trace plan in scaled real time, or —
/// with LiveOptions::external_source — serves requests submitted through
/// the ExternalGate, then drains, or stops at the wall budget.
///
/// Concurrency model — one writer domain, many pacers:
///  - The whole request path is one member guarded by a single state mutex
///    `mu_`; policies never see concurrency, exactly as on the simulator's
///    event loop. Every timer callback, worker callback and gate submission
///    is one *step*: it takes `mu_`, reads the clock once, and runs the same
///    bookkeeping the simulator runs at its event boundaries. Worker threads
///    only pace: they sleep off every lock.
///  - Lock order: `mu_` -> worker queue lock (via submit/retire) and
///    `mu_` -> timer lock (via at/every/notify). Worker callbacks take `mu_`
///    with no worker lock held. Thread joins happen with no locks held
///    (LiveCluster's retirement list). The order is machine-enforced: `mu_`
///    is ranked `lock_rank::kRuntimeState`, every lock below it
///    `kRuntimeLeaf`, and debug builds trap any inverted acquisition through
///    the lock-order registry (common/sync.hpp).
///
/// One instance runs one experiment, like the framework:
///
///   LiveRunReport r = LiveRuntime(params, {.time_scale = 100}).run();
class LiveRuntime : public Pacer, public LiveContainerHost, public ExternalGate {
 public:
  LiveRuntime(ExperimentParams params, LiveOptions opts);
  ~LiveRuntime() override;

  /// Runs the experiment and returns the collected metrics. Single-shot.
  /// Returns within the wall budget (see LiveOptions).
  LiveRunReport run() FIFER_EXCLUDES(mu_);

  // --- Pacer (called by the request path, inside a step) ---
  SimTime now() const override FIFER_REQUIRES(mu_) { return now_; }
  void after(SimDuration delay, Callback cb) override FIFER_REQUIRES(mu_);
  void every(SimDuration period_ms, std::function<void(SimTime)> cb) override;
  void on_dispatch(StageState& st, Container& c, TaskRef task) override
      FIFER_REQUIRES(mu_);
  void on_container_idle(StageState&, Container&) override {}
  void on_spawn(StageState& st, Container& c, SimDuration cold_ms) override
      FIFER_REQUIRES(mu_);
  void on_terminate(Container& c) override FIFER_REQUIRES(mu_);
  void on_job_completed(const Job& job) override FIFER_REQUIRES(mu_);

  // --- LiveContainerHost hooks (called from worker threads; take mu_) ---
  void on_container_ready(ContainerId id) override FIFER_EXCLUDES(mu_);
  SimDuration on_task_begin(ContainerId id, TaskRef task) override
      FIFER_EXCLUDES(mu_);
  void on_task_finish(ContainerId id, TaskRef task) override
      FIFER_EXCLUDES(mu_);

  // --- ExternalGate (called from the front-end's I/O thread; takes mu_) ---
  Admit submit(const ExternalRequest& req) override FIFER_EXCLUDES(mu_);
  void wake() override;

 private:
  /// Where a passive container lives: its stage plus the slab handle that
  /// resolves it in O(1) from worker callbacks.
  struct ContainerRef {
    StageState* stage;
    SlabHandle<Container> handle;
  };

  /// Opens a step: reads the clock once for everything the step stamps.
  void begin_step() FIFER_REQUIRES(mu_) { now_ = clock_.now_ms(); }
  const ContainerRef& container_ref(ContainerId id) const FIFER_REQUIRES(mu_);
  /// Submits arrival `i` and schedules arrival `i + 1`. Self-scheduling, so
  /// the timer queue holds at most one pending arrival at a time — the live
  /// analogue of the simulator's lazy arrival pump.
  void pump(std::size_t i) FIFER_EXCLUDES(mu_);

  /// The single state lock (see the class comment for the lock order).
  /// Declared first so guarded members below can name it in annotations.
  mutable Mutex mu_;

  // Immutable after construction, or internally synchronized.
  const LiveOptions opts_;
  LiveClock clock_;
  WallTimerQueue timers_;
  /// Worker threads. Adopt/lookup/retire run inside steps (under mu_);
  /// joins run with mu_ released, which is why the field itself cannot carry
  /// a GUARDED_BY.
  LiveCluster workers_;

  RequestPath path_ FIFER_GUARDED_BY(mu_);
  /// The current step's clock reading.
  SimTime now_ FIFER_GUARDED_BY(mu_) = 0.0;
  /// Passive container id -> {stage, slab handle}, for worker callbacks.
  std::unordered_map<std::uint64_t, ContainerRef> container_refs_
      FIFER_GUARDED_BY(mu_);
  /// Workers created before the clock anchor (static pools, pre-training),
  /// started by run() once their cold-start sleeps can be measured from it.
  std::vector<LiveContainer*> pending_start_ FIFER_GUARDED_BY(mu_);
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
