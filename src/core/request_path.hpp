#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/event_bus.hpp"
#include "common/inline_function.hpp"
#include "common/rng.hpp"
#include "common/slab.hpp"
#include "core/app_profile.hpp"
#include "core/experiment_params.hpp"
#include "core/metrics.hpp"
#include "core/policy/policy_context.hpp"
#include "core/policy/policy_engine.hpp"
#include "core/stage.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"
#include "predict/window.hpp"
#include "workload/arrival.hpp"

namespace fifer {

/// Splits the arrival stream off `run_rng`, a run's seed stream. Every
/// arrival plan is drawn from this split, taken before anything else draws
/// from the seed stream, so one seed gives one request sequence in the
/// simulator, a live replay and a load generator.
Rng split_arrival_stream(Rng& run_rng);

/// The arrival plan of a run with these params, drawn from `arrival_rng`, a
/// split made by split_arrival_stream.
std::vector<Arrival> draw_arrival_plan(const ExperimentParams& params, Rng arrival_rng);

/// What differs between running the request path in simulated time and in
/// wall-clock time: the clock and its timers. The one driver
/// (core/framework.hpp) implements it on its event queue, under a virtual
/// clock in the simulator and a scaled wall clock in live mode.
///
/// RequestPath calls every method from inside one *step* of the run — an
/// event, or a live gate submission — and each step must run alone, as on
/// the simulator's event loop.
class Pacer {
 public:
  using Callback = InlineFunction<void(), 64>;

  virtual ~Pacer() = default;

  /// The current step's time. Every read within one step returns the same
  /// value: a step reads the clock once.
  virtual SimTime now() const = 0;
  /// Runs `cb` as a step of its own, `delay` ms from now. Steps due at the
  /// same time run in the order they were scheduled.
  virtual void after(SimDuration delay, Callback cb) = 0;
  /// Runs `cb(now)` as a step of its own every `period_ms`, first at
  /// now + period. Same-time steps fire in registration order.
  virtual void every(SimDuration period_ms, std::function<void(SimTime)> cb) = 0;
  /// `job` finished its chain; its stage records are already folded into
  /// the metrics and freed.
  virtual void on_job_completed(const Job& job) = 0;
};

/// The Fifer request path, shared by the simulator and live mode: it owns
/// the per-stage state (global queue + containers + load monitor), the job
/// slab, the cluster, the event bus, the RNG, the arrival-rate sampler, the
/// metrics collector and the trace sink, and it moves requests through their
/// chains. Every resource-management *decision* (fleet sizing, queue order,
/// placement, batch sizing) is delegated to the PolicyEngine strategies
/// assembled from `params.rm` (or a custom `params.policy_factory`), which
/// see the run through the PolicyContext this class implements. Containers
/// are passive: a spawn schedules a ready event at the end of its cold
/// start, an idle warm container with queued work starts its next task at
/// once, and the task's finish is an event at its sampled service time. The
/// clock and the timers come from a Pacer.
///
/// The driver runs one experiment in this order, under either clock:
///
///   start();                      // offline: B_size log, pre-training
///   plan = plan_arrivals();       // replays: schedule submit_job(plan[i])
///   install();                    // scaler ticks, then housekeeping
///   ...fire events until the drain rule ends the run...
///   ExperimentResult r = finish(end);
class RequestPath : public PolicyContext {
 public:
  /// `pacer` must outlive the path; the constructor does not call it.
  RequestPath(ExperimentParams params, Pacer& pacer);

  // --- PolicyContext view (called by the policy strategies) ---
  SimTime now() const override { return pacer_.now(); }
  const ExperimentParams& params() const override { return params_; }
  std::map<std::string, StageState>& stages() override { return stages_; }
  const ProfileBook& profiles() const override { return profiles_; }
  const MicroserviceRegistry& services() const override { return services_; }
  const ApplicationRegistry& apps() const override { return apps_; }
  const WindowSampler& sampler() const override { return sampler_; }
  Container* spawn_container(StageState& st) override;
  void terminate_container(StageState& st, Container& c) override;
  void every(SimDuration period_ms, std::function<void(SimTime)> cb) override;
  /// The run's tracing sink (null when tracing is off). One sink per run,
  /// so parallel sweeps share no mutable trace state.
  obs::TraceSink* trace() const override { return sink_.get(); }

  // --- introspection ---
  const std::map<std::string, StageState>& stages() const { return stages_; }
  const PolicyEngine& engine() const { return engine_; }
  const Cluster& cluster() const { return cluster_; }
  /// The host-time profiler while tracing is on, else null.
  obs::Profiler* profiler() const { return prof_; }
  std::uint64_t submitted() const { return jobs_.size(); }
  /// Submitted jobs that have not completed yet.
  std::uint64_t in_flight() const { return jobs_.size() - completed_jobs_; }

  // --- driving the run ---
  /// Offline steps, before the clock starts: logs the batch sizer's B_size
  /// decisions (so the decision log opens with the static configuration),
  /// then lets the scaler pre-train predictors and size static pools.
  void start();
  /// The arrival plan, drawn from the split of the run's seed stream that
  /// the constructor takes before anything else draws from it: one seed, one
  /// request sequence, whatever the scaler's offline start draws. A served
  /// run takes its arrivals from outside and never calls this.
  std::vector<Arrival> plan_arrivals() const;
  /// Registers the scaler's periodic ticks (load monitor, predictor,
  /// retraining), then housekeeping (reaper / power / timeline).
  /// Registration order is part of the determinism contract.
  void install();
  /// Admits one request at now(), planned for `arrival.time`, and sends it
  /// toward its first stage.
  void submit_job(const Arrival& arrival);
  /// Closes the run at `end`: integrates energy, finalizes the metrics, and
  /// exports the trace files when `params.trace_prefix` is set.
  ExperimentResult finish(SimTime end);

 private:
  /// Publishes the transition to stage `stage_index` on the event bus; the
  /// task enters the stage queue when the bus delivers it.
  void transition_to_stage(Job& job, std::size_t stage_index);
  void enqueue_task(Job& job, std::size_t stage_index);
  void dispatch_stage(StageState& st);
  void complete_job(Job& job);

  /// If `c` is warm and idle with queued work, starts its next task and
  /// schedules that task's finish event.
  void run_next_task(StageState& st, Container& c);
  /// `c` starts its next queued task: pops it, stamps the wait, samples the
  /// service time into the task's record and marks `c` busy. Precondition:
  /// `c` is warm, idle, and has a queued task.
  TaskRef begin_task(StageState& st, Container& c);
  /// The finish event: `task` finished executing on `h`. Records the stage
  /// visit, moves the job on, and refills the container and the stage.
  void finish_task(StageState& st, SlabHandle<Container> h, TaskRef task);
  /// The ready event: `h`'s cold start finished.
  void container_ready(StageState& st, SlabHandle<Container> h);

  /// Frees the least-recently-used idle container of a non-backlogged stage
  /// to make room when the cluster is full (serverless platforms reclaim
  /// idle instances under capacity pressure). Returns true if one was
  /// evicted.
  bool reclaim_idle_capacity();
  void reap_idle_containers();
  void housekeeping_tick();
  /// Asserts arrived = completed + resident-in-stages + in-transition; see
  /// the definition for the precise accounting.
  void check_request_conservation() const;

  /// JSONL lifecycle log (`params.trace_log_path`).
  void log_job(const Job& job);
  void log_container(const std::string& stage, ContainerId id, SimDuration cold_ms);
  void trace_batch_profiles();
  void export_trace_files();

  ExperimentParams params_;
  Pacer& pacer_;
  Cluster cluster_;
  MicroserviceRegistry services_;
  ApplicationRegistry apps_;
  /// The assembled policy strategies; must precede profiles_ (the batch
  /// sizer shapes the stage profiles).
  PolicyEngine engine_;
  ProfileBook profiles_;
  std::map<std::string, StageState> stages_;
  /// Per application, in apps_ order: the stages of its chain (null where
  /// a stage has no profile, i.e. the app is outside the mix).
  std::vector<std::vector<StageState*>> chains_;
  MetricsCollector metrics_;
  Rng rng_;
  /// The arrival plan's stream, split off `rng_` at construction.
  Rng arrival_rng_;

  WindowSampler sampler_;
  EventBus bus_;

  /// Slab-backed job registry: pointer-stable (queues and timers hold
  /// Job*), chunked, never erased during a run, so size() is the submitted
  /// count.
  Slab<Job> jobs_;
  std::ofstream trace_log_;
  /// Tracing state (null/empty when tracing is off). `sink_` receives spans
  /// and decisions; `prof_` points at `profiler_` only while tracing so the
  /// instrumented hot paths reduce to one null check when disabled.
  std::shared_ptr<obs::TraceSink> sink_;
  obs::Profiler profiler_;
  obs::Profiler* prof_ = nullptr;
  std::uint64_t completed_jobs_ = 0;
  std::uint64_t next_job_id_ = 0;
  std::uint64_t next_container_id_ = 0;
};

}  // namespace fifer
