#include "runtime/live_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.hpp"
#include "obs/trace_sink.hpp"

namespace fifer {

namespace {

const LockClass& runtime_state_lock_class() {
  static const LockClass cls{"runtime.state", sync::lock_rank::kRuntimeState};
  return cls;
}

LiveClock::WallTime wall_after(double seconds) {
  return LiveClock::WallClock::now() +
         std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
}

}  // namespace

LiveRuntime::LiveRuntime(ExperimentParams params, LiveOptions opts)
    : mu_(&runtime_state_lock_class()),
      opts_(opts),
      clock_(opts.time_scale),
      timers_(clock_),
      path_(std::move(params), *this) {
  // The wire protocol's app numbering: registry insertion order. An app is
  // servable only if every stage of its chain has a provisioned pool (the
  // mix may cover a subset of the registry). Constructor bodies are exempt
  // from the guard analysis: nothing else runs yet.
  for (const ApplicationChain& chain : path_.apps().all()) {
    app_names_.push_back(chain.name);
    bool servable = true;
    for (const std::string& stage : chain.stages) {
      servable = servable && path_.stages().count(stage) > 0;
    }
    app_servable_.push_back(servable);
  }
}

LiveRuntime::~LiveRuntime() {
  // Normally a no-op (run() joined everything); the backstop keeps a
  // throwing run from destroying state under live worker threads.
  workers_.stop_and_join_all();
}

LiveRunReport LiveRuntime::run() {
  FIFER_CHECK(!ran_, kCore) << "LiveRuntime::run is single-shot";
  ran_ = true;
  ExternalArrivalSource* src = opts_.external_source;

  // Offline steps, single-threaded, clock still reading 0: the B_size log,
  // predictor pre-training and static pools. Workers spawned here are held
  // back so their cold-start sleeps begin at the anchor. Then the arrival
  // plan, drawn at the same point of the seed stream as in the simulator, so
  // a sim/live pair with one seed replays the identical request sequence.
  SimTime trace_end = 0.0;
  {
    MutexLock lock(&mu_);
    path_.start();
    if (src == nullptr) {
      arrivals_ = path_.plan_arrivals();
      trace_end = std::max(path_.params().trace.duration_ms(),
                           arrivals_.empty() ? 0.0 : arrivals_.back().time);
    } else {
      path_.skip_arrival_plan();
      accepting_external_ = true;
    }
    arrivals_done_ = arrivals_.empty();
  }

  // Anchor simulated t = 0, release the held-back workers, then register
  // the timers in the simulator's order: arrival pump, the scaler's ticks,
  // housekeeping.
  clock_.start();
  {
    MutexLock lock(&mu_);
    begin_step();
    FIFER_CHECK(clock_.started(), kCore)
        << "workers must start after the clock anchor";
    for (LiveContainer* w : pending_start_) w->start();
    pending_start_.clear();
    if (!arrivals_.empty()) {
      timers_.at(arrivals_.front().time, [this](SimTime) { pump(0); });
    }
    path_.install();
  }

  // Bounded shutdown: the hard wall deadline caps the run even if the
  // workload wedges. A replay derives it from the trace plus the drain
  // grace on the scaled clock, with a fixed margin for thread scheduling
  // noise; a serving run has no trace length, so it defaults to a minute.
  LiveClock::WallTime hard_deadline;
  if (opts_.max_wall_seconds > 0.0) {
    hard_deadline = wall_after(opts_.max_wall_seconds);
  } else if (src != nullptr) {
    hard_deadline = wall_after(60.0);
  } else {
    hard_deadline = clock_.wall_deadline(trace_end + opts_.drain_grace_ms) +
                    std::chrono::seconds(2);
  }

  // Open the front door: from here the source's I/O thread submits through
  // the gate concurrently with the timer loop below.
  if (src != nullptr) src->start(*this, clock_);

  // Drain condition: no more arrivals coming (the trace replayed to its end,
  // zero-rate tails included — that is where scale-down shows; or the source
  // finished), and every submitted request completed. Checked between timer
  // callbacks and on completion wakeups; retired worker threads are joined
  // here, off the state lock.
  const auto done = [this, src, trace_end] {
    workers_.join_retired();
    if (src != nullptr && !src->finished()) return false;
    MutexLock lock(&mu_);
    return arrivals_done_ && clock_.now_ms() >= trace_end &&
           path_.in_flight() == 0;
  };
  const std::uint64_t fired = timers_.run(done, hard_deadline);

  // Close the gate before teardown: submissions racing the shutdown are
  // rejected as draining instead of landing in a dying runtime.
  if (src != nullptr) {
    {
      MutexLock lock(&mu_);
      accepting_external_ = false;
    }
    src->stop();
  }
  // Stop and join every worker with no lock held: a worker may be blocked
  // on the state lock in a callback, which must complete first.
  workers_.stop_and_join_all();

  const bool source_done = src == nullptr || src->finished();
  MutexLock lock(&mu_);
  const SimTime end = clock_.now_ms();
  LiveRunReport report;
  report.result = path_.finish(end);
  report.drained = source_done && arrivals_done_ && path_.in_flight() == 0;
  report.sim_duration_ms = end;
  report.wall_seconds = (end / clock_.scale()) / 1000.0;
  report.time_scale = clock_.scale();
  report.timer_events = fired;
  report.peak_worker_threads = workers_.peak_workers();
  return report;
}

void LiveRuntime::pump(std::size_t i) {
  {
    MutexLock lock(&mu_);
    begin_step();
    path_.submit_job(arrivals_[i]);
    if (i + 1 >= arrivals_.size()) arrivals_done_ = true;
  }
  if (i + 1 < arrivals_.size()) {
    timers_.at(arrivals_[i + 1].time, [this, i](SimTime) { pump(i + 1); });
  }
}

const LiveRuntime::ContainerRef& LiveRuntime::container_ref(ContainerId id) const {
  const auto it = container_refs_.find(value_of(id));
  FIFER_CHECK(it != container_refs_.end(), kCore)
      << "callback from unknown container " << value_of(id);
  return it->second;
}

// ------------------------------------------------------------------- Pacer

void LiveRuntime::after(SimDuration delay, Callback cb) {
  timers_.at(now_ + delay, [this, cb = std::move(cb)](SimTime) mutable {
    MutexLock lock(&mu_);
    begin_step();
    cb();
  });
}

void LiveRuntime::every(SimDuration period_ms, std::function<void(SimTime)> cb) {
  timers_.every(period_ms, [this, cb = std::move(cb)](SimTime) {
    MutexLock lock(&mu_);
    begin_step();
    cb(now_);
  });
}

void LiveRuntime::on_dispatch(StageState&, Container& c, TaskRef task) {
  // The worker's queue bound equals the batch, so the passive slot
  // accounting makes overflow impossible — hence the hard check.
  LiveContainer* worker = workers_.worker(c.id());
  FIFER_CHECK(worker != nullptr, kCore)
      << "dispatch to retired container " << value_of(c.id());
  FIFER_CHECK(worker->submit(task), kCore)
      << "live batch queue overflow on container " << value_of(c.id());
}

void LiveRuntime::on_spawn(StageState& st, Container& c, SimDuration cold_ms) {
  container_refs_.emplace(value_of(c.id()), ContainerRef{&st, c.handle()});
  LiveContainer& worker =
      workers_.adopt(c.id(), st.name(), clock_, c.spawned_at(), cold_ms,
                     static_cast<std::size_t>(c.batch_size()), this);
  if (clock_.started()) {
    worker.start();
  } else {
    pending_start_.push_back(&worker);
  }
}

void LiveRuntime::on_terminate(Container& c) {
  container_refs_.erase(value_of(c.id()));
  // Stops the worker (it is idle or still provisioning — policies only
  // terminate containers without resident work); joined off the state lock.
  workers_.retire(c.id());
}

void LiveRuntime::on_job_completed(const Job& job) {
  // External mode: emit the request's network span (accept -> admission ->
  // response queued) and hand the completion back to the front-end, which
  // writes the response to the originating connection. Still under mu_ —
  // the sink's single-writer contract and the §5f order (state lock ->
  // net-layer leaf locks) both require it.
  if (opts_.external_source != nullptr &&
      value_of(job.id) < external_meta_.size()) {
    const ExternalRequest& req = external_meta_[value_of(job.id)];
    if (obs::TraceSink* t = path_.trace()) {
      obs::SpanRecord s;
      s.job = value_of(job.id);
      s.app = job.app->name;
      s.stage = "net";
      s.enqueued = req.received_ms;   // parsed off the socket
      s.dispatched = job.arrival;     // admitted through the gate
      s.exec_start = job.arrival;
      s.exec_end = job.completion;    // response queued to the connection
      s.container = req.conn_id;
      t->on_span(s);
    }
    ExternalCompletion done;
    done.req = req;
    done.arrival_ms = job.arrival;
    done.completion_ms = job.completion;
    done.violated_slo = job.violated_slo();
    opts_.external_source->on_completion(done);
  }

  // Wake the run loop so the drain check sees the completion promptly.
  timers_.notify();
}

// --------------------------------------------- worker callbacks (data plane)

void LiveRuntime::on_container_ready(ContainerId id) {
  MutexLock lock(&mu_);
  begin_step();
  const ContainerRef& ref = container_ref(id);
  // Tasks dispatched during provisioning already sit in the worker's queue;
  // it drains them by itself.
  path_.container_ready(*ref.stage, ref.handle);
}

SimDuration LiveRuntime::on_task_begin(ContainerId id, TaskRef task) {
  MutexLock lock(&mu_);
  begin_step();
  const ContainerRef& ref = container_ref(id);
  Container* c = ref.stage->get(ref.handle);
  FIFER_CHECK(c != nullptr, kCore)
      << "task begin on reaped container " << value_of(id);
  // The passive queue moves in lockstep with the worker's own.
  const TaskRef begun = path_.begin_task(*ref.stage, *c);
  FIFER_CHECK(begun.job == task.job && begun.stage_index == task.stage_index,
              kCore)
      << "live/passive queue divergence on container " << value_of(id);
  return begun.record().exec_ms;
}

void LiveRuntime::on_task_finish(ContainerId id, TaskRef task) {
  MutexLock lock(&mu_);
  begin_step();
  const ContainerRef& ref = container_ref(id);
  Container* c = ref.stage->get(ref.handle);
  FIFER_CHECK(c != nullptr, kCore)
      << "task finish on reaped container " << value_of(id);
  path_.finish_task(*ref.stage, *c, task);
}

// ------------------------------------------------- external gate (serving)

ExternalGate::Admit LiveRuntime::submit(const ExternalRequest& req) {
  MutexLock lock(&mu_);
  if (!accepting_external_) return Admit::kDraining;
  if (req.app_index >= app_names_.size() || !app_servable_[req.app_index]) {
    return Admit::kUnknownApp;
  }
  begin_step();
  FIFER_DCHECK_EQ(external_meta_.size(), path_.submitted(), kCore);
  external_meta_.push_back(req);
  if (req.received_ms <= 0.0) external_meta_.back().received_ms = now_;

  Arrival arrival;
  arrival.time = now_;
  arrival.app = app_names_[req.app_index];
  arrival.input_scale = req.input_scale;
  path_.submit_job(arrival);
  return Admit::kAccepted;
}

void LiveRuntime::wake() { timers_.notify(); }

LiveRunReport run_live(ExperimentParams params, LiveOptions opts) {
  LiveRuntime rt(std::move(params), opts);
  return rt.run();
}

}  // namespace fifer
