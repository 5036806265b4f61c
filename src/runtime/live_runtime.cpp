#include "runtime/live_runtime.hpp"

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "obs/trace_sink.hpp"

namespace fifer {

namespace {

const LockClass& runtime_state_lock_class() {
  static const LockClass cls{"runtime.state", sync::lock_rank::kRuntimeState};
  return cls;
}

/// Sets the calling thread's timer slack to 1 ns while in scope, then puts
/// the previous value back. The kernel's default slack (50 µs) lets every
/// timed wait of the event loop end up to that much late, which is 50
/// simulated ms per wake at 1000x compression.
class ScopedTimerSlack {
 public:
  ScopedTimerSlack() {
#ifdef __linux__
    const int old = ::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
    if (old > 0 && ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0) == 0) restore_ = old;
#endif
  }
  ~ScopedTimerSlack() {
#ifdef __linux__
    if (restore_ > 0) {
      ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(restore_), 0, 0, 0);
    }
#endif
  }
  ScopedTimerSlack(const ScopedTimerSlack&) = delete;
  ScopedTimerSlack& operator=(const ScopedTimerSlack&) = delete;

 private:
  int restore_ = 0;
};

}  // namespace

void LiveRuntime::LagTracker::add(double lag_ms) {
  p50_.add(lag_ms);
  p99_.add(lag_ms);
  max_ = std::max(max_, lag_ms);
}

LagSummary LiveRuntime::LagTracker::summary() const {
  LagSummary s;
  s.p50_ms = p50_.value();
  s.p99_ms = p99_.value();
  s.max_ms = max_;
  s.samples = p50_.count();
  return s;
}

LiveRuntime::LiveRuntime(ExperimentParams params, LiveOptions opts)
    : mu_(&runtime_state_lock_class()),
      opts_(opts),
      clock_(opts.time_scale),
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

LiveRunReport LiveRuntime::run() {
  FIFER_CHECK(!ran_, kCore) << "LiveRuntime::run is single-shot";
  ran_ = true;
  ExternalArrivalSource* src = opts_.external_source;

  // Offline steps, clock still reading 0: the B_size log, predictor
  // pre-training and static pools. The ready events of containers spawned
  // here are due at their cold-start times on the simulated axis, so they
  // fire that long after the anchor below. Then the arrival plan, the same
  // one the simulator draws from this seed.
  SimTime trace_end = 0.0;
  {
    MutexLock lock(&mu_);
    path_.start();
    if (src == nullptr) {
      arrivals_ = path_.plan_arrivals();
      trace_end = std::max(path_.params().trace.duration_ms(),
                           arrivals_.empty() ? 0.0 : arrivals_.back().time);
    } else {
      accepting_external_ = true;
    }
    arrivals_done_ = arrivals_.empty();
  }

  // Anchor simulated t = 0, then register the events in the simulator's
  // order: arrival pump, the scaler's ticks, housekeeping.
  clock_.start();
  {
    MutexLock lock(&mu_);
    begin_step();
    if (!arrivals_.empty()) {
      schedule(arrivals_.front().time, [this] { pump(0); });
    }
    path_.install();
  }

  // Bounded shutdown: the hard deadline caps the run even if the workload
  // wedges. A replay derives it from the trace plus the drain grace, with a
  // fixed 2 wall-second margin for scheduling noise; a serving run has no
  // trace length, so it defaults to a minute of wall time.
  const double ms_per_wall_s = 1000.0 * clock_.scale();
  SimTime hard_end = trace_end + opts_.drain_grace_ms + 2.0 * ms_per_wall_s;
  if (opts_.max_wall_seconds > 0.0) {
    hard_end = opts_.max_wall_seconds * ms_per_wall_s;
  } else if (src != nullptr) {
    hard_end = 60.0 * ms_per_wall_s;
  }

  // Open the front door: from here the source's I/O thread submits through
  // the gate concurrently with the event loop.
  if (src != nullptr) src->start(*this, clock_);

  std::uint64_t fired = 0;
  {
    const ScopedTimerSlack slack;
    fired = drive(trace_end, hard_end);
  }

  // Close the gate before teardown: submissions racing the shutdown are
  // rejected as draining instead of landing in a dying runtime. Events
  // still queued (ready or finish events of a cut-short run) die with the
  // queue; they own nothing.
  if (src != nullptr) {
    {
      MutexLock lock(&mu_);
      accepting_external_ = false;
    }
    src->stop();
  }

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
  report.timer_lag = timer_lag_.summary();
  report.admission_lag = admission_lag_.summary();
  return report;
}

std::uint64_t LiveRuntime::drive(SimTime trace_end_ms, SimTime hard_end_ms) {
  ExternalArrivalSource* src = opts_.external_source;
  std::uint64_t fired = 0;
  while (true) {
    // The source's drain predicate is polled off the state lock (its
    // contract); a source that finishes calls wake(), which the check of
    // woken_ below cannot miss.
    const bool source_done = src == nullptr || src->finished();
    MutexLock lock(&mu_);
    const SimTime now = clock_.now_ms();
    if (now >= hard_end_ms) break;
    // Drained: no more arrivals coming (the trace replayed to its end,
    // zero-rate tails included — that is where scale-down shows; or the
    // source finished), and every submitted request completed.
    if (source_done && arrivals_done_ && now >= trace_end_ms &&
        path_.in_flight() == 0) {
      break;
    }

    // One step per due event, with the clock reading that found it due.
    if (events_.next_time() <= now) {
      EventQueue::Fired due = events_.pop();
      now_ = now;
      timer_lag_.add(now - due.time);
      due.callback();
      ++fired;
      continue;
    }

    if (woken_) {
      woken_ = false;
      continue;
    }
    // Nothing due: sleep until the next event, the trace end (where the
    // drain condition can start to hold) or the hard deadline. schedule()
    // and wake_loop() cut the sleep short.
    SimTime until = std::min(events_.next_time(), hard_end_ms);
    if (now < trace_end_ms) until = std::min(until, trace_end_ms);
    loop_waiting_ = true;
    loop_wakes_at_ = until;
    cv_.wait_until(lock, clock_.wall_deadline(until));
    loop_waiting_ = false;
  }
  return fired;
}

void LiveRuntime::schedule(SimTime when, EventQueue::Callback cb) {
  events_.schedule(when, std::move(cb));
  if (loop_waiting_ && when < loop_wakes_at_) {
    loop_wakes_at_ = when;
    cv_.notify_one();
  }
}

void LiveRuntime::wake_loop() {
  woken_ = true;
  if (loop_waiting_) cv_.notify_one();
}

void LiveRuntime::pump(std::size_t i) {
  admission_lag_.add(now_ - arrivals_[i].time);
  path_.submit_job(arrivals_[i]);
  if (i + 1 < arrivals_.size()) {
    schedule(arrivals_[i + 1].time, [this, i] { pump(i + 1); });
  } else {
    arrivals_done_ = true;
  }
}

// ------------------------------------------------------------------- Pacer

void LiveRuntime::after(SimDuration delay, Callback cb) {
  schedule(now_ + std::max(0.0, delay), std::move(cb));
}

void LiveRuntime::every(SimDuration period_ms, std::function<void(SimTime)> cb) {
  Periodic& p = periodic_.emplace_back(
      Periodic{std::max(period_ms, 1e-9), std::move(cb)});
  const SimTime first = now_ + p.period;
  schedule(first, [this, pp = &p, first] { tick(*pp, first); });
}

void LiveRuntime::tick(Periodic& p, SimTime due) {
  p.cb(now_);
  // When the loop fell a period or more behind, the missed occurrences are
  // skipped, not replayed in a burst: the next one is the first on the
  // period grid past now. A live monitoring tick wants "at this cadence",
  // not "this many times".
  SimTime next = due + p.period;
  if (next <= now_) next += (std::floor((now_ - next) / p.period) + 1.0) * p.period;
  schedule(next, [this, pp = &p, next] { tick(*pp, next); });
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

  // The last completion may satisfy the drain condition.
  if (path_.in_flight() == 0) wake_loop();
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

void LiveRuntime::wake() {
  MutexLock lock(&mu_);
  wake_loop();
}

LiveRunReport run_live(ExperimentParams params, LiveOptions opts) {
  LiveRuntime rt(std::move(params), opts);
  return rt.run();
}

}  // namespace fifer
