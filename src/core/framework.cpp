#include "core/framework.hpp"

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"

namespace fifer {

namespace {

/// The drain rule's cadence: a run may end only at multiples of this.
constexpr SimDuration kDrainCheckPeriod = seconds(10.0);
/// The hard deadline's distance past the trace end.
constexpr SimDuration kDrainGrace = minutes(10.0);

const LockClass& runtime_state_lock_class() {
  static const LockClass cls{"runtime.state", sync::lock_rank::kRuntimeState};
  return cls;
}

}  // namespace

// ------------------------------------------------------- the scaled wall clock

ScaledWallClock::Pacing::Pacing() {
#ifdef __linux__
  const int old = ::prctl(PR_GET_TIMERSLACK, 0, 0, 0, 0);
  if (old > 0 && ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0) == 0) restore_ = old;
#endif
}

ScaledWallClock::Pacing::~Pacing() {
#ifdef __linux__
  if (restore_ > 0) {
    ::prctl(PR_SET_TIMERSLACK, static_cast<unsigned long>(restore_), 0, 0, 0);
  }
#endif
}

ScaledWallClock::ScaledWallClock(const LiveOptions& opts) : live_(opts.time_scale) {
  const double ms_per_wall_s = 1000.0 * live_.scale();
  if (opts.max_wall_seconds > 0.0) {
    budget_end_ = opts.max_wall_seconds * ms_per_wall_s;
  } else if (opts.external_source != nullptr) {
    // A served run has no trace end to bound it.
    budget_end_ = 60.0 * ms_per_wall_s;
  }
}

SimTime ScaledWallClock::advance(MutexLock& lock, SimTime) {
  lock.unlock();
  lock.lock();
  return live_.now_ms();
}

void ScaledWallClock::wait_until(MutexLock& lock, SimTime t) {
  waiting_ = true;
  wakes_at_ = t;
  cv_.wait_until(lock, live_.wall_deadline(t));
  waiting_ = false;
}

void ScaledWallClock::scheduled(SimTime when) {
  if (waiting_ && when < wakes_at_) {
    wakes_at_ = when;
    cv_.notify_one();
  }
}

void ScaledWallClock::notify() {
  if (waiting_) cv_.notify_one();
}

void ScaledWallClock::report(LiveRunReport& r) const {
  r.time_scale = live_.scale();
  r.wall_seconds = (live_.now_ms() / live_.scale()) / 1000.0;
  r.timer_lag = timer_lag_.summary();
  r.admission_lag = admission_lag_.summary();
}

void ScaledWallClock::LagTracker::add(double lag_ms) {
  p50_.add(lag_ms);
  p99_.add(lag_ms);
  max_ = std::max(max_, lag_ms);
}

LagSummary ScaledWallClock::LagTracker::summary() const {
  LagSummary s;
  s.p50_ms = p50_.value();
  s.p99_ms = p99_.value();
  s.max_ms = max_;
  s.samples = p50_.count();
  return s;
}

// ------------------------------------------------------------------ driver

template <class Clock>
Driver<Clock>::Driver(ExperimentParams params, LiveOptions opts)
    : mu_(&runtime_state_lock_class()),
      clock_(opts),
      src_(opts.external_source),
      path_(std::move(params), *this) {
  FIFER_CHECK(Clock::kWall || src_ == nullptr, kCore)
      << "the virtual clock serves no external source";
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

template <class Clock>
LiveRunReport Driver<Clock>::run() {
  FIFER_CHECK(!ran_, kCore) << "Driver::run is single-shot";
  ran_ = true;

  // Offline steps, clock still reading 0: the B_size log, predictor
  // pre-training and static pools. The ready events of containers spawned
  // here are due at their cold-start times on the simulated axis. Then the
  // arrival plan of a replay, and its hard deadline.
  {
    MutexLock lock(&mu_);
    path_.start();
    if (src_ == nullptr) {
      arrivals_ = path_.plan_arrivals();
      trace_end_ = std::max(path_.params().trace.duration_ms(),
                            arrivals_.empty() ? 0.0 : arrivals_.back().time);
      hard_end_ = trace_end_ + kDrainGrace;
    } else {
      accepting_external_ = true;
      // A source may be finished before it starts: check at once.
      woken_ = true;
    }
  }

  // Anchor simulated t = 0, then register the events in this order: the
  // arrival pump, the scaler's ticks, housekeeping.
  clock_.start();
  {
    MutexLock lock(&mu_);
    now_ = clock_.now();
    if (!arrivals_.empty()) {
      schedule(arrivals_.front().time, [this] { pump(0); });
    }
    path_.install();
  }

  // Open the front door: from here the source's I/O thread submits through
  // the gate concurrently with the loop.
  if constexpr (Clock::kWall) {
    if (src_ != nullptr) src_->start(*this, clock_.live());
  }

  Ending ending{};
  {
    MutexLock lock(&mu_);
    ending = drive(lock);
    // Close the gate before teardown: submissions racing the shutdown are
    // rejected as draining instead of landing in a dying run. Events still
    // queued (ready or finish events of a cut-short run) die with the
    // queue; they own nothing.
    accepting_external_ = false;
  }
  if (src_ != nullptr) src_->stop();

  MutexLock lock(&mu_);
  LiveRunReport report;
  clock_.report(report);
  report.result = path_.finish(ending.at);
  report.result.sim_events = fired_;
  report.drained = ending.drained;
  report.sim_duration_ms = ending.at;
  report.timer_events = fired_;
  return report;
}

template <class Clock>
typename Driver<Clock>::Ending Driver<Clock>::drive(MutexLock& lock) {
  [[maybe_unused]] const typename Clock::Pacing pacing;
  SimTime check_at = std::min(kDrainCheckPeriod, hard_end_);
  while (true) {
    // The wall clock lets go of the lock in advance(), so the next event is
    // read after it.
    const SimTime t = clock_.advance(lock, std::min(events_.next_time(), check_at));
    const SimTime next = events_.next_time();
    if (clock_.expired(t)) return {t, false};

    // One step per due event, with the clock reading that found it due.
    if (next <= std::min(t, check_at)) {
      EventQueue::Fired due = events_.pop();
      // The clock only moves forward.
      FIFER_DCHECK_GE(t, now_, kSim);
      now_ = t;
      clock_.on_fired(t - due.time);
      {
        obs::ScopedTimer timer(path_.profiler(), "sim.event");
        due.callback();
      }
      ++fired_;
      continue;
    }

    // The drain rule, checked once every event due at or before check_at
    // fired. A replay is drained past its trace end (zero-rate tails
    // included — that is where scale-down shows) with nothing in flight.
    if (t >= check_at) {
      if (drained(check_at)) return {check_at, true};
      if (check_at >= hard_end_) return {check_at, false};
      check_at = std::min(check_at + kDrainCheckPeriod, hard_end_);
      continue;
    }

    // Nothing is due yet, which only happens under the wall clock. A wake
    // re-checks the drain condition; otherwise sleep until the next event
    // or drain check, unless a step on another thread cuts the sleep short.
    if (woken_) {
      woken_ = false;
      if (drained(t)) return {t, true};
      continue;
    }
    clock_.wait_until(lock, std::min(next, check_at));
  }
}

template <class Clock>
bool Driver<Clock>::drained(SimTime t) {
  return t >= trace_end_ && path_.in_flight() == 0 &&
         (src_ == nullptr || src_->finished());
}

template <class Clock>
void Driver<Clock>::schedule(SimTime when, EventQueue::Callback cb) {
  events_.schedule(when, std::move(cb));
  clock_.scheduled(when);
}

template <class Clock>
void Driver<Clock>::wake_loop() {
  woken_ = true;
  clock_.notify();
}

template <class Clock>
void Driver<Clock>::pump(std::size_t i) {
  clock_.on_admitted(now_ - arrivals_[i].time);
  path_.submit_job(arrivals_[i]);
  if (i + 1 < arrivals_.size()) {
    schedule(arrivals_[i + 1].time, [this, i] { pump(i + 1); });
  }
}

// ------------------------------------------------------------------- Pacer

template <class Clock>
void Driver<Clock>::after(SimDuration delay, Callback cb) {
  schedule(now_ + std::max(0.0, delay), std::move(cb));
}

template <class Clock>
void Driver<Clock>::every(SimDuration period_ms, std::function<void(SimTime)> cb) {
  if (!(period_ms > 0.0)) {
    throw std::invalid_argument("Driver::every: period must be positive");
  }
  Periodic& p = periodic_.emplace_back(Periodic{period_ms, std::move(cb)});
  const SimTime first = now_ + p.period;
  schedule(first, [this, pp = &p, first] { tick(*pp, first); });
}

template <class Clock>
void Driver<Clock>::tick(Periodic& p, SimTime due) {
  p.cb(now_);
  SimTime next = due + p.period;
  if (next <= now_) next += (std::floor((now_ - next) / p.period) + 1.0) * p.period;
  schedule(next, [this, pp = &p, next] { tick(*pp, next); });
}

template <class Clock>
void Driver<Clock>::on_job_completed(const Job& job) {
  // A replay answers no one, and checks its drain condition only at the
  // drain rule's marks.
  if (src_ == nullptr) return;

  // A served run: emit the request's network span (accept -> admission ->
  // response queued) and hand the completion back to the front-end, which
  // writes the response to the originating connection. Still under mu_ —
  // the sink's single-writer contract and the §5f order (state lock ->
  // net-layer leaf locks) both require it.
  FIFER_DCHECK_LT(value_of(job.id), external_meta_.size(), kCore);
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
  src_->on_completion(done);

  // The last completion may satisfy the drain condition.
  if (path_.in_flight() == 0) wake_loop();
}

// ------------------------------------------------- external gate (serving)

template <class Clock>
ExternalGate::Admit Driver<Clock>::submit(const ExternalRequest& req) {
  MutexLock lock(&mu_);
  if (!accepting_external_) return Admit::kDraining;
  if (req.app_index >= app_names_.size() || !app_servable_[req.app_index]) {
    return Admit::kUnknownApp;
  }
  // A gate step reads the clock once for everything it stamps.
  now_ = clock_.now();
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

template <class Clock>
void Driver<Clock>::wake() {
  MutexLock lock(&mu_);
  wake_loop();
}

template class Driver<VirtualClock>;
template class Driver<ScaledWallClock>;

ExperimentResult run_experiment(ExperimentParams params) {
  return Driver<VirtualClock>(std::move(params)).run().result;
}

LiveRunReport run_live(ExperimentParams params, LiveOptions opts) {
  return Driver<ScaledWallClock>(std::move(params), opts).run();
}

}  // namespace fifer
