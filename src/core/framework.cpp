#include "core/framework.hpp"

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <thread>
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
/// How often, in wall ms, a served run that is behind serves its sockets.
/// While events are overdue the loop never reaches its wait, where sockets
/// are served; without this, requests and responses would stall until it
/// caught up. Polling before every pass over the due events instead cost
/// 15-31 % of server capacity at 10^4-10^5x compression; at 50 µs a request
/// waits at most that long to be read.
constexpr double kBusyPollWallMs = 0.05;

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

ScaledWallClock::ScaledWallClock(const LiveOptions& opts)
    : live_(opts.time_scale), src_(opts.external_source) {
  const double ms_per_wall_s = 1000.0 * live_.scale();
  if (opts.max_wall_seconds > 0.0) {
    budget_end_ = opts.max_wall_seconds * ms_per_wall_s;
  } else if (src_ != nullptr) {
    // A served run has no trace end to bound it.
    budget_end_ = 60.0 * ms_per_wall_s;
  }
  busy_poll_period_ = kBusyPollWallMs * live_.scale();
}

SimTime ScaledWallClock::advance(SimTime target) {
  const SimTime t = live_.now_ms();
  if (src_ == nullptr || target > t || t < busy_poll_at_) return t;
  src_->poll(LiveClock::WallTime{});
  const SimTime after = live_.now_ms();
  busy_poll_at_ = after + busy_poll_period_;
  return after;
}

void ScaledWallClock::wait_until(SimTime t) {
  const LiveClock::WallTime until = live_.wall_deadline(t);
  if (src_ == nullptr) {
    std::this_thread::sleep_until(until);
    return;
  }
  src_->poll(until);
  busy_poll_at_ = live_.now_ms() + busy_poll_period_;
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
    : clock_(opts),
      src_(opts.external_source),
      path_(std::move(params), *this) {
  FIFER_CHECK(Clock::kWall || src_ == nullptr, kCore)
      << "the virtual clock serves no external source";
  // The wire protocol's app numbering: registry insertion order. An app is
  // servable only if every stage of its chain has a provisioned pool (the
  // mix may cover a subset of the registry).
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
  path_.start();
  if (src_ == nullptr) {
    arrivals_ = path_.plan_arrivals();
    trace_end_ = std::max(path_.params().trace.duration_ms(),
                          arrivals_.empty() ? 0.0 : arrivals_.back().time);
    hard_end_ = trace_end_ + kDrainGrace;
  }

  // Anchor simulated t = 0, then register the events in this order: the
  // arrival pump, the scaler's ticks, housekeeping.
  clock_.start();
  now_ = clock_.now();
  if (!arrivals_.empty()) {
    events_.schedule(arrivals_.front().time, [this] { pump(0); });
  }
  path_.install();

  // Open the front door: from here the loop's waits serve the source, which
  // submits through the gate.
  if constexpr (Clock::kWall) {
    if (src_ != nullptr) {
      accepting_external_ = true;
      src_->start(*this, clock_.live());
    }
  }

  const Ending ending = drive();
  // Close the gate before teardown: a submission from stop() on is rejected
  // as draining instead of landing in a dying run. Events still queued
  // (ready or finish events of a cut-short run) die with the queue; they
  // own nothing.
  accepting_external_ = false;
  if (src_ != nullptr) src_->stop();

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
typename Driver<Clock>::Ending Driver<Clock>::drive() {
  [[maybe_unused]] const typename Clock::Pacing pacing;
  SimTime check_at = std::min(kDrainCheckPeriod, hard_end_);
  while (true) {
    // A served run's wall clock may serve sockets in advance(), which
    // submits requests, so the next event is read after it.
    const SimTime t = clock_.advance(std::min(events_.next_time(), check_at));
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

    // Nothing is due yet, which only happens under the wall clock. A served
    // run checks its drain condition before every wait; then the clock waits
    // until the next event or drain check.
    if (src_ != nullptr && drained(t)) return {t, true};
    clock_.wait_until(std::min(next, check_at));
  }
}

template <class Clock>
bool Driver<Clock>::drained(SimTime t) {
  return t >= trace_end_ && path_.in_flight() == 0 &&
         (src_ == nullptr || src_->finished());
}

template <class Clock>
void Driver<Clock>::pump(std::size_t i) {
  clock_.on_admitted(now_ - arrivals_[i].time);
  path_.submit_job(arrivals_[i]);
  if (i + 1 < arrivals_.size()) {
    events_.schedule(arrivals_[i + 1].time, [this, i] { pump(i + 1); });
  }
}

// ------------------------------------------------------------------- Pacer

template <class Clock>
void Driver<Clock>::after(SimDuration delay, Callback cb) {
  events_.schedule(now_ + std::max(0.0, delay), std::move(cb));
}

template <class Clock>
void Driver<Clock>::every(SimDuration period_ms, std::function<void(SimTime)> cb) {
  if (!(period_ms > 0.0)) {
    throw std::invalid_argument("Driver::every: period must be positive");
  }
  Periodic& p = periodic_.emplace_back(Periodic{period_ms, std::move(cb)});
  const SimTime first = now_ + p.period;
  events_.schedule(first, [this, pp = &p, first] { tick(*pp, first); });
}

template <class Clock>
void Driver<Clock>::tick(Periodic& p, SimTime due) {
  p.cb(now_);
  SimTime next = due + p.period;
  if (next <= now_) next += (std::floor((now_ - next) / p.period) + 1.0) * p.period;
  events_.schedule(next, [this, pp = &p, next] { tick(*pp, next); });
}

template <class Clock>
void Driver<Clock>::on_job_completed(const Job& job) {
  // A replay answers no one, and checks its drain condition only at the
  // drain rule's marks.
  if (src_ == nullptr) return;

  // A served run: emit the request's network span (accept -> admission ->
  // response queued) and hand the completion back to the front-end, which
  // queues the response on the originating connection.
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
}

// ------------------------------------------------- external gate (serving)

template <class Clock>
ExternalGate::Admit Driver<Clock>::submit(const ExternalRequest& req) {
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

template class Driver<VirtualClock>;
template class Driver<ScaledWallClock>;

ExperimentResult run_experiment(ExperimentParams params) {
  return Driver<VirtualClock>(std::move(params)).run().result;
}

LiveRunReport run_live(ExperimentParams params, LiveOptions opts) {
  return Driver<ScaledWallClock>(std::move(params), opts).run();
}

}  // namespace fifer
