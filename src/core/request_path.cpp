#include "core/request_path.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/check.hpp"
#include "common/json.hpp"
#include "core/policy/batch_sizer.hpp"
#include "core/policy/placer.hpp"
#include "core/policy/scaler.hpp"
#include "core/policy/scheduler.hpp"
#include "obs/recording_sink.hpp"

namespace fifer {

Rng split_arrival_stream(Rng& run_rng) { return run_rng.split(0xA221); }

std::vector<Arrival> draw_arrival_plan(const ExperimentParams& params, Rng arrival_rng) {
  return generate_arrivals(params.trace, params.mix, arrival_rng,
                           params.input_scale_jitter);
}

RequestPath::RequestPath(ExperimentParams params, Pacer& pacer)
    : params_(std::move(params)),
      pacer_(pacer),
      cluster_(params_.cluster),
      services_(params_.services),
      apps_(params_.applications),
      engine_(assemble_policy_engine(params_)),
      profiles_(params_.mix, apps_, services_, *engine_.batch_sizer,
                params_.rm.batch_cap),
      metrics_(params_.warmup_ms),
      rng_(params_.seed),
      arrival_rng_(split_arrival_stream(rng_)),
      bus_(params_.bus) {
  // Stages are built in place (their containers point into them) with
  // their microservice and metrics slot, and each chain maps to its
  // stages, so no per-task step looks anything up by name. A chain with a
  // stage outside the mix keeps a null there.
  for (const auto& [name, profile] : profiles_.stages()) {
    stages_.emplace(std::piecewise_construct, std::forward_as_tuple(name),
                    std::forward_as_tuple(profile, engine_.scheduler->policy(),
                                          &services_.at(name),
                                          &metrics_.stage(name)));
  }
  for (const ApplicationChain& app : apps_.all()) {
    std::vector<StageState*>& chain = chains_.emplace_back();
    for (const std::string& stage : app.stages) {
      const auto it = stages_.find(stage);
      chain.push_back(it == stages_.end() ? nullptr : &it->second);
    }
  }
  if (!params_.trace_log_path.empty()) {
    trace_log_.open(params_.trace_log_path);
    if (!trace_log_) {
      throw std::runtime_error("RequestPath: cannot open trace log " +
                               params_.trace_log_path);
    }
  }
  sink_ = params_.trace_sink;
  if (sink_ == nullptr && !params_.trace_prefix.empty()) {
    sink_ = std::make_shared<obs::RecordingTraceSink>();
  }
  if (sink_ != nullptr) {
    prof_ = &profiler_;
    cluster_.set_profiler(prof_);
  }
}

// ------------------------------------------------------------ driving a run

void RequestPath::start() {
  trace_batch_profiles();
  // Predictor pre-training (the paper trains on 60% of the trace) and static
  // pools for SBatch: delegated to the scaler.
  engine_.scaler->on_start(*this);
}

std::vector<Arrival> RequestPath::plan_arrivals() const {
  return draw_arrival_plan(params_, arrival_rng_);
}

void RequestPath::install() {
  engine_.scaler->install(*this);
  pacer_.every(params_.housekeeping_interval_ms,
               [this](SimTime) { housekeeping_tick(); });
}

ExperimentResult RequestPath::finish(SimTime end) {
  // Under the wall clock a step due at or before `end` runs at its clock
  // reading, which may lie a little past `end`; energy then counts up to
  // that last step. In the simulator no step runs past `end`.
  cluster_.advance_energy(std::max(end, cluster_.energy_watermark()));
  ExperimentResult result = metrics_.finish(end, cluster_.energy_joules());
  result.policy = params_.rm.name;
  result.mix = params_.mix.name();
  result.trace = params_.trace_name;
  result.bus_transitions = bus_.total_transitions();
  result.bus_peak_congestion = bus_.peak_congestion();
  result.predictor_retrains = engine_.scaler->predictor_retrains();
  export_trace_files();
  return result;
}

void RequestPath::every(SimDuration period_ms, std::function<void(SimTime)> cb) {
  pacer_.every(period_ms, std::move(cb));
}

// ------------------------------------------------------------- workload path

void RequestPath::submit_job(const Arrival& arrival) {
  const SimTime now = pacer_.now();
  Job& job = jobs_[jobs_.emplace()];
  job.id = static_cast<JobId>(next_job_id_++);
  job.app = &apps_.at(arrival.app);
  job.arrival = now;
  job.planned = arrival.time;
  job.input_scale = arrival.input_scale;
  job.records.resize(job.app->stages.size());
  if (job.app->is_dynamic()) {
    // Resolve this request's branches up front (data-dependent in a real
    // deployment; sampled here).
    job.stage_active.resize(job.app->stages.size());
    for (std::size_t i = 0; i < job.stage_active.size(); ++i) {
      job.stage_active[i] = rng_.bernoulli(job.app->stage_prob(i));
    }
  }

  metrics_.on_job_submitted(job);
  sampler_.record_arrival(now);

  // The first stage also pays the function-transition + data-fetch overhead
  // (trigger delivery through the event bus), consistent with the chain
  // response budget = sum(exec) + stages * overhead.
  transition_to_stage(job, 0);
}

void RequestPath::transition_to_stage(Job& job, std::size_t stage_index) {
  // Dynamic chains: hop over stages this request's branches skip. Skipped
  // stages cost nothing — the orchestrator short-circuits the transition.
  std::size_t idx = stage_index;
  while (idx < job.app->stages.size() && !job.stage_runs(idx)) ++idx;
  if (idx >= job.app->stages.size()) {
    complete_job(job);
    return;
  }

  const SimDuration latency =
      bus_.begin_transition(job.app->stage_overhead_ms, rng_);
  Job* jp = &job;  // slab: stable address for the job's lifetime
  pacer_.after(latency, [this, jp, idx] {
    bus_.end_transition();
    enqueue_task(*jp, idx);
  });
}

void RequestPath::enqueue_task(Job& job, std::size_t stage_index) {
  const SimTime now = pacer_.now();
  // job.app points into apps_, whose order chains_ follows.
  StageState* const stp =
      chains_[static_cast<std::size_t>(job.app - apps_.all().data())][stage_index];
  FIFER_CHECK(stp != nullptr, kCore)
      << "unknown stage " << job.app->stages[stage_index];
  StageState& st = *stp;
  job.records[stage_index].enqueued = now;
  const double key = engine_.scheduler->priority_key(*this, job, stage_index);
  st.enqueue(TaskRef{&job, stage_index}, key);
  if (obs::TraceSink* t = sink_.get()) {
    obs::PolicyDecision d;
    d.time = now;
    d.kind = "schedule";
    d.policy = engine_.scheduler->name();
    d.stage = st.name();
    d.inputs = {{"job", static_cast<double>(value_of(job.id))},
                {"priority_key", key},
                {"queue_len", static_cast<double>(st.queue_length())}};
    d.outcome = "enqueued";
    d.value = key;
    t->on_decision(d);
  }

  engine_.scaler->on_arrival(*this, st);
  dispatch_stage(st);
}

void RequestPath::dispatch_stage(StageState& st) {
  // Covers the scheduler's queue pick (LSF pop) and the placer's container
  // selection — two of the hot paths the profiler tracks.
  obs::ScopedTimer timer(prof_, "stage.dispatch");
  const SimTime now = pacer_.now();
  while (!st.queue_empty()) {
    Container* c = engine_.placer->select_container(st);
    if (c == nullptr) break;  // No free slot anywhere; scaling will react.
    TaskRef task = st.pop_next();
    StageRecord& rec = task.record();
    rec.dispatched = now;
    rec.container = c->id();
    rec.container_handle = c->handle();
    if (obs::TraceSink* t = sink_.get()) {
      rec.batch_slot = c->occupied();
      rec.slack_at_dispatch_ms = task.job->remaining_slack_ms(
          now, profiles_.app(task.job->app->name).suffix_busy_ms[task.stage_index]);
      obs::PolicyDecision d;
      d.time = now;
      d.kind = "place";
      d.policy = engine_.placer->name();
      d.stage = st.name();
      d.inputs = {{"job", static_cast<double>(value_of(task.job->id))},
                  {"batch_slot", static_cast<double>(rec.batch_slot)},
                  {"slack_ms", rec.slack_at_dispatch_ms}};
      d.outcome = "container";
      d.value = static_cast<double>(value_of(c->id()));
      t->on_decision(d);
    }
    c->enqueue(task);
    run_next_task(st, *c);
  }
}

void RequestPath::run_next_task(StageState& st, Container& c) {
  if (!c.warm() || c.executing() || c.queued() == 0) return;
  const TaskRef task = begin_task(st, c);
  StageState* stp = &st;
  const SlabHandle<Container> h = c.handle();
  pacer_.after(task.record().exec_ms,
               [this, stp, h, task] { finish_task(*stp, h, task); });
}

TaskRef RequestPath::begin_task(StageState& st, Container& c) {
  const SimTime now = pacer_.now();
  TaskRef task = c.pop();
  StageRecord& rec = task.record();
  rec.exec_start = now;
  // Lifecycle timestamps are causally ordered: a task enters the stage
  // queue, is bound to a container, then starts executing.
  FIFER_DCHECK_GE(rec.dispatched, rec.enqueued, kCore);
  FIFER_DCHECK_GE(rec.exec_start, rec.dispatched, kCore);
  // The cold-start share of this task's wait is the overlap between its
  // time in the queue [enqueued, exec_start] and the executing container's
  // provisioning interval [spawned_at, ready_at]; the rest is genuine
  // queuing behind other requests.
  rec.cold_start_wait_ms = std::max(
      0.0, std::min(now, c.ready_at()) - std::max(rec.enqueued, c.spawned_at()));
  // The cold-start share is an overlap of two sub-intervals of the wait, so
  // it can never exceed the total wait.
  FIFER_DCHECK_LE(rec.cold_start_wait_ms, rec.wait_ms(), kCore);
  st.record_wait(now, rec.wait_ms());

  rec.exec_ms = st.service()->sample_exec_ms(rng_, task.job->input_scale);
  c.begin_execution(now);
  return task;
}

void RequestPath::finish_task(StageState& st, SlabHandle<Container> h,
                              TaskRef task) {
  Container* cp = st.get(h);
  // Policies only terminate containers without resident work, so a task
  // always finishes on a live container.
  FIFER_CHECK(cp != nullptr && !cp->terminated(), kCore)
      << "task finish on a reaped container";
  Container& c = *cp;
  const SimTime now = pacer_.now();
  StageRecord& rec = task.record();
  rec.exec_end = now;
  FIFER_DCHECK_GE(rec.exec_end, rec.exec_start, kCore);
  c.end_execution(now);
  metrics_.on_task_executed(*st.metrics(), rec, c.jobs_executed() == 1);
  if (obs::TraceSink* t = sink_.get()) {
    obs::SpanRecord span;
    span.job = value_of(task.job->id);
    span.app = task.job->app->name;
    span.stage = st.name();
    span.stage_index = static_cast<std::uint32_t>(task.stage_index);
    span.enqueued = rec.enqueued;
    span.dispatched = rec.dispatched;
    span.exec_start = rec.exec_start;
    span.exec_end = rec.exec_end;
    span.exec_ms = rec.exec_ms;
    span.cold_wait_ms = rec.cold_start_wait_ms;
    span.slack_at_dispatch_ms = rec.slack_at_dispatch_ms;
    span.container = value_of(rec.container);
    span.container_handle = rec.container_handle;
    span.batch_slot = rec.batch_slot;
    t->on_span(span);
  }

  // transition_to_stage handles both the next hop and chain completion
  // (including branch skips); completed jobs' records are folded into the
  // aggregates and freed there to keep long runs memory-bounded.
  transition_to_stage(*task.job, task.stage_index + 1);
  run_next_task(st, c);
  dispatch_stage(st);  // a slot opened up
}

void RequestPath::complete_job(Job& job) {
  job.completion = pacer_.now();
  FIFER_DCHECK_GE(job.completion, job.arrival, kCore);
  ++completed_jobs_;
  metrics_.on_job_completed(job);
  log_job(job);
  // Records are folded into the aggregates (and the trace log); free them
  // to keep long runs memory-bounded.
  job.records.clear();
  job.records.shrink_to_fit();
  pacer_.on_job_completed(job);
}

// ------------------------------------------------------ container lifecycle

Container* RequestPath::spawn_container(StageState& st) {
  const SimTime now = pacer_.now();
  const MicroserviceSpec& spec = *st.service();
  auto node = cluster_.allocate(spec.cpu_cores, spec.memory_mb,
                                engine_.placer->node_selection(), now);
  if (!node && params_.rm.enable_reclamation && reclaim_idle_capacity()) {
    node = cluster_.allocate(spec.cpu_cores, spec.memory_mb,
                             engine_.placer->node_selection(), now);
  }
  if (!node) {
    metrics_.on_spawn_failure(*st.metrics());
    return nullptr;
  }
  const auto id = static_cast<ContainerId>(next_container_id_++);
  const SimDuration cold = params_.cold_start.sample_cold_start_ms(spec, rng_);
  Container& c = st.add_container(id, *node, st.profile().batch, now, cold);
  metrics_.on_container_spawned(*st.metrics());
  log_container(st.name(), id, cold);
  StageState* stp = &st;
  const SlabHandle<Container> h = c.handle();
  pacer_.after(cold, [this, stp, h] { container_ready(*stp, h); });
  return &c;
}

void RequestPath::terminate_container(StageState& st, Container& c) {
  const SimTime now = pacer_.now();
  const MicroserviceSpec& spec = *st.service();
  cluster_.release(c.node(), spec.cpu_cores, spec.memory_mb, now);
  c.terminate(now);
}

void RequestPath::container_ready(StageState& st, SlabHandle<Container> h) {
  Container* c = st.get(h);
  // Policies only terminate idle *warm* containers, so a pending cold start
  // always finds its container alive.
  FIFER_CHECK(c != nullptr && !c->terminated(), kCore)
      << "cold start completed on a reaped container";
  c->mark_warm(pacer_.now());
  run_next_task(st, *c);
  // Placers that pass over provisioning containers left work in the stage
  // queue for this one.
  dispatch_stage(st);
}

bool RequestPath::reclaim_idle_capacity() {
  // The least recently used idle container across stages: each stage's
  // candidate is the top of its index's idle heap, and an earlier stage
  // (map order) keeps a tie.
  StageState* victim_stage = nullptr;
  Container* victim = nullptr;
  for (auto& [name, st] : stages_) {
    // Never shrink a stage that has work waiting or only one container.
    if (st.queue_length() > 0 || st.live_count() <= 1) continue;
    Container* c = st.least_recently_used_idle();
    if (c != nullptr &&
        (victim == nullptr || c->last_used_at() < victim->last_used_at())) {
      victim = c;
      victim_stage = &st;
    }
  }
  if (victim == nullptr) return false;
  terminate_container(*victim_stage, *victim);
  victim_stage->erase_terminated();
  return true;
}

void RequestPath::reap_idle_containers() {
  if (!engine_.scaler->reaps_idle()) return;  // fixed pool
  const SimTime now = pacer_.now();
  for (auto& [name, st] : stages_) {
    auto live = static_cast<int>(st.live_count());
    for (Container& c : st.live()) {
      if (live <= st.keep_warm_floor()) break;  // proactive target holds
      if (c.idle_expired(now, params_.rm.idle_timeout_ms)) {
        terminate_container(st, c);
        --live;
      }
    }
    st.erase_terminated();
  }
}

void RequestPath::check_request_conservation() const {
  // Request conservation: at step boundaries every submitted job is in
  // exactly one place — completed, resident in some stage (global queue,
  // container local queue, or executing), or riding a bus transition
  // between stages. Lost or duplicated requests break this equality.
  std::uint64_t resident = 0;
  for (const auto& [name, st] : stages_) {
    resident += st.queue_length();
    for (const Container& c : st.live()) {
      resident += c.queued() + (c.executing() ? 1 : 0);
    }
  }
  FIFER_CHECK_EQ(jobs_.size() - completed_jobs_, resident + bus_.inflight(), kCore)
      << "submitted=" << jobs_.size() << " completed=" << completed_jobs_
      << " resident=" << resident << " in-transition=" << bus_.inflight();
}

void RequestPath::housekeeping_tick() {
  check_request_conservation();
  for (const auto& [name, st] : stages_) {
    FIFER_DCHECK_EQ(st.audit_fleet_index(), std::string(), kCore)
        << "fleet index of stage " << name << " disagrees with a scan";
  }
  reap_idle_containers();
  const SimTime now = pacer_.now();
  cluster_.power_down_idle_nodes(now);

  // Starvation guard: a stage whose queue is non-empty but whose fleet has
  // neither a free warm slot nor a cold start in flight would otherwise wait
  // for its next arrival (or forever, under reactive policies that saw the
  // cluster full). Kubernetes keeps pending pods and schedules them as
  // capacity frees; we retry here after the reap.
  for (auto& [name, st] : stages_) {
    if (st.queue_length() > 0 &&
        st.warm_free_slots() + st.provisioning_slots() == 0) {
      engine_.scaler->on_starved(*this, st);
    }
  }

  TimelineSample sample;
  sample.time = now;
  for (auto& [name, st] : stages_) {
    sample.active_containers += static_cast<std::uint32_t>(st.warm_count());
    sample.provisioning_containers +=
        static_cast<std::uint32_t>(st.provisioning_count());
    sample.queued_tasks += st.queue_length();
  }
  sample.powered_on_nodes = cluster_.powered_on_nodes();
  sample.power_watts = cluster_.power_watts();
  metrics_.record_timeline(sample);
}

// ----------------------------------------------------------- trace outputs

void RequestPath::log_job(const Job& job) {
  if (!trace_log_.is_open()) return;
  Json j = Json::object();
  j["type"] = "job";
  j["id"] = value_of(job.id);
  j["app"] = job.app->name;
  j["arrival_ms"] = job.arrival;
  j["completion_ms"] = job.completion;
  j["response_ms"] = job.response_ms();
  j["violated_slo"] = job.violated_slo();
  Json stages = Json::array();
  for (std::size_t i = 0; i < job.records.size(); ++i) {
    if (!job.stage_runs(i)) continue;
    const StageRecord& rec = job.records[i];
    Json s = Json::object();
    s["stage"] = job.app->stages[i];
    s["enqueued_ms"] = rec.enqueued;
    s["exec_start_ms"] = rec.exec_start;
    s["exec_end_ms"] = rec.exec_end;
    s["cold_wait_ms"] = rec.cold_start_wait_ms;
    s["container"] = value_of(rec.container);
    stages.push_back(std::move(s));
  }
  j["stages"] = std::move(stages);
  trace_log_ << j.dump() << '\n';
}

void RequestPath::log_container(const std::string& stage, ContainerId id,
                                SimDuration cold_ms) {
  if (!trace_log_.is_open()) return;
  Json j = Json::object();
  j["type"] = "container";
  j["stage"] = stage;
  j["id"] = value_of(id);
  j["spawned_ms"] = pacer_.now();
  j["cold_start_ms"] = cold_ms;
  trace_log_ << j.dump() << '\n';
}

void RequestPath::trace_batch_profiles() {
  obs::TraceSink* t = sink_.get();
  if (t == nullptr) return;
  for (const auto& [name, st] : stages_) {
    const StageProfile& prof = st.profile();
    obs::PolicyDecision d;
    d.time = pacer_.now();
    d.kind = "batch-size";
    d.policy = engine_.batch_sizer->name();
    d.stage = name;
    d.inputs = {{"exec_ms", prof.exec_ms}, {"slack_ms", prof.slack_ms}};
    d.outcome = "B_size";
    d.value = prof.batch;
    t->on_decision(d);
  }
}

void RequestPath::export_trace_files() {
  if (params_.trace_prefix.empty()) return;
  if (const auto* rec = dynamic_cast<const obs::RecordingTraceSink*>(sink_.get())) {
    rec->export_chrome_trace(params_.trace_prefix + ".trace.json");
    rec->export_spans_csv(params_.trace_prefix + ".spans.csv");
    rec->export_decisions_csv(params_.trace_prefix + ".decisions.csv");
  }
  // Host-time profile: kept out of the deterministic exports by design.
  if (!profiler_.empty()) {
    profiler_.export_csv(params_.trace_prefix + ".profile.csv");
  }
}

}  // namespace fifer
