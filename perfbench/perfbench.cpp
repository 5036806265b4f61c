// perfbench: one measurement round of one workload through both
// request paths of the Fifer reproduction. It checks the outputs and prints
// the raw per-experiment and per-session figures as one JSON line; run.py
// repeats rounds in fresh processes and reduces them to the metrics.
//
// A workload is a resource-manager preset. A round has two phases:
//
//  1. sim: the paper's §5.2 full-scale regime (157 x 16 = 2512 cores, a
//     Wiki-shaped trace at its published ~1500 req/s average, 300 simulated
//     seconds, the heavy mix) through the discrete-event simulator, once.
//  2. serve: the served runtime (epoll front end + live runtime) over
//     loopback, driven by the built-in load generator in closed loop
//     (4 connections x 8 outstanding requests), in kServeSessions sessions.
//     The time compression is high enough that the software, not simulated
//     service time, bounds the round trip.
//
// Start-up latency (`setup_s`) runs from handing the program its parameters
// until Scaler::install returns, the last step before requests flow: it
// covers framework or runtime construction, the arrival plan and predictor
// pre-training.
//
// With --trace 1 the policy strategies are wrapped, through the public
// ExperimentParams::policy_factory hook, in timers that attribute wall time
// to the scaler (including the spawns it triggers), the scheduler and the
// placer. The rest of the simulator's event loop is the event queue,
// framework bookkeeping, metrics, event bus and RNG. With --trace 0 the
// wrappers only forward and note simulated-time segment boundaries, so
// end-to-end figures carry no per-call timing.
//
// Usage: perfbench --workload bline|fifer --seed N --trace 0|1

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/framework.hpp"
#include "core/policy/placer.hpp"
#include "core/policy/scaler.hpp"
#include "core/policy/scheduler.hpp"
#include "net/loadgen.hpp"
#include "net/serve_session.hpp"
#include "runtime/gateway.hpp"
#include "workload/generators.hpp"

namespace {

using namespace fifer;
using Clock = std::chrono::steady_clock;

constexpr double kServeTimeScale = 1000.0;
constexpr std::size_t kServeConnections = 4;
constexpr std::size_t kServeWindow = 8;
constexpr std::uint64_t kServeRequests = 20000;
constexpr int kServeSessions = 3;
/// Responses whose RTT is discarded at the start of each session (cold
/// connections and the first cold starts).
constexpr std::uint64_t kServeWarmup = 2000;
constexpr double kServeWallBudgetS = 60.0;
/// Simulated span of one timing segment of a simulator experiment.
constexpr SimDuration kSegmentMs = seconds(10.0);

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ------------------------------------------------------------ layer spans

/// Calls into one layer and the wall time spent there during one run.
struct LayerTime {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};

  double ms() const { return static_cast<double>(ns.load()) / 1e6; }
};

/// What the wrapped policy strategies saw during one experiment or serving
/// session. Live-mode calls come from several threads (always under the
/// runtime's state lock), hence the atomics.
struct Probe {
  bool timed = false;
  LayerTime scale;
  LayerTime schedule;
  LayerTime place;
  LayerTime pretrain;
  /// steady_clock ticks when Scaler::install returned; 0 until then.
  std::atomic<Clock::rep> ready_ticks{0};
  /// Simulator only: wall time at which the run first reached each multiple
  /// of kSegmentMs of simulated time. Segments hold identical work in every
  /// repeat of one seed, so run.py can take medians segment by segment.
  bool segmented = false;
  SimTime next_mark_ms = kSegmentMs;
  std::vector<Clock::time_point> marks;

  bool ready() const { return ready_ticks.load() != 0; }
  Clock::time_point ready_at() const {
    return Clock::time_point(Clock::duration(ready_ticks.load()));
  }
  void observe(SimTime now) {
    if (!segmented) return;
    while (now >= next_mark_ms) {
      marks.push_back(Clock::now());
      next_mark_ms += kSegmentMs;
    }
  }
};

/// Times its scope into `layer` when the probe is timed; otherwise free.
class Span {
 public:
  Span(const Probe& probe, LayerTime& layer)
      : layer_(probe.timed ? &layer : nullptr) {
    if (layer_ != nullptr) start_ = Clock::now();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (layer_ == nullptr) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - start_)
                        .count();
    layer_->calls.fetch_add(1, std::memory_order_relaxed);
    layer_->ns.fetch_add(static_cast<std::uint64_t>(ns),
                         std::memory_order_relaxed);
  }

 private:
  LayerTime* layer_;
  Clock::time_point start_{};
};

class TimedScaler final : public Scaler {
 public:
  TimedScaler(std::unique_ptr<Scaler> inner, std::shared_ptr<Probe> probe)
      : inner_(std::move(inner)), probe_(std::move(probe)) {}

  const char* name() const override { return inner_->name(); }
  void install(PolicyContext& ctx) override {
    inner_->install(ctx);
    probe_->ready_ticks.store(Clock::now().time_since_epoch().count());
  }
  void on_start(PolicyContext& ctx) override {
    Span s(*probe_, probe_->pretrain);
    inner_->on_start(ctx);
  }
  void on_arrival(PolicyContext& ctx, StageState& st) override {
    Span s(*probe_, probe_->scale);
    inner_->on_arrival(ctx, st);
  }
  void on_starved(PolicyContext& ctx, StageState& st) override {
    Span s(*probe_, probe_->scale);
    inner_->on_starved(ctx, st);
  }
  bool reaps_idle() const override { return inner_->reaps_idle(); }
  std::uint64_t predictor_retrains() const override {
    return inner_->predictor_retrains();
  }

 private:
  std::unique_ptr<Scaler> inner_;
  std::shared_ptr<Probe> probe_;
};

class TimedScheduler final : public Scheduler {
 public:
  TimedScheduler(std::unique_ptr<Scheduler> inner, std::shared_ptr<Probe> probe)
      : inner_(std::move(inner)), probe_(std::move(probe)) {}

  const char* name() const override { return inner_->name(); }
  SchedulerPolicy policy() const override { return inner_->policy(); }
  double priority_key(const PolicyContext& ctx, const Job& job,
                      std::size_t stage_index) const override {
    probe_->observe(ctx.now());
    Span s(*probe_, probe_->schedule);
    return inner_->priority_key(ctx, job, stage_index);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
  std::shared_ptr<Probe> probe_;
};

class TimedPlacer final : public Placer {
 public:
  TimedPlacer(std::unique_ptr<Placer> inner, std::shared_ptr<Probe> probe)
      : inner_(std::move(inner)), probe_(std::move(probe)) {}

  const char* name() const override { return inner_->name(); }
  NodeSelection node_selection() const override {
    return inner_->node_selection();
  }
  Container* select_container(StageState& st) const override {
    Span s(*probe_, probe_->place);
    return inner_->select_container(st);
  }

 private:
  std::unique_ptr<Placer> inner_;
  std::shared_ptr<Probe> probe_;
};

/// The preset's own strategies, each wrapped to report into `probe`.
std::function<PolicyEngine(ExperimentParams&)> instrumented(
    std::shared_ptr<Probe> probe) {
  return [probe](ExperimentParams& params) {
    PolicyEngine e = params.rm.assemble(params);
    e.scaler = std::make_unique<TimedScaler>(std::move(e.scaler), probe);
    e.scheduler = std::make_unique<TimedScheduler>(std::move(e.scheduler), probe);
    e.placer = std::make_unique<TimedPlacer>(std::move(e.placer), probe);
    return e;
  };
}

// ---------------------------------------------------------------- checks

struct Checks {
  bool ok = true;

  void expect(bool cond, const std::string& what) {
    if (cond) return;
    ok = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
};

std::string str(std::uint64_t v) { return std::to_string(v); }

// ------------------------------------------------------------ sim phase

/// The §5.2 full-scale configuration (the regime bench_scale documents).
ExperimentParams section52_params(const std::string& rm, std::uint64_t seed) {
  ExperimentParams p;
  p.rm = RmConfig::by_name(rm);
  p.rm.idle_timeout_ms = seconds(120.0);
  p.mix = WorkloadMix::heavy();
  Rng trace_rng(seed ^ 0xB22);
  WikiParams w;
  w.duration_s = 300.0;
  w.average_rps = 1500.0;
  w.day_period_s = 120.0;
  p.trace = wiki_trace(w, trace_rng);
  p.trace_name = "wiki-full";
  p.cluster.node_count = 157;
  p.cluster.cores_per_node = 16.0;
  p.bus.capacity = 65536;
  p.seed = seed;
  p.warmup_ms = seconds(100.0);
  p.train.epochs = 30;
  p.input_scale_jitter = 0.15;
  return p;
}

struct SimRun {
  double setup_s = 0.0;  ///< run_experiment entry -> Scaler::install return.
  double loop_s = 0.0;   ///< Scaler::install return -> result returned.
  std::vector<double> segments_s;  ///< loop_s split at the probe's marks.
  ExperimentResult result;
  std::shared_ptr<Probe> probe;
};

SimRun run_sim(const ExperimentParams& base, bool timed) {
  SimRun out;
  out.probe = std::make_shared<Probe>();
  out.probe->timed = timed;
  out.probe->segmented = true;
  ExperimentParams p = base;
  p.policy_factory = instrumented(out.probe);
  const auto t0 = Clock::now();
  out.result = run_experiment(std::move(p));
  const auto t1 = Clock::now();
  const auto ready = out.probe->ready() ? out.probe->ready_at() : t0;
  out.setup_s = seconds_between(t0, ready);
  out.loop_s = seconds_between(ready, t1);
  auto from = ready;
  for (const auto mark : out.probe->marks) {
    out.segments_s.push_back(seconds_between(from, mark));
    from = mark;
  }
  out.segments_s.push_back(seconds_between(from, t1));
  return out;
}

void check_sim(const SimRun& run, std::uint64_t planned, Checks& checks) {
  const ExperimentResult& r = run.result;
  checks.expect(run.probe->ready(), "sim: the scaler was never installed");
  checks.expect(r.jobs_submitted == planned,
                "sim: " + str(r.jobs_submitted) + " requests submitted, " +
                    str(planned) + " planned after warm-up");
  checks.expect(r.jobs_completed == r.jobs_submitted,
                "sim: " + str(r.jobs_completed) + " of " +
                    str(r.jobs_submitted) + " requests completed");
  checks.expect(r.response_ms.count() == r.jobs_completed,
                "sim: latency samples do not match completed requests");
  checks.expect(r.slo_violations <= r.jobs_completed,
                "sim: more SLO violations than requests");
  checks.expect(r.sim_events > r.jobs_completed, "sim: too few events");
  checks.expect(r.containers_spawned > 0, "sim: no container was spawned");
  checks.expect(r.response_ms.median() > 0.0, "sim: zero response latency");
}

// ---------------------------------------------------------- serve phase

struct ServeRun {
  double setup_s = 0.0;  ///< serve_live entry -> Scaler::install return.
  double load_s = 0.0;   ///< Load generator wall time.
  net::LoadGenReport client;
  net::ServeRunReport server;
  std::shared_ptr<Probe> probe;
  bool started = false;
};

ServeRun run_serve(const ExperimentParams& base,
                   const std::vector<Arrival>& plan, bool timed) {
  ServeRun out;
  out.probe = std::make_shared<Probe>();
  out.probe->timed = timed;
  ExperimentParams p = base;
  p.policy_factory = instrumented(out.probe);

  LiveOptions lo;
  lo.time_scale = kServeTimeScale;
  lo.max_wall_seconds = kServeWallBudgetS;

  net::ServeOptions so;
  so.expected_clients = kServeConnections;
  so.reference_plan = plan;
  std::atomic<std::uint16_t> port{0};
  std::atomic<bool> finished{false};
  so.on_listening = [&port](std::uint16_t bound) { port.store(bound); };

  const auto t0 = Clock::now();
  std::thread serving([&] {
    out.server = net::serve_live(p, lo, so);
    finished.store(true);
  });
  // Load starts once the runtime is up, so start-up never shows as RTT.
  while (!out.probe->ready() && !finished.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  out.started = out.probe->ready() && port.load() != 0;
  if (out.started) {
    out.setup_s = seconds_between(t0, out.probe->ready_at());
    net::LoadGenOptions lg;
    lg.port = port.load();
    lg.connections = kServeConnections;
    lg.closed_loop = true;
    lg.closed_requests = plan.size();
    lg.closed_window = kServeWindow;
    lg.time_scale = kServeTimeScale;
    lg.timeout_seconds = kServeWallBudgetS;
    lg.warmup_requests = kServeWarmup;
    const auto t1 = Clock::now();
    out.client = net::run_loadgen(plan, base.applications, lg);
    out.load_s = seconds_between(t1, Clock::now());
  }
  serving.join();
  return out;
}

void check_serve(const ServeRun& run, std::uint64_t requests, Checks& checks) {
  const net::LoadGenReport& c = run.client;
  const net::ServeRunReport& s = run.server;
  checks.expect(run.started, "serve: the runtime never started listening");
  checks.expect(c.completed && c.errors == 0,
                "serve: the load generator did not finish cleanly");
  checks.expect(c.sent == requests && c.received == requests &&
                    c.ok == requests,
                "serve: " + str(c.ok) + " of " + str(requests) +
                    " requests answered OK");
  checks.expect(s.live.drained, "serve: the runtime did not drain");
  checks.expect(s.admitted == requests && s.responded == requests,
                "serve: admitted/responded " + str(s.admitted) + "/" +
                    str(s.responded) + " of " + str(requests));
  checks.expect(s.plan_mismatches == 0,
                "serve: requests differed from the plan");
  checks.expect(s.live.result.jobs_completed == requests,
                "serve: the runtime completed " +
                    str(s.live.result.jobs_completed) + " requests");
  checks.expect(c.rtt_samples + kServeWarmup == requests && c.rtt_p50_ms > 0.0,
                "serve: missing RTT samples");
}

// --------------------------------------------------------------- output

std::string field(const char* key, double value) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "\"%s\": %.17g", key, value);
  return buf;
}

std::string object(const std::vector<std::string>& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += fields[i];
  }
  return out + "}";
}

void add_layers(const Probe& p, std::vector<std::string>* fields) {
  fields->push_back(field("scale_ms", p.scale.ms()));
  fields->push_back(field("schedule_ms", p.schedule.ms()));
  fields->push_back(field("place_ms", p.place.ms()));
  fields->push_back(field("place_calls", static_cast<double>(p.place.calls)));
  fields->push_back(field("pretrain_ms", p.pretrain.ms()));
}

std::string sim_json(const SimRun& s) {
  const ExperimentResult& r = s.result;
  std::vector<std::string> f = {
      field("setup_s", s.setup_s),
      field("loop_s", s.loop_s),
      field("requests", static_cast<double>(r.jobs_completed)),
      field("events", static_cast<double>(r.sim_events)),
      field("spawns", static_cast<double>(r.containers_spawned)),
      field("slo_violations", static_cast<double>(r.slo_violations)),
      field("response_p99_ms", r.response_ms.p99()),
  };
  std::string segments = "\"segments_s\": [";
  for (std::size_t i = 0; i < s.segments_s.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i > 0 ? ", " : "",
                  s.segments_s[i]);
    segments += buf;
  }
  f.push_back(segments + "]");
  add_layers(*s.probe, &f);
  return object(f);
}

std::string serve_json(const ServeRun& s) {
  std::vector<std::string> f = {
      field("setup_s", s.setup_s),
      field("load_s", s.load_s),
      field("requests", static_cast<double>(s.client.received)),
      field("rtt_p50_ms", s.client.rtt_p50_ms),
      field("rtt_p99_ms", s.client.rtt_p99_ms),
      field("rtt_p999_ms", s.client.rtt_p999_ms),
      field("server_rtt_p50_ms", s.server.rtt_p50_ms),
      field("timer_events", static_cast<double>(s.server.live.timer_events)),
      field("peak_threads",
            static_cast<double>(s.server.live.peak_worker_threads)),
      field("spawns",
            static_cast<double>(s.server.live.result.containers_spawned)),
  };
  add_layers(*s.probe, &f);
  return object(f);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args* a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--trace") {
      a->trace = val == "1";
    } else {
      return false;
    }
  }
  return a->workload == "bline" || a->workload == "fifer";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload bline|fifer --seed N "
                 "--trace 0|1\n");
    return 2;
  }
  Checks checks;

  // Inputs, all derived from the seed.
  const ExperimentParams sim_params = section52_params(args.workload, args.seed);
  std::uint64_t planned = 0;
  for (const Arrival& a : materialize_arrival_plan(sim_params)) {
    if (a.time >= sim_params.warmup_ms) ++planned;
  }
  ExperimentParams serve_params = sim_params;
  serve_params.warmup_ms = 0.0;
  std::vector<Arrival> serve_plan = materialize_arrival_plan(serve_params);
  serve_plan.resize(std::min<std::size_t>(serve_plan.size(), kServeRequests));

  const SimRun sim = run_sim(sim_params, args.trace);
  check_sim(sim, planned, checks);
  std::vector<ServeRun> serves;
  for (int i = 0; i < kServeSessions; ++i) {
    serves.push_back(run_serve(serve_params, serve_plan, args.trace));
    check_serve(serves.back(), serve_plan.size(), checks);
  }

  std::uint64_t attempted = sim.result.jobs_submitted;
  std::uint64_t failed = sim.result.jobs_submitted -
                         std::min(sim.result.jobs_completed,
                                  sim.result.jobs_submitted);
  std::string serve_list;
  for (const ServeRun& s : serves) {
    attempted += serve_plan.size();
    failed += serve_plan.size() -
              std::min<std::uint64_t>(s.client.ok, serve_plan.size());
    serve_list += (serve_list.empty() ? "" : ", ") + serve_json(s);
  }

  std::fprintf(stderr, "perfbench: %s seed %llu\n", args.workload.c_str(),
               static_cast<unsigned long long>(args.seed));
  std::fprintf(stderr, "  sim   setup %.3f s  loop %.3f s  %llu requests\n",
               sim.setup_s, sim.loop_s,
               static_cast<unsigned long long>(sim.result.jobs_completed));
  for (const ServeRun& s : serves) {
    std::fprintf(stderr,
                 "  serve setup %.3f s  load %.3f s  rtt p50 %.3f p99 %.3f ms\n",
                 s.setup_s, s.load_s, s.client.rtt_p50_ms, s.client.rtt_p99_ms);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"sim\": %s, \"serve\": [%s]}\n",
              checks.ok ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), sim_json(sim).c_str(),
              serve_list.c_str());
  return 0;
}
