// fifer_cli — the kitchen-sink runner: every experiment knob on the command
// line, optional JSON/CSV report output, optional trace file I/O, and a live
// execution mode. The programmatic equivalent of the paper's evaluation
// harness.
//
// Usage examples:
//   fifer_cli policy=fifer mix=heavy trace=wits duration_s=900
//   fifer_cli policy=rscale trace=file trace_file=wits.txt report=out/run1
//   fifer_cli policy=fifer trace=wiki save_trace=wiki.txt nodes=16
//   fifer_cli policy=bline trace=poisson lambda=50 jitter=0.2 seed=7
//   fifer_cli policy=all --jobs 4          # parallel 6-policy comparison
//   fifer_cli policy=bline,fifer --jobs 1  # forced-sequential sweep
//   fifer_cli policy=fifer --trace=out/run # request-level tracing: writes
//                                          # out/run.trace.json (Chrome),
//                                          # out/run.spans.csv, .decisions.csv
//   fifer_cli policy=fifer --live trace=poisson duration_s=120
//                                          # live mode at the default 100x
//   fifer_cli policy=fifer --live=50       # live mode, 50x compression
//   fifer_cli policy=fifer --serve=7411 trace=poisson duration_s=60 warmup_s=10
//                                          # TCP serving mode: live runtime
//                                          # fed by network requests
//   fifer_cli --loadgen=127.0.0.1:7411 trace=poisson duration_s=60 seed=1
//                                          # built-in load generator (same
//                                          # seed => same request sequence)
//
// Keys (defaults in brackets):
//   policy [fifer]        bline|sbatch|rscale|bpred|fifer|hpa — or a
//                         comma-separated list, or all|paper, which runs a
//                         policy sweep and prints the comparison table
//   --jobs N / jobs=N [hardware concurrency]
//                         sweep worker threads; 1 forces the sequential
//                         path (results are identical either way)
//   --trace PREFIX / trace_out=PREFIX []
//                         per-request tracing: exports PREFIX.trace.json
//                         (chrome://tracing / Perfetto), PREFIX.spans.csv,
//                         PREFIX.decisions.csv; single-policy runs add
//                         PREFIX.profile.csv. (Not to be confused with
//                         trace=, the arrival-trace kind.)
//   --live[=SCALE] / live=SCALE []
//                         execute on the live wall-clock runtime instead
//                         of the simulator, compressing time by SCALE
//                         (default 100: 1 wall s = 100 trace s). Multi-
//                         policy lists run live sequentially. See
//                         EXPERIMENTS.md "Live mode".
//   max_wall_s [none]     hard wall-clock budget for a live run; without
//                         one a replay stops at the simulated hard
//                         deadline, trace end + 10 min (serving mode:
//                         total wall budget, default 60 s)
//   serve_clients [1]     serving mode: clients to wait for before drain,
//                         each ending with its FIN or lost without one
//                         (a lost client makes the run exit 1)
//   serve_check [true]    serving mode: verify admitted requests against the
//                         seed's arrival plan (plan-mismatch counter)
//   conns [4]             load generator: concurrent connections
//   closed [false]        load generator: closed loop (windowed) instead of
//                         open-loop plan replay
//   closed_requests [1000]  window [1]   closed-loop total and per-conn window
//   timeout_s [60]        load generator: wall budget
//   lg_warmup [0]         load generator: discard RTT samples from the first
//                         N responses before computing percentiles
//   mix [heavy]           heavy|medium|light
//   trace [wits]          poisson|drift|wits|wiki|step|file
//   trace_file            input path when trace=file
//   save_trace            write the generated trace to this path
//   duration_s [600]  lambda [20]  seed [1]  warmup_s [100]
//   nodes [5]  cores [16]  idle_timeout_s [120]  jitter [0.15]
//   slack [prop]          prop|ed        scheduler [lsf]  lsf|fifo
//   placement [pack]      pack|spread    predictor []     override model
//   batch_cap [64]  epochs [30]  retrain_s [0]  report []  verbose [false]
//
// Unknown or malformed flags fail fast: usage on stderr, exit status 2.

#include <algorithm>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/logging.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/report.hpp"
#include "core/sweep.hpp"
#include "net/loadgen.hpp"
#include "net/serve_session.hpp"
#include "runtime/gateway.hpp"
#include "core/framework.hpp"
#include "workload/analysis.hpp"
#include "workload/generators.hpp"

namespace {

/// The conventional long flags this CLI accepts alongside key=value tokens.
/// `--trace` maps to `trace_out` because bare `trace=` already names the
/// arrival-trace kind; `--live` carries an implicit 100x compression and
/// `--serve` an implicit port 0 (kernel-assigned). The same table renders
/// the flag section of usage() via fifer::usage_text, so a new flag can
/// never be accepted but missing from --help.
const std::vector<fifer::CliFlag>& cli_flags() {
  static const std::vector<fifer::CliFlag> flags = {
      {"--jobs", "jobs", true, "", "N",
       "sweep worker threads (multi-policy simulation)"},
      {"--trace", "trace_out", true, "", "PREFIX",
       "export request-level trace files under PREFIX"},
      {"--live", "live", false, "100", "SCALE",
       "run on the live wall-clock runtime, SCALE-fold\n"
       "time compression (default 100)"},
      {"--serve", "serve", false, "0", "PORT",
       "serve requests over TCP on PORT (default 0:\n"
       "kernel-assigned, printed on stdout); implies the\n"
       "live runtime. Drains after serve_clients FINs"},
      {"--loadgen", "loadgen", true, "", "HOST:PORT",
       "run the built-in load generator against a serving\n"
       "fifer_cli (open-loop plan replay; closed=true for\n"
       "closed loop) instead of running an experiment"},
      {"--help", "help", false, "true", "",
       "show this message"},
  };
  return flags;
}

std::string usage() {
  return
      "usage: fifer_cli [key=value ...] [flags]\n"
      "  policy=bline|sbatch|rscale|bpred|fifer|hpa|all|paper|<list>\n"
      "  mix=heavy|medium|light   trace=poisson|drift|wits|wiki|step|file\n"
      "  duration_s=600 lambda=20 seed=1 warmup_s=100 nodes=5 cores=16\n"
      "  idle_timeout_s=120 jitter=0.15 batch_cap=64 epochs=30 report=PREFIX\n" +
      fifer::usage_text(cli_flags()) +
      "see the header comment of examples/fifer_cli.cpp for the full key list\n";
}

fifer::RateTrace build_trace(const fifer::Config& cfg, double duration_s,
                             double lambda, fifer::Rng& rng) {
  const std::string kind = cfg.get_string("trace", "wits");
  if (kind == "poisson") return fifer::poisson_trace(duration_s, lambda);
  if (kind == "drift") {
    return fifer::modulated_poisson_trace(duration_s, lambda,
                                          cfg.get_double("drift", 0.5), rng);
  }
  if (kind == "wits") {
    fifer::WitsParams p;
    p.duration_s = duration_s;
    p.base_rps = lambda * 0.9;
    p.spike_peak_rps = lambda * 5.0;
    p.walk_sigma = lambda * 0.07;
    p.noise_sigma = lambda * 0.05;
    return fifer::wits_trace(p, rng);
  }
  if (kind == "wiki") {
    fifer::WikiParams p;
    p.duration_s = duration_s;
    p.average_rps = lambda;
    p.day_period_s = std::max(120.0, duration_s / 3.0);
    return fifer::wiki_trace(p, rng);
  }
  if (kind == "step") {
    return fifer::step_trace(duration_s, lambda, cfg.get_double("step_to", lambda * 3),
                             cfg.get_double("step_at_s", duration_s / 2));
  }
  if (kind == "file") {
    return fifer::RateTrace::from_file(cfg.get_string("trace_file", "trace.txt"));
  }
  throw fifer::CliError("unknown trace kind: " + kind);
}

/// Splits the `policy` value into preset names: a comma-separated list, or
/// the shorthands "paper" (the five paper RMs) and "all" (those plus hpa).
std::vector<std::string> policy_list(const std::string& value) {
  if (value == "paper") return {"bline", "sbatch", "rscale", "bpred", "fifer"};
  if (value == "all") return {"bline", "sbatch", "rscale", "bpred", "fifer", "hpa"};
  std::vector<std::string> names;
  std::istringstream in(value);
  std::string name;
  while (std::getline(in, name, ',')) {
    if (!name.empty()) names.push_back(name);
  }
  return names;
}

void print_result_table(const fifer::ExperimentResult& r, std::ostream& out) {
  fifer::Table t("results");
  t.set_columns({"metric", "value"});
  t.add_row({"jobs completed", std::to_string(r.jobs_completed)});
  t.add_row({"SLO compliance %", fifer::fmt(100.0 - r.slo_violation_pct(), 2)});
  t.add_row({"median latency ms", fifer::fmt(r.response_ms.median(), 1)});
  t.add_row({"P95 latency ms", fifer::fmt(r.response_ms.p95(), 1)});
  t.add_row({"P99 latency ms", fifer::fmt(r.response_ms.p99(), 1)});
  t.add_row({"median queuing ms", fifer::fmt(r.queuing_ms.median(), 1)});
  t.add_row({"P99 cold wait ms", fifer::fmt(r.cold_wait_ms.p99(), 1)});
  t.add_row({"containers spawned", std::to_string(r.containers_spawned)});
  t.add_row({"avg active containers", fifer::fmt(r.avg_active_containers, 1)});
  t.add_row({"requests/container", fifer::fmt(r.mean_rpc(), 1)});
  t.add_row({"energy kJ", fifer::fmt(r.energy_joules / 1000.0, 1)});
  t.add_row({"avg power W", fifer::fmt(r.avg_power_watts(), 0)});
  t.add_row({"bus transitions", std::to_string(r.bus_transitions)});
  t.add_row({"predictor retrains", std::to_string(r.predictor_retrains)});
  t.print(out);
}

/// True when `r` measured something: a job completed past the warm-up. A
/// run that measured nothing has no SLO rate (the table prints n/a); the
/// CLI says so on stderr and exits non-zero.
bool measured(const fifer::ExperimentResult& r) {
  if (r.jobs_completed > 0) return true;
  std::cerr << "error: " << r.policy
            << " completed no job past the warm-up; nothing was measured\n";
  return false;
}

bool all_measured(const std::vector<fifer::ExperimentResult>& results) {
  bool ok = true;
  for (const auto& r : results) ok = measured(r) && ok;
  return ok;
}

/// "p50 / p99 / max" of a live-run lag, or "n/a" when nothing was sampled.
std::string lag_cell(const fifer::LagSummary& lag) {
  if (lag.samples == 0) return "n/a";
  return fifer::fmt(lag.p50_ms, 1) + " / " + fifer::fmt(lag.p99_ms, 1) + " / " +
         fifer::fmt(lag.max_ms, 1);
}

int run_cli(int argc, char** argv) {
  const std::vector<std::string> args =
      fifer::canonicalize_flags(argc, argv, cli_flags());
  std::vector<const char*> argv2{argv[0]};
  for (const auto& a : args) argv2.push_back(a.c_str());
  const fifer::Config cfg =
      fifer::Config::from_args(static_cast<int>(argv2.size()), argv2.data());

  if (cfg.get_bool("help", false)) {
    std::cout << usage();
    return 0;
  }
  if (cfg.get_bool("verbose", false)) {
    fifer::Logging::set_level(fifer::LogLevel::kInfo);
  }

  const double duration_s = cfg.get_double("duration_s", 600.0);
  const double lambda = cfg.get_double("lambda", 20.0);
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  const std::vector<std::string> policies =
      policy_list(cfg.get_string("policy", "fifer"));
  if (policies.empty()) throw fifer::CliError("policy list is empty");
  const std::int64_t jobs_arg =
      cfg.get_int("jobs", static_cast<std::int64_t>(fifer::default_jobs()));
  const std::size_t jobs = jobs_arg < 1 ? 1 : static_cast<std::size_t>(jobs_arg);
  const bool live = cfg.has("live");
  const double live_scale = cfg.get_double("live", 100.0);
  if (live && live_scale <= 0.0) {
    throw fifer::CliError("--live scale must be positive");
  }

  fifer::ExperimentParams p;
  p.rm = fifer::RmConfig::by_name(policies.front());
  p.mix = fifer::WorkloadMix::by_name(cfg.get_string("mix", "heavy"));
  p.seed = seed;
  p.warmup_ms = fifer::seconds(cfg.get_double("warmup_s", 100.0));
  p.input_scale_jitter = cfg.get_double("jitter", 0.15);
  p.train.epochs = static_cast<std::size_t>(cfg.get_int("epochs", 30));

  // Cluster.
  p.cluster.node_count = static_cast<std::uint32_t>(cfg.get_int("nodes", 5));
  p.cluster.cores_per_node = cfg.get_double("cores", 16.0);

  // Policy knob overrides (applied to every policy in a sweep).
  const auto apply_rm_overrides = [&cfg](fifer::RmConfig& rm) {
    rm.idle_timeout_ms = fifer::seconds(cfg.get_double("idle_timeout_s", 120.0));
    rm.batch_cap = static_cast<int>(cfg.get_int("batch_cap", rm.batch_cap));
    rm.retrain_interval_ms = fifer::seconds(cfg.get_double("retrain_s", 0.0));
    if (cfg.has("slack")) {
      rm.slack_policy = cfg.get_string("slack", "prop") == "ed"
                            ? fifer::SlackPolicy::kEqualDivision
                            : fifer::SlackPolicy::kProportional;
    }
    if (cfg.has("scheduler")) {
      rm.scheduler = cfg.get_string("scheduler", "lsf") == "fifo"
                         ? fifer::SchedulerPolicy::kFifo
                         : fifer::SchedulerPolicy::kLeastSlackFirst;
    }
    if (cfg.has("placement")) {
      rm.node_selection = cfg.get_string("placement", "pack") == "spread"
                              ? fifer::NodeSelection::kSpread
                              : fifer::NodeSelection::kBinPack;
    }
    if (cfg.has("predictor")) rm.predictor = cfg.get_string("predictor", "");
  };
  apply_rm_overrides(p.rm);

  // Trace.
  fifer::Rng trace_rng(seed ^ 0xC11);
  p.trace = build_trace(cfg, duration_s, lambda, trace_rng);
  p.trace_name = cfg.get_string("trace", "wits");
  if (cfg.has("save_trace")) {
    p.trace.to_file(cfg.get_string("save_trace", "trace.txt"));
  }

  // Request-level tracing (--trace PREFIX); sweeps suffix the per-run label.
  p.trace_prefix = cfg.get_string("trace_out", "");

  const std::string report_prefix = cfg.get_string("report", "");

  fifer::LiveOptions live_opts;
  live_opts.time_scale = live_scale;
  live_opts.max_wall_seconds = cfg.get_double("max_wall_s", 0.0);

  // Network modes (--serve / --loadgen): read every knob up front so the
  // unused-keys check below still catches typos.
  const bool serve_mode = cfg.has("serve");
  const std::int64_t serve_port = cfg.get_int("serve", 0);
  const auto serve_clients =
      static_cast<std::size_t>(cfg.get_int("serve_clients", 1));
  const bool serve_check = cfg.get_bool("serve_check", true);
  const std::string loadgen_target = cfg.get_string("loadgen", "");
  fifer::net::LoadGenOptions lg_opts;
  lg_opts.connections = static_cast<std::size_t>(cfg.get_int("conns", 4));
  lg_opts.closed_loop = cfg.get_bool("closed", false);
  lg_opts.closed_requests =
      static_cast<std::uint64_t>(cfg.get_int("closed_requests", 1000));
  lg_opts.closed_window = static_cast<std::size_t>(cfg.get_int("window", 1));
  lg_opts.timeout_seconds = cfg.get_double("timeout_s", 60.0);
  lg_opts.warmup_requests =
      static_cast<std::uint64_t>(cfg.get_int("lg_warmup", 0));
  lg_opts.time_scale = live_scale;
  if (serve_mode && (serve_port < 0 || serve_port > 65535)) {
    throw fifer::CliError("--serve port must be 0..65535");
  }
  if (serve_mode && !loadgen_target.empty()) {
    throw fifer::CliError("--serve and --loadgen are mutually exclusive");
  }
  if ((serve_mode || !loadgen_target.empty()) && policies.size() > 1) {
    throw fifer::CliError("--serve/--loadgen run a single policy");
  }
  if (!loadgen_target.empty()) {
    const std::size_t colon = loadgen_target.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= loadgen_target.size()) {
      throw fifer::CliError("--loadgen expects HOST:PORT");
    }
    lg_opts.host = loadgen_target.substr(0, colon);
    try {
      const int port = std::stoi(loadgen_target.substr(colon + 1));
      if (port < 1 || port > 65535) throw std::out_of_range("port");
      lg_opts.port = static_cast<std::uint16_t>(port);
    } catch (const std::exception&) {
      throw fifer::CliError("--loadgen port must be 1..65535");
    }
  }

  // Reject typos before burning cycles.
  if (const auto unused = cfg.unused_keys(); !unused.empty()) {
    std::string message = "unknown option(s):";
    for (const auto& k : unused) message += ' ' + k;
    throw fifer::CliError(message);
  }

  // Load-generator mode: the experiment knobs only materialize the arrival
  // plan (same seed + trace => same request sequence as the serving twin).
  if (!loadgen_target.empty()) {
    std::cout << "loadgen: firing " << (lg_opts.closed_loop ? "closed" : "open")
              << "-loop at " << lg_opts.host << ":" << lg_opts.port << " over "
              << lg_opts.connections << " connection(s)...\n";
    const fifer::net::LoadGenReport r = fifer::net::run_loadgen(p, lg_opts);
    fifer::Table t("load generator");
    t.set_columns({"metric", "value"});
    t.add_row({"completed", r.completed ? "yes" : "NO"});
    t.add_row({"requests sent", std::to_string(r.sent)});
    t.add_row({"responses received", std::to_string(r.received)});
    t.add_row({"ok", std::to_string(r.ok)});
    t.add_row({"rejected", std::to_string(r.rejected)});
    t.add_row({"server SLO violations", std::to_string(r.server_slo_violations)});
    t.add_row({"errors", std::to_string(r.errors)});
    t.add_row({"wall time s", fifer::fmt(r.wall_seconds, 2)});
    t.add_row({"achieved req/s", fifer::fmt(r.achieved_rps, 1)});
    t.add_row({"RTT p50 ms", fifer::fmt(r.rtt_p50_ms, 2)});
    t.add_row({"RTT p95 ms", fifer::fmt(r.rtt_p95_ms, 2)});
    t.add_row({"RTT p99 ms", fifer::fmt(r.rtt_p99_ms, 2)});
    t.add_row({"RTT p99.9 ms", fifer::fmt(r.rtt_p999_ms, 2)});
    t.add_row({"RTT samples (post-warmup)", std::to_string(r.rtt_samples)});
    if (!lg_opts.closed_loop) {
      t.add_row({"send lateness p99 ms", fifer::fmt(r.send_lateness_p99_ms, 2)});
      t.add_row({"send lateness max ms", fifer::fmt(r.send_lateness_max_ms, 2)});
    }
    t.print(std::cout);
    return r.completed ? 0 : 1;
  }

  const auto trace_profile = fifer::profile_trace(p.trace);
  std::cout << "trace: avg " << fifer::fmt(trace_profile.mean_rps, 1) << " req/s, peak "
            << fifer::fmt(trace_profile.peak_rps, 1) << " (peak/median "
            << fifer::fmt(trace_profile.peak_to_median, 1) << "x, dispersion "
            << fifer::fmt(trace_profile.index_of_dispersion, 1) << ")\n";

  // Serving mode: live runtime fed by the TCP front door instead of the
  // trace replay pump.
  if (serve_mode) {
    fifer::net::ServeOptions so;
    so.server.port = static_cast<std::uint16_t>(serve_port);
    so.expected_clients = serve_clients;
    if (serve_check) so.reference_plan = fifer::materialize_arrival_plan(p);
    so.on_listening = [](std::uint16_t port) {
      // Parsed by tools/ci.sh and scripted clients; keep the format stable.
      std::cout << "serving on port " << port << std::endl;
    };
    std::cout << "running " << p.rm.name << " / " << p.mix.name()
              << " as a TCP server (" << fifer::fmt(live_scale, 0)
              << "x compression, waiting for " << serve_clients
              << " client FIN(s))...\n";
    const fifer::net::ServeRunReport report =
        fifer::net::serve_live(p, live_opts, std::move(so));
    if (report.listen_failed) {
      std::cerr << "error: listen failed: "
                << std::strerror(report.listen_errno) << "\n";
      return 3;  // Distinct status so wrappers can retry another port.
    }
    print_result_table(report.live.result, std::cout);

    fifer::Table nt("serving");
    nt.set_columns({"metric", "value"});
    nt.add_row({"drained cleanly",
                report.live.drained ? "yes" : "NO (wall budget hit)"});
    nt.add_row({"port", std::to_string(report.port)});
    nt.add_row({"connections accepted", std::to_string(report.net.accepted)});
    nt.add_row({"connections lost (no FIN)",
                std::to_string(report.lost_connections)});
    nt.add_row({"requests admitted", std::to_string(report.admitted)});
    nt.add_row({"responses sent", std::to_string(report.responded)});
    nt.add_row({"rejected (draining)", std::to_string(report.rejected_draining)});
    nt.add_row({"rejected (unknown app)",
                std::to_string(report.rejected_unknown_app)});
    nt.add_row({"rejected (bad version)",
                std::to_string(report.rejected_bad_version)});
    nt.add_row({"plan mismatches", std::to_string(report.plan_mismatches)});
    // n/a when no request was answered: there is no attainment to report.
    nt.add_row({"SLO attainment %", fifer::fmt(report.slo_attainment_pct, 2)});
    nt.add_row({"server RTT p50 ms", fifer::fmt(report.rtt_p50_ms, 2)});
    nt.add_row({"server RTT p95 ms", fifer::fmt(report.rtt_p95_ms, 2)});
    nt.add_row({"server RTT p99 ms", fifer::fmt(report.rtt_p99_ms, 2)});
    nt.add_row({"protocol errors", std::to_string(report.net.protocol_errors)});
    nt.add_row({"slow-consumer drops",
                std::to_string(report.net.slow_consumer_drops)});
    std::cout << "\n";
    nt.print(std::cout);

    if (!report_prefix.empty()) {
      const auto paths = fifer::write_report(report.live.result, report_prefix);
      std::cout << "\nreport written:";
      for (const auto& path : paths) std::cout << "\n  " << path;
      std::cout << "\n";
    }
    if (report.lost_connections > 0) {
      std::cerr << "error: " << report.lost_connections
                << " client(s) disconnected without a FIN\n";
      return 1;
    }
    return measured(report.live.result) && report.live.drained ? 0 : 1;
  }

  // Live multi-policy mode: the live runtime owns the machine's threads, so
  // policies run back-to-back rather than through the parallel sweep; the
  // comparison table is the same.
  if (live && policies.size() > 1) {
    std::cout << "running " << policies.size() << " policies live ("
              << fifer::fmt(live_scale, 0) << "x compression) / " << p.mix.name()
              << " on " << fifer::fmt(p.cluster.total_cores(), 0) << " cores for "
              << fifer::fmt(duration_s, 0) << " trace s...\n\n";
    std::vector<fifer::ExperimentResult> results;
    for (const auto& name : policies) {
      fifer::ExperimentParams run = p;
      run.rm = fifer::RmConfig::by_name(name);
      apply_rm_overrides(run.rm);
      if (!p.trace_prefix.empty()) run.trace_prefix = p.trace_prefix + "." + name;
      std::cerr << "  running " << run.rm.name << " live ...\n";
      results.push_back(fifer::run_live(std::move(run), live_opts).result);
    }
    const std::string title = "live policy comparison — " + p.mix.name() +
                              " mix on " + p.trace_name;
    fifer::PolicySweep::comparison_table(results, title).print(std::cout);
    return all_measured(results) ? 0 : 1;
  }

  // Multi-policy simulation: fan the comparison out over the parallel sweep
  // and print the standard table. Results are byte-identical for any jobs
  // value.
  if (policies.size() > 1) {
    std::cout << "running " << policies.size() << " policies / " << p.mix.name()
              << " on " << fifer::fmt(p.cluster.total_cores(), 0) << " cores for "
              << fifer::fmt(duration_s, 0) << " s (" << jobs << " worker"
              << (jobs == 1 ? "" : "s") << ")...\n\n";
    const std::string title =
        "policy comparison — " + p.mix.name() + " mix on " + p.trace_name;
    fifer::PolicySweep sweep(std::move(p));
    for (const auto& name : policies) {
      fifer::RmConfig rm = fifer::RmConfig::by_name(name);
      apply_rm_overrides(rm);
      sweep.add(std::move(rm));
    }
    const auto results = sweep.jobs(jobs).run();
    fifer::PolicySweep::comparison_table(results, title).print(std::cout);
    return all_measured(results) ? 0 : 1;
  }

  const std::string trace_prefix = p.trace_prefix;

  if (live) {
    std::cout << "running " << p.rm.name << " / " << p.mix.name() << " LIVE at "
              << fifer::fmt(live_scale, 0) << "x compression on "
              << fifer::fmt(p.cluster.total_cores(), 0) << " cores for "
              << fifer::fmt(duration_s, 0) << " trace s ("
              << fifer::fmt(duration_s / live_scale, 1) << " wall s + drain)...\n\n";
    const fifer::LiveRunReport report = fifer::run_live(std::move(p), live_opts);
    print_result_table(report.result, std::cout);

    fifer::Table lt("live execution");
    lt.set_columns({"metric", "value"});
    lt.add_row({"drained cleanly", report.drained ? "yes" : "NO (wall budget hit)"});
    lt.add_row({"time compression", fifer::fmt(report.time_scale, 0) + "x"});
    lt.add_row({"trace time replayed s", fifer::fmt(report.sim_duration_ms / 1000.0, 1)});
    lt.add_row({"wall time s", fifer::fmt(report.wall_seconds, 2)});
    lt.add_row({"timer events", std::to_string(report.timer_events)});
    lt.add_row({"timer lag p50/p99/max sim ms", lag_cell(report.timer_lag)});
    lt.add_row({"admission lag p50/p99/max sim ms",
                lag_cell(report.admission_lag)});
    std::cout << "\n";
    lt.print(std::cout);

    if (!report_prefix.empty()) {
      const auto paths = fifer::write_report(report.result, report_prefix);
      std::cout << "\nreport written:";
      for (const auto& path : paths) std::cout << "\n  " << path;
      std::cout << "\n";
    }
    if (!trace_prefix.empty()) {
      std::cout << "\ntrace written:\n  " << trace_prefix << ".trace.json"
                << "  (open in chrome://tracing or ui.perfetto.dev)\n  "
                << trace_prefix << ".spans.csv\n  " << trace_prefix
                << ".decisions.csv\n  " << trace_prefix << ".profile.csv\n";
    }
    return measured(report.result) && report.drained ? 0 : 1;
  }

  std::cout << "running " << p.rm.name << " / " << p.mix.name() << " on "
            << fifer::fmt(p.cluster.total_cores(), 0) << " cores for "
            << fifer::fmt(duration_s, 0) << " s...\n\n";

  const auto r = fifer::run_experiment(std::move(p));
  print_result_table(r, std::cout);

  if (!report_prefix.empty()) {
    const auto paths = fifer::write_report(r, report_prefix);
    std::cout << "\nreport written:";
    for (const auto& path : paths) std::cout << "\n  " << path;
    std::cout << "\n";
  }
  if (!trace_prefix.empty()) {
    std::cout << "\ntrace written:\n  " << trace_prefix << ".trace.json"
              << "  (open in chrome://tracing or ui.perfetto.dev)\n  "
              << trace_prefix << ".spans.csv\n  " << trace_prefix
              << ".decisions.csv\n  " << trace_prefix << ".profile.csv\n";
  }
  return measured(r) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const fifer::CliError& e) {
    std::cerr << "error: " << e.what() << "\n" << usage();
    return 2;
  } catch (const std::invalid_argument& e) {
    // Malformed values (jobs=abc, policy=knative, ...) are bad invocations
    // too — same usage + status 2 contract as unknown flags.
    std::cerr << "error: " << e.what() << "\n" << usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
