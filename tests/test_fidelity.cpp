// Simulator fidelity: the paper validates its event-driven simulator
// against the real cluster (§5.2); with no cluster here, we validate the
// queueing core against closed-form M/M/c theory instead. A single-stage
// application with exponential service times, a fixed warm pool, zero cold
// start, and zero transition overhead *is* an M/M/c queue, so the measured
// mean queueing delay must match the Erlang-C prediction.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/framework.hpp"
#include "core/sweep.hpp"
#include "obs/recording_sink.hpp"
#include "workload/generators.hpp"

namespace fifer {
namespace {

/// Erlang-C probability that an arrival waits, for c servers at offered
/// load a = lambda/mu.
double erlang_c(int c, double a) {
  double term = 1.0;  // a^0/0!
  double sum = term;
  for (int k = 1; k < c; ++k) {
    term *= a / k;
    sum += term;
  }
  const double top = term * a / c * (c / (c - a));
  return top / (sum + top);
}

/// Runs the single-stage M/M/c configuration and returns (mean wait ms,
/// mean service ms, jobs).
ExperimentResult run_mmc(int servers, double lambda_rps, double mean_service_ms,
                         std::uint64_t seed, double duration_s = 3000.0) {
  MicroserviceRegistry services = MicroserviceRegistry::empty();
  MicroserviceSpec spec;
  spec.name = "MM";
  spec.model = "synthetic";
  spec.domain = "test";
  spec.mean_exec_ms = mean_service_ms;
  spec.exec_distribution = ExecDistribution::kExponential;
  spec.memory_mb = 64.0;
  services.add(spec);

  ApplicationRegistry apps = ApplicationRegistry::empty();
  apps.add({"MMApp", {"MM"}, /*slo=*/1e9, /*overhead=*/0.0, {}});

  ExperimentParams p;
  p.rm = RmConfig::sbatch();
  p.rm.batching = false;  // B = 1: one request in service per container
  p.rm.scheduler = SchedulerPolicy::kFifo;
  p.rm.static_containers_per_stage = servers;
  p.services = services;
  p.applications = apps;
  p.mix = WorkloadMix("mm", {{"MMApp", 1.0}});
  p.trace = poisson_trace(duration_s, lambda_rps);
  p.seed = seed;
  p.warmup_ms = seconds(30.0);
  // Instant provisioning: the pool is warm from t ~ 0.
  p.cold_start.runtime_init_ms = 0.0;
  p.cold_start.runtime_init_jitter_ms = 0.0;
  p.cold_start.bandwidth_jitter = 0.0;
  return run_experiment(std::move(p));
}

TEST(QueueingFidelity, MM1MeanWaitMatchesTheory) {
  // lambda = 5/s, mu = 10/s -> rho = 0.5, Wq = rho/(mu - lambda) = 100 ms.
  const auto r = run_mmc(1, 5.0, 100.0, 11);
  ASSERT_GT(r.jobs_completed, 10000u);
  EXPECT_NEAR(r.queuing_ms.mean(), 100.0, 12.0);
  // Service-time population mean is the configured 100 ms.
  EXPECT_NEAR(r.exec_only_ms.mean(), 100.0, 3.0);
}

TEST(QueueingFidelity, MMCMeanWaitMatchesErlangC) {
  // c = 4, lambda = 30/s, mu = 10/s -> a = 3, rho = 0.75.
  const int c = 4;
  const double lambda = 30.0, mu = 10.0;
  const double a = lambda / mu;
  const double wq_ms = erlang_c(c, a) / (c * mu - lambda) * 1000.0;
  const auto r = run_mmc(c, lambda, 100.0, 12);
  ASSERT_GT(r.jobs_completed, 50000u);
  EXPECT_NEAR(r.queuing_ms.mean(), wq_ms, wq_ms * 0.12)
      << "Erlang-C predicts " << wq_ms << " ms";
}

TEST(QueueingFidelity, HeavierLoadWaitsLonger) {
  const auto light = run_mmc(2, 8.0, 100.0, 13, 1500.0);
  const auto heavy = run_mmc(2, 16.0, 100.0, 13, 1500.0);
  EXPECT_GT(heavy.queuing_ms.mean(), 3.0 * light.queuing_ms.mean());
}

TEST(QueueingFidelity, WaitDistributionIsExponentialTailed) {
  // For M/M/1, P(W > t | W > 0) decays at rate mu - lambda: the conditional
  // p90/p50 wait ratio equals ln(10)/ln(2) ~ 3.32.
  const auto r = run_mmc(1, 5.0, 100.0, 14);
  std::vector<double> waits;
  for (const double w : r.queuing_ms.sorted_samples()) {
    if (w > 1e-9) waits.push_back(w);
  }
  ASSERT_GT(waits.size(), 5000u);
  const auto q = [&](double frac) {
    return waits[static_cast<std::size_t>(frac * (waits.size() - 1))];
  };
  EXPECT_NEAR(q(0.9) / q(0.5), std::log(10.0) / std::log(2.0), 0.35);
}

// --------------------------------------------------- golden-digest pinning
//
// The data-plane refactor bar (DESIGN.md §5g): structural rewrites of the
// hot path must not move a single output byte. These tests canonicalize the
// six-preset GridSweep report (and one preset's full trace export) into a
// stable string, hash it with FNV-1a, and compare against digests recorded
// on the pre-refactor tree. Any behavioural drift — a reordered container
// scan, a changed RNG call sequence, a perturbed event ordering — lands in
// some serialized field and fails loudly here.
//
// The digests are exact-double-dependent, so they are pinned per toolchain:
// they were recorded with the repository's CI compiler/stdlib. If a digest
// mismatch is *intended* (a genuine policy/model change), re-pin using the
// "actual" values the failure message prints.

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Exact, locale-independent double rendering (round-trippable %.17g).
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Canonical full serialization of one run's report: every scalar, every
/// latency population summary, every per-stage aggregate, every timeline
/// sample. Field order is fixed; doubles render at full precision.
std::string canonical_result(const ExperimentResult& r) {
  std::ostringstream out;
  out << r.policy << '|' << r.mix << '|' << r.trace << '\n';
  out << r.jobs_submitted << ' ' << r.jobs_completed << ' ' << r.slo_violations
      << ' ' << r.containers_spawned << ' ' << r.bus_transitions << ' '
      << num(r.bus_peak_congestion) << ' ' << r.predictor_retrains << ' '
      << num(r.avg_active_containers) << ' ' << r.peak_active_containers << ' '
      << num(r.energy_joules) << ' ' << num(r.duration_ms) << '\n';
  const auto pop = [&](const char* name, const Percentiles& p) {
    out << name << ' ' << p.count() << ' ' << num(p.mean()) << ' '
        << num(p.median()) << ' ' << num(p.p95()) << ' ' << num(p.p99()) << ' '
        << num(p.min()) << ' ' << num(p.max()) << '\n';
  };
  pop("response", r.response_ms);
  pop("queuing", r.queuing_ms);
  pop("exec", r.exec_only_ms);
  pop("cold", r.cold_wait_ms);
  for (const auto& [name, sm] : r.stages) {
    out << "stage " << name << ' ' << sm.containers_spawned << ' '
        << sm.cold_starts << ' ' << sm.containers_executed << ' '
        << sm.tasks_executed << ' ' << sm.spawn_failures << ' '
        << num(sm.queue_wait_ms.mean()) << ' ' << num(sm.queue_wait_ms.max())
        << ' ' << num(sm.exec_ms.mean()) << ' ' << num(sm.exec_ms.max())
        << '\n';
  }
  for (const auto& t : r.timeline) {
    out << "t " << num(t.time) << ' ' << t.active_containers << ' '
        << t.provisioning_containers << ' ' << t.queued_tasks << ' '
        << t.powered_on_nodes << ' ' << num(t.power_watts) << '\n';
  }
  return out.str();
}

ExperimentParams golden_params() {
  ExperimentParams p;
  p.trace = poisson_trace(60.0, 15.0);
  p.trace_name = "poisson";
  p.seed = 42;
  p.train.epochs = 3;
  p.warmup_ms = seconds(5.0);
  return p;
}

const char* const kGoldenPresets[6] = {"bline",  "sbatch", "rscale",
                                       "bpred",  "fifer",  "hpa"};

/// Digests of canonical_result() for the six presets, recorded pre-refactor.
/// SBatch's was re-recorded when the arrival stream moved ahead of the
/// static pools' cold-start draws (so its runs replay the materialized plan).
const std::uint64_t kGoldenDigests[6] = {
    0xd7767044237cce50ull, 0xb0c17007a76cf101ull, 0xc659247d30c4e240ull,
    0x68fc011b5b6295beull, 0x7a93e28a87f70989ull, 0xf723a9d633b58c13ull,
};

std::vector<ExperimentResult> golden_sweep(std::size_t jobs) {
  GridSweep sweep(golden_params());
  for (const char* name : kGoldenPresets) sweep.add(RmConfig::by_name(name));
  return sweep.jobs(jobs).run();
}

TEST(GoldenDigest, SixPresetSweepReportPinnedAtAnyJobs) {
  const auto seq = golden_sweep(1);
  const auto par = golden_sweep(4);
  ASSERT_EQ(seq.size(), 6u);
  ASSERT_EQ(par.size(), 6u);
  for (std::size_t i = 0; i < 6; ++i) {
    const std::string canon = canonical_result(seq[i]);
    // Parallelism must not move a byte (the repo's established bar) ...
    EXPECT_EQ(canon, canonical_result(par[i])) << kGoldenPresets[i];
    // ... and neither may a structural refactor of the data plane.
    const std::uint64_t digest = fnv1a(canon);
    EXPECT_EQ(digest, kGoldenDigests[i])
        << kGoldenPresets[i] << ": actual digest 0x" << std::hex << digest;
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Digests of the fifer preset's spans + decisions CSV exports (the
/// request-level trace), recorded pre-refactor.
const std::uint64_t kGoldenSpansDigest = 0xbc43dbb0fa6b349dull;
const std::uint64_t kGoldenDecisionsDigest = 0x8ed648b6e9c64e99ull;

TEST(GoldenDigest, FiferTraceExportPinned) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "fifer_golden_trace";
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto p = golden_params();
  p.rm = RmConfig::fifer();
  auto sink = std::make_shared<obs::RecordingTraceSink>();
  p.trace_sink = sink;
  const auto r = run_experiment(std::move(p));
  ASSERT_GT(r.jobs_completed, 100u);
  sink->export_spans_csv((dir / "golden.spans.csv").string());
  sink->export_decisions_csv((dir / "golden.decisions.csv").string());

  const std::uint64_t spans = fnv1a(slurp((dir / "golden.spans.csv").string()));
  const std::uint64_t decisions =
      fnv1a(slurp((dir / "golden.decisions.csv").string()));
  EXPECT_EQ(spans, kGoldenSpansDigest)
      << "actual spans digest 0x" << std::hex << spans;
  EXPECT_EQ(decisions, kGoldenDecisionsDigest)
      << "actual decisions digest 0x" << std::hex << decisions;
}

TEST(QueueingFidelity, ExponentialSamplerMoments) {
  MicroserviceSpec spec;
  spec.mean_exec_ms = 40.0;
  spec.exec_distribution = ExecDistribution::kExponential;
  Rng rng(15);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(spec.sample_exec_ms(rng));
  EXPECT_NEAR(s.mean(), 40.0, 1.0);
  EXPECT_NEAR(s.stddev(), 40.0, 1.5);  // exponential: stddev == mean
}

}  // namespace
}  // namespace fifer
