// Integration tests: whole experiments through the simulator driver, checking
// conservation laws, determinism, and the paper's qualitative orderings.

#include <gtest/gtest.h>

#include "core/framework.hpp"
#include "workload/generators.hpp"

namespace fifer {
namespace {

ExperimentParams base_params(const RmConfig& rm, double duration_s = 60.0,
                             double lambda = 10.0) {
  ExperimentParams p;
  p.rm = rm;
  p.mix = WorkloadMix::heavy();
  p.trace = poisson_trace(duration_s, lambda);
  p.trace_name = "poisson";
  p.seed = 7;
  p.train.epochs = 5;
  p.rm.idle_timeout_ms = minutes(1.0);
  return p;
}

TEST(Framework, AllJobsCompleteUnderFifer) {
  const auto r = run_experiment(base_params(RmConfig::fifer()));
  EXPECT_GT(r.jobs_submitted, 400u);
  EXPECT_EQ(r.jobs_completed, r.jobs_submitted);
  EXPECT_EQ(r.policy, "Fifer");
  EXPECT_EQ(r.mix, "heavy");
}

TEST(Framework, AllPoliciesCompleteAllJobs) {
  for (const auto& rm : RmConfig::paper_policies()) {
    const auto r = run_experiment(base_params(rm));
    EXPECT_EQ(r.jobs_completed, r.jobs_submitted) << rm.name;
    EXPECT_GT(r.containers_spawned, 0u) << rm.name;
  }
}

TEST(Framework, TaskConservationPerStage) {
  const auto r = run_experiment(base_params(RmConfig::fifer()));
  // Every IPA job runs ASR, NLP, QA; every DetectFatigue job runs HS, AP,
  // FACED, FACER. Tasks executed at a stage == jobs of apps containing it.
  const auto asr = r.stages.at("ASR").tasks_executed;
  const auto nlp = r.stages.at("NLP").tasks_executed;
  const auto qa = r.stages.at("QA").tasks_executed;
  const auto hs = r.stages.at("HS").tasks_executed;
  const auto ap = r.stages.at("AP").tasks_executed;
  const auto faced = r.stages.at("FACED").tasks_executed;
  EXPECT_EQ(asr, nlp);
  EXPECT_EQ(nlp, qa);
  EXPECT_EQ(hs, ap);
  EXPECT_EQ(ap, faced);
  EXPECT_EQ(asr + hs, r.jobs_completed);
}

TEST(Framework, DeterministicGivenSeed) {
  const auto a = run_experiment(base_params(RmConfig::rscale()));
  const auto b = run_experiment(base_params(RmConfig::rscale()));
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.containers_spawned, b.containers_spawned);
  EXPECT_EQ(a.slo_violations, b.slo_violations);
  EXPECT_DOUBLE_EQ(a.response_ms.p99(), b.response_ms.p99());
  EXPECT_DOUBLE_EQ(a.energy_joules, b.energy_joules);
}

TEST(Framework, DifferentSeedsDiffer) {
  auto p1 = base_params(RmConfig::rscale());
  auto p2 = base_params(RmConfig::rscale());
  p2.seed = 12345;
  const auto a = run_experiment(std::move(p1));
  const auto b = run_experiment(std::move(p2));
  EXPECT_NE(a.jobs_submitted, b.jobs_submitted);
}

TEST(Framework, SloAccountingConsistent) {
  const auto r = run_experiment(base_params(RmConfig::rscale()));
  // Violations can never exceed completions, and the percentage matches.
  EXPECT_LE(r.slo_violations, r.jobs_completed);
  EXPECT_NEAR(r.slo_violation_pct(),
              100.0 * static_cast<double>(r.slo_violations) /
                  static_cast<double>(r.jobs_completed),
              1e-9);
}

TEST(Framework, BatchingSpawnsFarFewerContainers) {
  const auto bline = run_experiment(base_params(RmConfig::bline(), 120.0, 15.0));
  const auto fifer = run_experiment(base_params(RmConfig::fifer(), 120.0, 15.0));
  // The headline claim: batching + proactive scaling cuts spawns massively.
  EXPECT_LT(fifer.containers_spawned, bline.containers_spawned / 2);
  EXPECT_GT(fifer.mean_rpc(), bline.mean_rpc());
}

TEST(Framework, SbatchPoolIsStatic) {
  const auto r = run_experiment(base_params(RmConfig::sbatch(), 90.0, 10.0));
  // SBatch never scales: spawned == initial pool == active throughout.
  ASSERT_FALSE(r.timeline.empty());
  for (const auto& s : r.timeline) {
    EXPECT_EQ(s.active_containers + s.provisioning_containers,
              r.containers_spawned);
  }
}

TEST(Framework, BinPackingUsesFewerNodesThanSpread) {
  auto packed = base_params(RmConfig::fifer(), 120.0, 10.0);
  auto spread = base_params(RmConfig::fifer(), 120.0, 10.0);
  spread.rm.node_selection = NodeSelection::kSpread;
  spread.rm.name = "Fifer-spread";
  const auto rp = run_experiment(std::move(packed));
  const auto rs = run_experiment(std::move(spread));
  double packed_nodes = 0.0, spread_nodes = 0.0;
  for (const auto& s : rp.timeline) packed_nodes += s.powered_on_nodes;
  for (const auto& s : rs.timeline) spread_nodes += s.powered_on_nodes;
  packed_nodes /= static_cast<double>(rp.timeline.size());
  spread_nodes /= static_cast<double>(rs.timeline.size());
  EXPECT_LT(packed_nodes, spread_nodes);
  EXPECT_LT(rp.energy_joules, rs.energy_joules);
}

TEST(Framework, WarmupExcludesTransient) {
  auto with_warmup = base_params(RmConfig::bline(), 120.0, 10.0);
  with_warmup.warmup_ms = seconds(60.0);
  auto without = base_params(RmConfig::bline(), 120.0, 10.0);
  const auto rw = run_experiment(std::move(with_warmup));
  const auto ro = run_experiment(std::move(without));
  EXPECT_LT(rw.jobs_submitted, ro.jobs_submitted);
  // Steady state after warmup: cold-start violations mostly gone.
  EXPECT_LE(rw.slo_violation_pct(), ro.slo_violation_pct());
}

TEST(Framework, ProactiveReducesColdStartsOnLoadStep) {
  // A sharp load step is the worst case for reactive scaling; prediction
  // pre-warms (paper Figure 16's cold-start gap).
  auto reactive = base_params(RmConfig::rscale(), 240.0, 0.0);
  reactive.trace = step_trace(240.0, 4.0, 30.0, 120.0);
  auto proactive = base_params(RmConfig::fifer(), 240.0, 0.0);
  proactive.trace = step_trace(240.0, 4.0, 30.0, 120.0);
  proactive.train.epochs = 20;
  const auto rr = run_experiment(std::move(reactive));
  const auto rp = run_experiment(std::move(proactive));
  // Proactive provisioning should not *hurt* tail latency on a step, and
  // queue-driven cold waits shrink.
  EXPECT_LE(rp.cold_wait_ms.p99(), rr.cold_wait_ms.p99() * 1.5);
  EXPECT_EQ(rp.jobs_completed, rp.jobs_submitted);
}

TEST(Framework, MedianLatencyRisesUnderBatching) {
  // Paper §6.1.2: batching RMs trade median latency for fewer containers.
  auto bl = base_params(RmConfig::bline(), 180.0, 15.0);
  bl.warmup_ms = seconds(60.0);
  auto ff = base_params(RmConfig::fifer(), 180.0, 15.0);
  ff.warmup_ms = seconds(60.0);
  const auto rb = run_experiment(std::move(bl));
  const auto rf = run_experiment(std::move(ff));
  EXPECT_GE(rf.response_ms.median(), rb.response_ms.median());
}

TEST(Framework, ContainersNeverExceedClusterCapacity) {
  auto p = base_params(RmConfig::bline(), 90.0, 25.0);
  p.cluster.node_count = 2;
  p.cluster.cores_per_node = 8.0;  // 16 cores -> max 32 containers at 0.5
  const auto r = run_experiment(std::move(p));
  for (const auto& s : r.timeline) {
    EXPECT_LE(s.active_containers + s.provisioning_containers, 32u);
  }
  EXPECT_EQ(r.jobs_completed, r.jobs_submitted);
}

TEST(Framework, TimelineCoversRunAndPowerIsPositive) {
  const auto r = run_experiment(base_params(RmConfig::fifer(), 90.0, 10.0));
  ASSERT_GE(r.timeline.size(), 8u);
  for (const auto& s : r.timeline) {
    EXPECT_GE(s.power_watts, 0.0);
    EXPECT_LE(s.powered_on_nodes, 5u);
  }
  EXPECT_GT(r.energy_joules, 0.0);
  EXPECT_GE(r.duration_ms, seconds(90.0));
}

TEST(Framework, ResponseNeverFasterThanBusyTime) {
  const auto services = MicroserviceRegistry::djinn_tonic();
  const auto apps = ApplicationRegistry::paper_chains();
  const auto r = run_experiment(base_params(RmConfig::bline(), 60.0, 5.0));
  // Fastest possible response is bounded below by ~85% of the busy time
  // (exec jitter can undershoot means slightly).
  const double min_busy =
      std::min(apps.at("IPA").total_busy_ms(services),
               apps.at("DetectFatigue").total_busy_ms(services));
  EXPECT_GT(r.response_ms.quantile(0.0), 0.5 * min_busy);
}

TEST(Framework, LsfKeepsSharedStageViolationsBounded) {
  // Medium mix shares NLP/QA between IPA and IMG; LSF should keep both
  // apps' violations in check relative to FIFO under pressure.
  auto lsf = base_params(RmConfig::fifer(), 180.0, 25.0);
  lsf.mix = WorkloadMix::medium();
  lsf.warmup_ms = seconds(60.0);
  auto fifo = base_params(RmConfig::fifer(), 180.0, 25.0);
  fifo.mix = WorkloadMix::medium();
  fifo.warmup_ms = seconds(60.0);
  fifo.rm.scheduler = SchedulerPolicy::kFifo;
  fifo.rm.name = "Fifer-FIFO";
  const auto rl = run_experiment(std::move(lsf));
  const auto rf = run_experiment(std::move(fifo));
  EXPECT_LE(rl.slo_violation_pct(), rf.slo_violation_pct() + 2.0);
}

TEST(Framework, IdleContainersGetReaped) {
  // Load stops halfway; by the end the fleet should have shrunk.
  auto p = base_params(RmConfig::rscale(), 0.0, 0.0);
  p.trace = step_trace(300.0, 20.0, 0.0, 120.0);
  p.rm.idle_timeout_ms = seconds(30.0);
  const auto r = run_experiment(std::move(p));
  ASSERT_GT(r.timeline.size(), 10u);
  const auto& mid = r.timeline[11];   // ~t=120 s, under load
  const auto& last = r.timeline.back();
  EXPECT_LT(last.active_containers, mid.active_containers);
}

TEST(Framework, IntrospectionSurfacesProfiles) {
  ExperimentParams p = base_params(RmConfig::fifer(), 10.0, 1.0);
  Driver<VirtualClock> fw(std::move(p));
  EXPECT_EQ(fw.path().stages().size(), 7u);  // heavy mix touches 7 services
  EXPECT_NO_THROW(fw.path().profiles().stage("ASR"));
  EXPECT_EQ(fw.path().cluster().node_count(), 5u);
}

}  // namespace
}  // namespace fifer
