// Unit tests for src/core: slack allocation, batch sizing, RM presets,
// profile book, stage state, and the metrics collector.

#include <gtest/gtest.h>

#include <numeric>

#include "core/app_profile.hpp"
#include "core/metrics.hpp"
#include "core/rm_config.hpp"
#include "core/slack.hpp"
#include "core/stage.hpp"
#include "workload/mix.hpp"

namespace fifer {
namespace {

const MicroserviceRegistry& services() {
  static const auto reg = MicroserviceRegistry::djinn_tonic();
  return reg;
}
const ApplicationRegistry& apps() {
  static const auto reg = ApplicationRegistry::paper_chains();
  return reg;
}

// ----------------------------------------------------------------- slack

TEST(Slack, ProportionalSumsToTotalAndFollowsExecShares) {
  const auto& ipa = apps().at("IPA");
  const auto slack = allocate_slack(ipa, services(), SlackPolicy::kProportional);
  ASSERT_EQ(slack.size(), 3u);
  const double total = std::accumulate(slack.begin(), slack.end(), 0.0);
  EXPECT_NEAR(total, ipa.total_slack_ms(services()), 1e-6);
  // ASR (46.1 ms) gets more slack than NLP (0.19 ms).
  EXPECT_GT(slack[0], slack[1]);
  // Shares proportional to exec times.
  EXPECT_NEAR(slack[0] / slack[2], 46.1 / 56.1, 1e-9);
}

TEST(Slack, EqualDivisionIsUniform) {
  const auto& df = apps().at("DetectFatigue");
  const auto slack = allocate_slack(df, services(), SlackPolicy::kEqualDivision);
  ASSERT_EQ(slack.size(), 4u);
  for (const double s : slack) {
    EXPECT_NEAR(s, df.total_slack_ms(services()) / 4.0, 1e-9);
  }
}

TEST(Slack, BatchSizeRule) {
  EXPECT_EQ(batch_size(300.0, 50.0, 64), 6);
  EXPECT_EQ(batch_size(49.0, 50.0, 64), 1);   // floors at 1
  EXPECT_EQ(batch_size(1e9, 0.1, 64), 64);    // cap guards tiny stages
  EXPECT_EQ(batch_size(100.0, 0.0, 64), 64);  // zero-cost stage -> cap
  EXPECT_THROW(batch_size(1.0, 1.0, 0), std::invalid_argument);
}

TEST(Slack, ProportionalYieldsNearUniformBatches) {
  // Paper §4.2: proportional allocation gives similar batch sizes across
  // stages despite disproportional execution times.
  const auto batches =
      batch_sizes(apps().at("IPA"), services(), SlackPolicy::kProportional, 1024);
  // B = total_slack / total_exec for every stage, up to flooring.
  EXPECT_LE(std::abs(batches[0] - batches[2]), 1);
}

TEST(Slack, EqualDivisionSkewsBatchesTowardShortStages) {
  const auto batches =
      batch_sizes(apps().at("IPA"), services(), SlackPolicy::kEqualDivision, 4096);
  // NLP (0.19 ms) gets a gigantic batch under ED; ASR does not.
  EXPECT_GT(batches[1], 10 * batches[0]);
}

TEST(Slack, HandlesEmptyChain) {
  ApplicationChain empty{"none", {}, 1000.0, 0.0, {}};
  EXPECT_THROW(allocate_slack(empty, services(), SlackPolicy::kProportional),
               std::invalid_argument);
}

// ------------------------------------------------------------- RM presets

TEST(RmConfig, PaperPresetsMatchTable6Features) {
  const auto bline = RmConfig::bline();
  EXPECT_FALSE(bline.batching);
  EXPECT_EQ(bline.scaling, ScalingMode::kPerRequest);
  EXPECT_EQ(bline.node_selection, NodeSelection::kSpread);
  EXPECT_FALSE(bline.proactive());

  const auto sbatch = RmConfig::sbatch();
  EXPECT_TRUE(sbatch.batching);
  EXPECT_EQ(sbatch.slack_policy, SlackPolicy::kEqualDivision);
  EXPECT_EQ(sbatch.scaling, ScalingMode::kStatic);

  const auto rscale = RmConfig::rscale();
  EXPECT_TRUE(rscale.batching);
  EXPECT_EQ(rscale.scaling, ScalingMode::kReactive);
  EXPECT_EQ(rscale.scheduler, SchedulerPolicy::kLeastSlackFirst);
  EXPECT_FALSE(rscale.proactive());

  const auto bpred = RmConfig::bpred();
  EXPECT_FALSE(bpred.batching);
  EXPECT_EQ(bpred.predictor, "ewma");
  EXPECT_EQ(bpred.scheduler, SchedulerPolicy::kLeastSlackFirst);

  const auto fifer = RmConfig::fifer();
  EXPECT_TRUE(fifer.batching);
  EXPECT_EQ(fifer.predictor, "lstm");
  EXPECT_EQ(fifer.node_selection, NodeSelection::kBinPack);
  EXPECT_EQ(fifer.scaling, ScalingMode::kReactive);
}

TEST(RmConfig, ByNameAndPolicyList) {
  EXPECT_EQ(RmConfig::by_name("FIFER").name, "Fifer");
  EXPECT_EQ(RmConfig::by_name("bline").name, "Bline");
  EXPECT_THROW(RmConfig::by_name("nah"), std::invalid_argument);
  EXPECT_EQ(RmConfig::paper_policies().size(), 5u);
}

// ------------------------------------------------------------ profile book

TEST(ProfileBook, SharedStageTakesMinBatchAndSlack) {
  // Heavy mix: IPA and DetectFatigue share FACED/FACER? No — they share
  // nothing; medium mix (IPA + IMG) shares NLP and QA.
  const ProfileBook book(WorkloadMix::medium(), apps(), services(),
                         RmConfig::fifer());
  const auto& ipa = book.app("IPA");
  const auto& img = book.app("IMG");
  const auto& qa = book.stage("QA");
  const std::size_t ipa_qa = 2, img_qa = 2;  // QA is stage index 2 in both
  EXPECT_EQ(qa.batch,
            std::min(ipa.stage_batch[ipa_qa], img.stage_batch[img_qa]));
  EXPECT_LE(qa.slack_ms, ipa.stage_slack_ms[ipa_qa] + 1e-9);
  EXPECT_LE(qa.slack_ms, img.stage_slack_ms[img_qa] + 1e-9);
}

TEST(ProfileBook, SuffixBusyIsMonotoneDecreasing) {
  const ProfileBook book(WorkloadMix::heavy(), apps(), services(),
                         RmConfig::fifer());
  const auto& df = book.app("DetectFatigue");
  for (std::size_t i = 1; i < df.suffix_busy_ms.size(); ++i) {
    EXPECT_GT(df.suffix_busy_ms[i - 1], df.suffix_busy_ms[i]);
  }
  // Suffix at stage 0 equals the whole chain's busy time.
  EXPECT_NEAR(df.suffix_busy_ms[0], df.app->total_busy_ms(services()), 1e-9);
}

TEST(ProfileBook, NonBatchingRmGetsUnitBatches) {
  const ProfileBook book(WorkloadMix::heavy(), apps(), services(),
                         RmConfig::bline());
  for (const auto& [name, sp] : book.stages()) {
    EXPECT_EQ(sp.batch, 1) << name;
  }
}

TEST(ProfileBook, UnknownLookupsThrow) {
  const ProfileBook book(WorkloadMix::light(), apps(), services(),
                         RmConfig::fifer());
  EXPECT_THROW(book.app("IPA"), std::out_of_range);   // not in light mix
  EXPECT_THROW(book.stage("ASR"), std::out_of_range);
}

TEST(ProfileBook, ResponseBudgetIsSlackPlusExec) {
  const ProfileBook book(WorkloadMix::heavy(), apps(), services(),
                         RmConfig::fifer());
  const auto& hs = book.stage("HS");
  EXPECT_NEAR(hs.response_budget_ms(), hs.slack_ms + 151.2, 1e-9);
}

// ------------------------------------------------------------- stage state

StageProfile test_profile(int batch = 4) {
  StageProfile p;
  p.stage = "ASR";
  p.exec_ms = 46.1;
  p.slack_ms = 300.0;
  p.batch = batch;
  return p;
}

/// A job as the simulator admits it: on time, so planned == arrival.
Job make_job(const ApplicationChain& app, SimTime arrival) {
  Job j;
  j.app = &app;
  j.arrival = arrival;
  j.planned = arrival;
  j.records.resize(app.stages.size());
  return j;
}

TEST(StageState, LsfPopsLeastKeyFirst) {
  StageState st(test_profile(), SchedulerPolicy::kLeastSlackFirst);
  Job a = make_job(apps().at("IPA"), 0.0);
  Job b = make_job(apps().at("IPA"), 0.0);
  st.enqueue({&a, 0}, 500.0);
  st.enqueue({&b, 0}, 100.0);  // least slack
  EXPECT_EQ(st.pop_next().job, &b);
  EXPECT_EQ(st.pop_next().job, &a);
}

TEST(StageState, FifoIgnoresKeys) {
  StageState st(test_profile(), SchedulerPolicy::kFifo);
  Job a = make_job(apps().at("IPA"), 0.0);
  Job b = make_job(apps().at("IPA"), 0.0);
  st.enqueue({&a, 0}, 999.0);
  st.enqueue({&b, 0}, 1.0);
  EXPECT_EQ(st.pop_next().job, &a);  // arrival order wins
}

TEST(StageState, LsfTiesBreakFifo) {
  StageState st(test_profile(), SchedulerPolicy::kLeastSlackFirst);
  Job a = make_job(apps().at("IPA"), 0.0);
  Job b = make_job(apps().at("IPA"), 0.0);
  st.enqueue({&a, 0}, 100.0);
  st.enqueue({&b, 0}, 100.0);
  EXPECT_EQ(st.pop_next().job, &a);
}

TEST(StageState, QueueAccounting) {
  StageState st(test_profile(), SchedulerPolicy::kFifo);
  EXPECT_TRUE(st.queue_empty());
  EXPECT_THROW(st.pop_next(), std::logic_error);
  EXPECT_THROW(st.peek_key(), std::logic_error);
  Job a = make_job(apps().at("IPA"), 0.0);
  st.enqueue({&a, 0}, 1.0);
  EXPECT_EQ(st.queue_length(), 1u);
  EXPECT_EQ(st.total_enqueued(), 1u);
}

Container& make_c(StageState& st, std::uint64_t id, int batch, SimTime spawn,
                  double cold) {
  return st.add_container(static_cast<ContainerId>(id), static_cast<NodeId>(0),
                          batch, spawn, cold);
}

TEST(StageState, SelectPrefersFewestFreeSlotsAmongWarm) {
  StageState st(test_profile(), SchedulerPolicy::kFifo);
  Container& a = make_c(st, 1, 4, 0.0, 0.0);
  Container& b = make_c(st, 2, 4, 0.0, 0.0);
  a.mark_warm(0.0);
  b.mark_warm(0.0);
  Job j = make_job(apps().at("IPA"), 0.0);
  b.enqueue({&j, 0});  // b now has 3 free slots, a has 4
  EXPECT_EQ(st.select_container(), &b);
}

TEST(StageState, SelectIgnoresProvisioningAndFull) {
  StageState st(test_profile(), SchedulerPolicy::kFifo);
  make_c(st, 1, 4, 0.0, 1000.0);  // still provisioning
  EXPECT_EQ(st.select_container(), nullptr);
  Container& warm = make_c(st, 2, 1, 0.0, 0.0);
  warm.mark_warm(0.0);
  Job j = make_job(apps().at("IPA"), 0.0);
  warm.enqueue({&j, 0});  // full
  EXPECT_EQ(st.select_container(), nullptr);
}

TEST(StageState, CapacityCounters) {
  StageState st(test_profile(), SchedulerPolicy::kFifo);
  Container& warm = make_c(st, 1, 4, 0.0, 0.0);
  warm.mark_warm(0.0);
  make_c(st, 2, 4, 0.0, 1000.0);  // provisioning
  EXPECT_EQ(st.live_count(), 2u);
  EXPECT_EQ(st.warm_count(), 1u);
  EXPECT_EQ(st.provisioning_count(), 1u);
  EXPECT_EQ(st.total_capacity(), 8);
  EXPECT_EQ(st.warm_free_slots(), 4);
  EXPECT_EQ(st.provisioning_slots(), 4);
  EXPECT_EQ(st.total_free_slots(), 8);
}

TEST(StageState, EraseTerminatedRemovesAndLookupThrows) {
  StageState st(test_profile(), SchedulerPolicy::kFifo);
  Container& c = make_c(st, 7, 4, 0.0, 0.0);
  c.mark_warm(0.0);
  EXPECT_NO_THROW(st.container(static_cast<ContainerId>(7)));
  c.terminate(1.0);
  EXPECT_THROW(st.container(static_cast<ContainerId>(7)), std::out_of_range);
  st.erase_terminated();
  EXPECT_EQ(st.live_count(), 0u);
}

TEST(StageState, RecentWaitHorizon) {
  StageState st(test_profile(), SchedulerPolicy::kFifo);
  st.record_wait(seconds(1.0), 100.0);
  st.record_wait(seconds(5.0), 300.0);
  // Horizon of 10 s from t=6 s covers both.
  EXPECT_DOUBLE_EQ(st.recent_mean_wait_ms(seconds(6.0), seconds(10.0)), 200.0);
  // From t=14 s, only the 5 s sample is inside a 10 s horizon.
  EXPECT_DOUBLE_EQ(st.recent_mean_wait_ms(seconds(14.0), seconds(10.0)), 300.0);
  // From much later, nothing.
  EXPECT_DOUBLE_EQ(st.recent_mean_wait_ms(seconds(60.0), seconds(10.0)), 0.0);
}

// ---------------------------------------------------------------- metrics

TEST(Metrics, WarmupExcludesEarlyJobs) {
  MetricsCollector mc(seconds(10.0));
  Job early = make_job(apps().at("IPA"), seconds(5.0));
  Job late = make_job(apps().at("IPA"), seconds(15.0));
  early.completion = seconds(5.5);
  late.completion = seconds(17.0);  // 2000 ms -> violates the 1000 ms SLO
  mc.on_job_submitted(early);
  mc.on_job_submitted(late);
  mc.on_job_completed(early);
  mc.on_job_completed(late);
  const auto r = mc.finish(seconds(20.0), 0.0);
  EXPECT_EQ(r.jobs_submitted, 1u);
  EXPECT_EQ(r.jobs_completed, 1u);
  EXPECT_EQ(r.slo_violations, 1u);
  EXPECT_DOUBLE_EQ(r.slo_violation_pct(), 100.0);
}

// Warm-up membership follows the planned arrival, so a request planned
// inside the warm-up but admitted late, after it, is left out like its
// on-time twin; its SLO still counts from admission.
TEST(Metrics, WarmupCountsFromThePlannedArrival) {
  MetricsCollector mc(seconds(10.0));
  Job late_admitted = make_job(apps().at("IPA"), seconds(10.5));
  late_admitted.planned = seconds(9.9);
  Job planned_after = make_job(apps().at("IPA"), seconds(10.2));
  planned_after.planned = seconds(10.1);
  late_admitted.completion = seconds(11.0);
  planned_after.completion = seconds(10.9);  // 700 ms from admission
  for (const Job* j : {&late_admitted, &planned_after}) {
    mc.on_job_submitted(*j);
    mc.on_job_completed(*j);
  }
  const auto r = mc.finish(seconds(20.0), 0.0);
  EXPECT_EQ(r.jobs_submitted, 1u);
  EXPECT_EQ(r.jobs_completed, 1u);
  EXPECT_EQ(r.slo_violations, 0u);
  EXPECT_NEAR(r.response_ms.median(), 700.0, 1e-9);
}

TEST(Metrics, StageAggregatesAndRpc) {
  MetricsCollector mc;
  mc.on_container_spawned("ASR");
  mc.on_container_spawned("ASR");
  mc.on_container_spawned("ASR");  // pre-warmed; never executes a task
  StageRecord rec;
  rec.enqueued = 0.0;
  rec.dispatched = 0.0;
  rec.exec_start = 10.0;
  rec.exec_end = 56.0;
  rec.exec_ms = 46.0;
  rec.container = static_cast<ContainerId>(1);
  for (int i = 0; i < 4; ++i) mc.on_task_executed("ASR", rec);
  rec.container = static_cast<ContainerId>(2);
  for (int i = 0; i < 2; ++i) mc.on_task_executed("ASR", rec);
  mc.on_spawn_failure("ASR");
  const auto r = mc.finish(1000.0, 500.0);
  const auto& sm = r.stages.at("ASR");
  EXPECT_EQ(sm.containers_spawned, 3u);
  EXPECT_EQ(sm.tasks_executed, 6u);
  EXPECT_EQ(sm.spawn_failures, 1u);
  // Fig. 12a's RPC ("jobs per container") counts containers *used*: the
  // denominator is the 2 distinct containers that executed, not the 3
  // spawns — a speculatively pre-warmed container that the reaper collects
  // before any work reaches it must not dilute the utilization metric.
  EXPECT_EQ(sm.containers_executed, 2u);
  EXPECT_DOUBLE_EQ(sm.requests_per_container(), 3.0);
  EXPECT_DOUBLE_EQ(r.mean_rpc(), 3.0);
  EXPECT_EQ(r.containers_spawned, 3u);
}

TEST(Metrics, TimelineAveragesAndPeak) {
  MetricsCollector mc;
  mc.record_timeline({0.0, 10, 2, 0, 1, 100.0});
  mc.record_timeline({10.0, 20, 0, 5, 2, 200.0});
  const auto r = mc.finish(seconds(20.0), 4000.0);
  EXPECT_DOUBLE_EQ(r.avg_active_containers, 16.0);
  EXPECT_EQ(r.peak_active_containers, 20u);
  EXPECT_DOUBLE_EQ(r.avg_power_watts(), 4000.0 / 20.0);
}

TEST(Metrics, LatencyBreakdownPopulations) {
  MetricsCollector mc;
  Job j = make_job(apps().at("FaceSecurity"), 0.0);
  j.records[0].enqueued = 0.0;
  j.records[0].dispatched = 0.0;
  j.records[0].exec_start = 100.0;
  j.records[0].exec_end = 106.0;
  j.records[0].exec_ms = 6.0;
  j.records[0].cold_start_wait_ms = 40.0;
  j.records[1].enqueued = 110.0;
  j.records[1].dispatched = 110.0;
  j.records[1].exec_start = 130.0;
  j.records[1].exec_end = 136.0;
  j.records[1].exec_ms = 6.0;
  j.completion = 136.0;
  mc.on_job_submitted(j);
  mc.on_job_completed(j);
  const auto r = mc.finish(1000.0, 0.0);
  EXPECT_DOUBLE_EQ(r.response_ms.median(), 136.0);
  EXPECT_DOUBLE_EQ(r.exec_only_ms.median(), 12.0);
  EXPECT_DOUBLE_EQ(r.cold_wait_ms.median(), 40.0);
  EXPECT_DOUBLE_EQ(r.queuing_ms.median(), (100.0 - 40.0) + 20.0);
}

}  // namespace
}  // namespace fifer
