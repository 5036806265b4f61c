// Tests for the extension layer: event bus, JSON export, report writing,
// dynamic (branching) chains, and online predictor retraining.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "cluster/event_bus.hpp"
#include "common/check.hpp"
#include "common/json.hpp"
#include "core/framework.hpp"
#include "core/report.hpp"
#include "workload/generators.hpp"

namespace fifer {
namespace {

// -------------------------------------------------------------- event bus

TEST(EventBus, UncongestedLatencyCentersOnMean) {
  EventBus bus;
  Rng rng(1);
  RunningStats s;
  for (int i = 0; i < 5000; ++i) {
    s.add(bus.begin_transition(60.0, rng));
    bus.end_transition();
  }
  EXPECT_NEAR(s.mean(), 60.0, 1.5);
  EXPECT_EQ(bus.total_transitions(), 5000u);
  EXPECT_EQ(bus.inflight(), 0u);
  EXPECT_DOUBLE_EQ(bus.peak_congestion(), 1.0);
}

TEST(EventBus, CongestionInflatesLatency) {
  EventBusModel model;
  model.capacity = 10;
  model.congestion_alpha = 1.0;
  model.jitter = 0.0;
  EventBus bus(model);
  Rng rng(2);
  // Fill to 2x capacity: factor approaches 1 + (20/10 - 1) = 2.
  double last = 0.0;
  for (int i = 0; i < 20; ++i) last = bus.begin_transition(100.0, rng);
  EXPECT_GT(last, 150.0);
  EXPECT_GT(bus.peak_congestion(), 1.5);
  for (int i = 0; i < 20; ++i) bus.end_transition();
  // Drained bus is cheap again.
  EXPECT_NEAR(bus.begin_transition(100.0, rng), 100.0, 1e-9);
}

TEST(EventBus, EndWithoutBeginViolatesConservation) {
  EventBus bus;
  const check::ScopedTrap trap;
  const auto before = check::violations(check::Category::kCluster);
  EXPECT_THROW(bus.end_transition(), check::CheckFailure);
  EXPECT_EQ(check::violations(check::Category::kCluster), before + 1);
}

// ------------------------------------------------------------------- json

TEST(Json, ScalarsAndEscaping) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(3.5).dump(), "3.5");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json::escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Json, ObjectsAndArraysCompose) {
  Json j = Json::object();
  j["name"] = "fifer";
  j["count"] = 2;
  Json arr = Json::array();
  arr.push_back(1.5);
  arr.push_back("x");
  j["items"] = std::move(arr);
  EXPECT_EQ(j.dump(), R"({"count":2,"items":[1.5,"x"],"name":"fifer"})");
  EXPECT_EQ(j.size(), 3u);
}

TEST(Json, PrettyPrintIndents) {
  Json j = Json::object();
  j["a"] = 1;
  const std::string out = j.dump(2);
  EXPECT_NE(out.find("{\n  \"a\": 1\n}"), std::string::npos);
}

TEST(Json, TypeGuards) {
  Json scalar(1.0);
  EXPECT_THROW(scalar["x"], std::logic_error);
  EXPECT_THROW(scalar.push_back(1), std::logic_error);
  EXPECT_EQ(scalar.size(), 0u);
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
}

// ----------------------------------------------------------------- report

ExperimentParams small_run(const RmConfig& rm) {
  ExperimentParams p;
  p.rm = rm;
  p.mix = WorkloadMix::light();
  p.trace = poisson_trace(40.0, 5.0);
  p.seed = 5;
  return p;
}

TEST(Report, JsonCarriesHeadlineMetrics) {
  const auto r = run_experiment(small_run(RmConfig::fifer()));
  const Json j = result_to_json(r);
  const std::string out = j.dump();
  EXPECT_NE(out.find("\"policy\":\"Fifer\""), std::string::npos);
  EXPECT_NE(out.find("\"jobs_completed\""), std::string::npos);
  EXPECT_NE(out.find("\"stages\""), std::string::npos);
  EXPECT_NE(out.find("\"IMC\""), std::string::npos);  // light mix stage
}

// A run that measured nothing (the warm-up outlasts the trace) has no SLO
// violation rate: it is NaN, and the JSON summary writes it as null.
TEST(Report, RunThatMeasuredNothingHasNoSloRate) {
  ExperimentParams p = small_run(RmConfig::rscale());
  p.trace = poisson_trace(5.0, 5.0);
  p.warmup_ms = seconds(10.0);
  const auto r = run_experiment(std::move(p));
  ASSERT_EQ(r.jobs_completed, 0u);
  EXPECT_TRUE(std::isnan(r.slo_violation_pct()));
  const std::string out = result_to_json(r).dump();
  EXPECT_NE(out.find("\"slo_violation_pct\":null"), std::string::npos) << out;
}

TEST(Report, WritesAllThreeFiles) {
  const auto r = run_experiment(small_run(RmConfig::rscale()));
  const std::string prefix = testing::TempDir() + "/fifer_report_test";
  const auto paths = write_report(r, prefix);
  ASSERT_EQ(paths.size(), 3u);
  for (const auto& p : paths) {
    std::ifstream in(p);
    EXPECT_TRUE(in.good()) << p;
    std::string first_line;
    std::getline(in, first_line);
    EXPECT_FALSE(first_line.empty()) << p;
    std::remove(p.c_str());
  }
}

TEST(Report, ComparisonKeyedByPolicy) {
  std::vector<ExperimentResult> results;
  results.push_back(run_experiment(small_run(RmConfig::bline())));
  results.push_back(run_experiment(small_run(RmConfig::fifer())));
  const Json j = comparison_to_json(results);
  const std::string out = j.dump();
  EXPECT_NE(out.find("\"Bline\""), std::string::npos);
  EXPECT_NE(out.find("\"Fifer\""), std::string::npos);
}

// -------------------------------------------------------- dynamic chains

TEST(DynamicChains, ExpectedExecWeightsByProbability) {
  const auto services = MicroserviceRegistry::djinn_tonic();
  ApplicationChain chain{"dyn", {"ASR", "NLP", "QA"}, 1000.0, 50.0,
                         {1.0, 0.5, 0.25}};
  EXPECT_NEAR(chain.total_exec_ms(services), 46.1 + 0.5 * 0.19 + 0.25 * 56.1,
              1e-9);
  // Busy time counts expected transitions too.
  EXPECT_NEAR(chain.total_busy_ms(services),
              chain.total_exec_ms(services) + 50.0 * (1.0 + 0.5 + 0.25), 1e-9);
  EXPECT_TRUE(chain.is_dynamic());
  EXPECT_DOUBLE_EQ(chain.stage_prob(2), 0.25);
}

TEST(DynamicChains, SlackWeightsByExpectedExec) {
  const auto services = MicroserviceRegistry::djinn_tonic();
  ApplicationChain chain{"dyn", {"ASR", "QA"}, 1000.0, 0.0, {1.0, 0.5}};
  const auto slack = allocate_slack(chain, services, SlackPolicy::kProportional);
  // ASR weight 46.1 vs QA weight 0.5*56.1=28.05.
  EXPECT_NEAR(slack[0] / slack[1], 46.1 / 28.05, 1e-9);
}

TEST(DynamicChains, BranchedJobsCompleteAndSkipStages) {
  auto apps = ApplicationRegistry::paper_chains();
  // IMG where the QA stage runs for only ~30% of requests.
  apps.add({"DynIMG", {"IMC", "NLP", "QA"}, 1000.0, 66.7, {1.0, 1.0, 0.3}});

  ExperimentParams p;
  p.rm = RmConfig::rscale();
  p.applications = apps;
  p.mix = WorkloadMix("dyn", {{"DynIMG", 1.0}});
  p.trace = poisson_trace(120.0, 10.0);
  p.seed = 9;
  const auto r = run_experiment(std::move(p));

  EXPECT_EQ(r.jobs_completed, r.jobs_submitted);
  const auto imc = r.stages.at("IMC").tasks_executed;
  const auto qa = r.stages.at("QA").tasks_executed;
  EXPECT_EQ(imc, r.jobs_completed);
  // QA executes for ~30% of jobs (binomial; allow generous noise).
  const double frac = static_cast<double>(qa) / static_cast<double>(imc);
  EXPECT_NEAR(frac, 0.3, 0.06);
}

TEST(DynamicChains, AllStagesSkippedStillCompletes) {
  auto apps = ApplicationRegistry::paper_chains();
  apps.add({"Ghost", {"NLP"}, 1000.0, 10.0, {0.0}});
  ExperimentParams p;
  p.rm = RmConfig::bline();
  p.applications = apps;
  p.mix = WorkloadMix("ghost", {{"Ghost", 1.0}});
  p.trace = poisson_trace(20.0, 5.0);
  p.seed = 3;
  const auto r = run_experiment(std::move(p));
  EXPECT_EQ(r.jobs_completed, r.jobs_submitted);
  // No stage ever executes, no container is needed.
  EXPECT_EQ(r.stages.count("NLP") ? r.stages.at("NLP").tasks_executed : 0u, 0u);
}

TEST(DynamicChains, StaticChainsUnaffected) {
  const auto services = MicroserviceRegistry::djinn_tonic();
  const auto apps = ApplicationRegistry::paper_chains();
  for (const auto& app : apps.all()) {
    EXPECT_FALSE(app.is_dynamic());
    for (std::size_t i = 0; i < app.stages.size(); ++i) {
      EXPECT_DOUBLE_EQ(app.stage_prob(i), 1.0);
    }
  }
  EXPECT_NEAR(apps.at("IPA").total_slack_ms(services), 697.0, 0.5);
}

// ---------------------------------------------------- online retraining

TEST(OnlineRetraining, RunsAndKeepsSlosUnderDrift) {
  ExperimentParams p;
  p.rm = RmConfig::fifer();
  p.rm.retrain_interval_ms = seconds(60.0);
  p.mix = WorkloadMix::light();
  p.trace = step_trace(300.0, 5.0, 15.0, 150.0);
  p.seed = 4;
  p.train.epochs = 5;
  const auto r = run_experiment(std::move(p));
  EXPECT_GE(r.predictor_retrains, 2u);
  EXPECT_EQ(r.jobs_completed, r.jobs_submitted);
}

TEST(OnlineRetraining, DisabledByDefault) {
  ExperimentParams p;
  p.rm = RmConfig::fifer();
  p.mix = WorkloadMix::light();
  p.trace = poisson_trace(60.0, 5.0);
  p.seed = 4;
  p.train.epochs = 3;
  const auto r = run_experiment(std::move(p));
  EXPECT_EQ(r.predictor_retrains, 0u);
}

TEST(OnlineRetraining, NoEffectOnClassicPredictors) {
  ExperimentParams p;
  p.rm = RmConfig::bpred();  // EWMA needs no training
  p.rm.retrain_interval_ms = seconds(30.0);
  p.mix = WorkloadMix::light();
  p.trace = poisson_trace(90.0, 5.0);
  p.seed = 4;
  const auto r = run_experiment(std::move(p));
  EXPECT_EQ(r.predictor_retrains, 0u);
}

// --------------------------------------------------------------- bus stats

TEST(BusStats, TransitionsMatchExecutedStages) {
  ExperimentParams p;
  p.rm = RmConfig::rscale();
  p.mix = WorkloadMix::light();  // IMG (3 stages) + FaceSecurity (2 stages)
  p.trace = poisson_trace(60.0, 8.0);
  p.seed = 6;
  const auto r = run_experiment(std::move(p));
  std::uint64_t tasks = 0;
  for (const auto& [_, sm] : r.stages) tasks += sm.tasks_executed;
  EXPECT_EQ(r.bus_transitions, tasks);
  EXPECT_GE(r.bus_peak_congestion, 1.0);
}

}  // namespace
}  // namespace fifer
