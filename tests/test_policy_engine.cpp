// Tests for the pluggable policy engine: RmConfig name round-trips, the
// RmConfig -> strategy-bundle factory, the engine the framework actually
// assembles, and a custom drop-in policy via ExperimentParams::policy_factory.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "core/framework.hpp"
#include "core/policy/batch_sizer.hpp"
#include "core/policy/placer.hpp"
#include "core/policy/proactive.hpp"
#include "core/policy/scaler.hpp"
#include "core/policy/scheduler.hpp"
#include "workload/application.hpp"
#include "workload/generators.hpp"
#include "workload/request.hpp"

namespace fifer {
namespace {

ExperimentParams small_params(RmConfig rm) {
  ExperimentParams p;
  p.rm = std::move(rm);
  p.trace = poisson_trace(30.0, 5.0);
  p.seed = 11;
  p.train.epochs = 2;
  return p;
}

// --------------------------------------------------------- by_name lookup

TEST(RmConfigNames, ByNameRoundTripsAllSixPresets) {
  const char* names[] = {"bline", "sbatch", "rscale", "bpred", "fifer", "hpa"};
  for (const char* lower : names) {
    const RmConfig c = RmConfig::by_name(lower);
    EXPECT_FALSE(c.name.empty()) << lower;
    // The display name round-trips through the (case-insensitive) lookup.
    const RmConfig again = RmConfig::by_name(c.name);
    EXPECT_EQ(again.name, c.name) << lower;
    EXPECT_EQ(again.batching, c.batching) << lower;
    EXPECT_EQ(again.scaling, c.scaling) << lower;
    EXPECT_EQ(again.scheduler, c.scheduler) << lower;
    EXPECT_EQ(again.predictor, c.predictor) << lower;
  }
}

TEST(RmConfigNames, ByNameRejectsUnknownPolicy) {
  EXPECT_THROW(RmConfig::by_name("knative"), std::invalid_argument);
  EXPECT_THROW(RmConfig::by_name(""), std::invalid_argument);
}

// ------------------------------------------------------- factory assembly

TEST(PolicyEngineFactory, BlineAssemblesPerRequestFifoSpread) {
  auto p = small_params(RmConfig::bline());
  const PolicyEngine e = p.rm.assemble(p);
  EXPECT_STREQ(e.scaler->name(), "per-request");
  EXPECT_STREQ(e.scheduler->name(), "fifo");
  EXPECT_EQ(e.placer->node_selection(), NodeSelection::kSpread);
  EXPECT_FALSE(e.batch_sizer->batching());
  EXPECT_TRUE(e.scaler->reaps_idle());
}

TEST(PolicyEngineFactory, SbatchAssemblesStaticEqualDivision) {
  auto p = small_params(RmConfig::sbatch());
  const PolicyEngine e = p.rm.assemble(p);
  EXPECT_STREQ(e.scaler->name(), "static");
  EXPECT_FALSE(e.scaler->reaps_idle());  // fixed pool: reaper must not shrink
  EXPECT_STREQ(e.batch_sizer->name(), "equal-division");
  EXPECT_TRUE(e.batch_sizer->batching());
  EXPECT_STREQ(e.scheduler->name(), "lsf");
  EXPECT_EQ(e.placer->node_selection(), NodeSelection::kBinPack);
}

TEST(PolicyEngineFactory, RscaleAssemblesReactiveLsfBinPack) {
  auto p = small_params(RmConfig::rscale());
  const PolicyEngine e = p.rm.assemble(p);
  EXPECT_STREQ(e.scaler->name(), "reactive");
  EXPECT_STREQ(e.scheduler->name(), "lsf");
  EXPECT_STREQ(e.batch_sizer->name(), "slack-proportional");
  EXPECT_EQ(e.placer->node_selection(), NodeSelection::kBinPack);
}

TEST(PolicyEngineFactory, ProactivePresetsWrapTheirBaseScaler) {
  // Fifer = proactive(LSTM) over reactive; BPred = proactive(EWMA) over
  // per-request. Both keep the inner scaler's reap behaviour.
  auto pf = small_params(RmConfig::fifer());
  const PolicyEngine ef = pf.rm.assemble(pf);
  EXPECT_STREQ(ef.scaler->name(), "proactive");
  EXPECT_TRUE(ef.scaler->reaps_idle());
  EXPECT_NE(dynamic_cast<ProactiveScaler*>(ef.scaler.get()), nullptr);

  auto pb = small_params(RmConfig::bpred());
  const PolicyEngine eb = pb.rm.assemble(pb);
  EXPECT_STREQ(eb.scaler->name(), "proactive");
  EXPECT_EQ(eb.placer->node_selection(), NodeSelection::kSpread);
}

TEST(PolicyEngineFactory, HpaAssemblesUtilizationScaler) {
  auto p = small_params(RmConfig::hpa());
  const PolicyEngine e = p.rm.assemble(p);
  EXPECT_STREQ(e.scaler->name(), "utilization-hpa");
  EXPECT_STREQ(e.scheduler->name(), "fifo");
  EXPECT_FALSE(e.batch_sizer->batching());
}

TEST(PolicyEngineFactory, FrameworkExposesAssembledEngine) {
  Driver<VirtualClock> driver(small_params(RmConfig::rscale()));
  RequestPath& fw = driver.path();
  EXPECT_STREQ(fw.engine().scaler->name(), "reactive");
  EXPECT_STREQ(fw.engine().scheduler->name(), "lsf");
  EXPECT_STREQ(fw.engine().placer->name(), "bin-pack");
}

// ------------------------------------------- LSF ordering & tie-breaking

/// Two same-app requests arriving at the same instant have byte-identical
/// remaining slack at every stage, so the LSF key cannot order them — the
/// queue's arrival-sequence tie-break must, deterministically.
TEST(LsfSchedulerOrdering, EqualSlackPopsInArrivalOrder) {
  Driver<VirtualClock> driver(small_params(RmConfig::rscale()));
  RequestPath& fw = driver.path();
  const LsfScheduler lsf;
  const ApplicationChain& app = fw.apps().at("IPA");

  Job a, b;
  a.id = JobId{1};
  a.app = &app;
  a.arrival = 0.0;
  b.id = JobId{2};
  b.app = &app;
  b.arrival = 0.0;

  const double key_a = lsf.priority_key(fw, a, 0);
  const double key_b = lsf.priority_key(fw, b, 0);
  ASSERT_DOUBLE_EQ(key_a, key_b);  // equal slack: the key is a genuine tie

  StageState& st = fw.stages().at(app.stages[0]);
  st.enqueue({&a, 0}, key_a);
  st.enqueue({&b, 0}, key_b);
  EXPECT_EQ(st.pop_next().job, &a);  // first enqueued wins the tie
  EXPECT_EQ(st.pop_next().job, &b);
}

TEST(LsfSchedulerOrdering, LessSlackBeatsArrivalOrder) {
  Driver<VirtualClock> driver(small_params(RmConfig::rscale()));
  RequestPath& fw = driver.path();
  const LsfScheduler lsf;
  const ApplicationChain& app = fw.apps().at("IPA");

  Job early, late;
  early.id = JobId{1};
  early.app = &app;
  early.arrival = 0.0;  // earlier deadline -> less slack -> smaller key
  late.id = JobId{2};
  late.app = &app;
  late.arrival = 250.0;

  const double key_early = lsf.priority_key(fw, early, 0);
  const double key_late = lsf.priority_key(fw, late, 0);
  ASSERT_LT(key_early, key_late);

  // Enqueue in the "wrong" order: the genuinely tighter job still pops first.
  StageState& st = fw.stages().at(app.stages[0]);
  st.enqueue({&late, 0}, key_late);
  st.enqueue({&early, 0}, key_early);
  EXPECT_EQ(st.pop_next().job, &early);
  EXPECT_EQ(st.pop_next().job, &late);
}

// ------------------------------------------------- custom drop-in policy

/// A complete scaling policy in ~15 lines: a fixed fleet of `per_stage`
/// containers provisioned up front, plus the starvation hook so backlogged
/// stages are never stuck. Everything else (queueing, placement, batching)
/// is reused from stock strategies.
class FixedFleetScaler final : public Scaler {
 public:
  explicit FixedFleetScaler(int per_stage) : per_stage_(per_stage) {}
  const char* name() const override { return "fixed-fleet"; }
  void on_start(PolicyContext& ctx) override {
    for (auto& [name, st] : ctx.stages()) {
      for (int i = 0; i < per_stage_; ++i) ctx.spawn_container(st);
    }
  }
  void on_starved(PolicyContext& ctx, StageState& st) override {
    ctx.spawn_container(st);
  }
  bool reaps_idle() const override { return false; }

 private:
  int per_stage_;
};

TEST(PolicyEngineFactory, CustomPolicyFactoryDropsIn) {
  auto p = small_params(RmConfig::rscale());
  p.rm.name = "FixedFleet";
  p.policy_factory = [](ExperimentParams&) {
    PolicyEngine e;
    e.scaler = std::make_unique<FixedFleetScaler>(3);
    e.scheduler = std::make_unique<FifoScheduler>();
    e.placer = std::make_unique<BinPackPlacer>();
    e.batch_sizer = std::make_unique<ProportionalBatchSizer>(true);
    return e;
  };
  const ExperimentResult r = run_experiment(std::move(p));
  EXPECT_EQ(r.policy, "FixedFleet");
  EXPECT_GT(r.jobs_submitted, 0u);
  EXPECT_EQ(r.jobs_completed, r.jobs_submitted);
  // 7 stages x 3 containers up front; the starvation guard may add a few.
  EXPECT_GE(r.containers_spawned, 21u);
}

TEST(PolicyEngineFactory, CustomPolicyIsDeterministic) {
  const auto make = [] {
    auto p = small_params(RmConfig::rscale());
    p.rm.name = "FixedFleet";
    p.policy_factory = [](ExperimentParams&) {
      PolicyEngine e;
      e.scaler = std::make_unique<FixedFleetScaler>(2);
      e.scheduler = std::make_unique<LsfScheduler>();
      e.placer = std::make_unique<SpreadPlacer>();
      e.batch_sizer = std::make_unique<EqualDivisionBatchSizer>(false);
      return e;
    };
    return p;
  };
  const auto a = run_experiment(make());
  const auto b = run_experiment(make());
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.containers_spawned, b.containers_spawned);
  EXPECT_DOUBLE_EQ(a.response_ms.p99(), b.response_ms.p99());
  EXPECT_DOUBLE_EQ(a.energy_joules, b.energy_joules);
}

}  // namespace
}  // namespace fifer
