// Property-style parameterized sweeps: invariants that must hold for every
// (policy x mix) combination and randomized stress tests of the substrates.

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <set>

#include "core/framework.hpp"
#include "sim/event_queue.hpp"
#include "workload/generators.hpp"

namespace fifer {
namespace {

// ---------------------------------------------------- policy x mix sweeps

struct SweepCase {
  const char* policy;
  const char* mix;
};

// gtest prints the parameter into each test's listed name. Without this it
// dumps the struct's raw bytes — two string-literal addresses, which ASLR
// moves on every run — so the listed names would change from run to run.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.policy << '/' << c.mix;
}

class PolicyMixSweep : public testing::TestWithParam<SweepCase> {};

TEST_P(PolicyMixSweep, InvariantsHold) {
  const auto [policy, mix] = GetParam();
  ExperimentParams p;
  p.rm = RmConfig::by_name(policy);
  p.rm.idle_timeout_ms = minutes(1.0);
  p.mix = WorkloadMix::by_name(mix);
  p.trace = poisson_trace(60.0, 8.0);
  p.seed = 11;
  p.train.epochs = 3;
  const auto r = run_experiment(std::move(p));

  // Conservation: everything submitted finishes; nothing is lost.
  EXPECT_EQ(r.jobs_completed, r.jobs_submitted);
  EXPECT_LE(r.slo_violations, r.jobs_completed);

  // Latency populations are complete and ordered sensibly.
  EXPECT_EQ(r.response_ms.count(), r.jobs_completed);
  EXPECT_GE(r.response_ms.p99(), r.response_ms.median());
  EXPECT_GE(r.response_ms.median(), r.exec_only_ms.min());

  // No negative components anywhere.
  EXPECT_GE(r.queuing_ms.min(), 0.0);
  EXPECT_GE(r.cold_wait_ms.min(), 0.0);
  EXPECT_GE(r.exec_only_ms.min(), 0.0);

  // Response >= exec for every percentile we can compare coarsely.
  EXPECT_GE(r.response_ms.median(), r.exec_only_ms.median());

  // Containers and energy are physically sane.
  EXPECT_GT(r.containers_spawned, 0u);
  EXPECT_GT(r.energy_joules, 0.0);
  for (const auto& [name, sm] : r.stages) {
    EXPECT_GE(sm.requests_per_container(), 1.0) << name;
    EXPECT_GE(sm.exec_ms.min(), 0.0) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAllMixes, PolicyMixSweep,
    testing::Values(SweepCase{"bline", "heavy"}, SweepCase{"bline", "medium"},
                    SweepCase{"bline", "light"}, SweepCase{"sbatch", "heavy"},
                    SweepCase{"sbatch", "medium"}, SweepCase{"sbatch", "light"},
                    SweepCase{"rscale", "heavy"}, SweepCase{"rscale", "medium"},
                    SweepCase{"rscale", "light"}, SweepCase{"bpred", "heavy"},
                    SweepCase{"bpred", "medium"}, SweepCase{"bpred", "light"},
                    SweepCase{"fifer", "heavy"}, SweepCase{"fifer", "medium"},
                    SweepCase{"fifer", "light"}),
    [](const testing::TestParamInfo<SweepCase>& info) {
      return std::string(info.param.policy) + "_" + info.param.mix;
    });

// ------------------------------------------------------ slack-policy sweep

class SlackCapSweep : public testing::TestWithParam<int> {};

TEST_P(SlackCapSweep, BatchSizesRespectCap) {
  const int cap = GetParam();
  const auto services = MicroserviceRegistry::djinn_tonic();
  const auto apps = ApplicationRegistry::paper_chains();
  for (const auto& app : apps.all()) {
    for (const auto policy :
         {SlackPolicy::kProportional, SlackPolicy::kEqualDivision}) {
      const auto batches = batch_sizes(app, services, policy, cap);
      const auto slack = allocate_slack(app, services, policy);
      double total = 0.0;
      for (std::size_t i = 0; i < batches.size(); ++i) {
        EXPECT_GE(batches[i], 1);
        EXPECT_LE(batches[i], cap);
        // The batch never overruns its stage's slack:
        // (B) * exec <= slack + exec (B=1 is always allowed).
        const double exec = services.at(app.stages[i]).mean_exec_ms;
        if (batches[i] > 1) {
          EXPECT_LE(batches[i] * exec, slack[i] + exec + 1e-9)
              << app.name << " stage " << i;
        }
        total += slack[i];
      }
      EXPECT_NEAR(total, app.total_slack_ms(services), 1e-6) << app.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Caps, SlackCapSweep, testing::Values(1, 2, 8, 64, 1024));

// ------------------------------------------------------- seed determinism

class SeedSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, RunsAreReproducible) {
  auto make = [&] {
    ExperimentParams p;
    p.rm = RmConfig::rscale();
    p.mix = WorkloadMix::light();
    p.trace = poisson_trace(40.0, 6.0);
    p.seed = GetParam();
    return p;
  };
  const auto a = run_experiment(make());
  const auto b = run_experiment(make());
  EXPECT_EQ(a.jobs_submitted, b.jobs_submitted);
  EXPECT_EQ(a.containers_spawned, b.containers_spawned);
  EXPECT_DOUBLE_EQ(a.response_ms.mean(), b.response_ms.mean());
  EXPECT_DOUBLE_EQ(a.energy_joules, b.energy_joules);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, testing::Values(1u, 2u, 3u, 42u, 1000u));

// -------------------------------------------------- event queue stress

TEST(EventQueueProperty, RandomOpsPreserveOrderAndCount) {
  Rng rng(404);
  EventQueue q;
  std::multiset<double> pending;
  std::vector<EventId> cancellable;
  double last_popped = 0.0;
  int executed = 0;

  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.uniform();
    if (roll < 0.55 || q.empty()) {
      const double at = last_popped + rng.uniform(0.0, 100.0);
      cancellable.push_back(q.schedule(at, [&executed] { ++executed; }));
      pending.insert(at);
    } else if (roll < 0.70 && !cancellable.empty()) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(cancellable.size()) - 1));
      q.cancel(cancellable[idx]);  // may be a double-cancel; both fine
    } else {
      auto f = q.pop();
      EXPECT_GE(f.time, last_popped);
      last_popped = f.time;
      f.callback();
    }
  }
  while (!q.empty()) {
    auto f = q.pop();
    EXPECT_GE(f.time, last_popped);
    last_popped = f.time;
    f.callback();
  }
  EXPECT_GT(executed, 1000);
}

// ------------------------------------------- workload generator properties

class TraceScaleSweep : public testing::TestWithParam<double> {};

TEST_P(TraceScaleSweep, ArrivalCountsScaleLinearly) {
  const double scale = GetParam();
  Rng r1(5), r2(5);
  const RateTrace base = poisson_trace(100.0, 40.0);
  const auto full = generate_arrivals(base, WorkloadMix::heavy(), r1);
  const auto scaled = generate_arrivals(base.scaled(scale), WorkloadMix::heavy(), r2);
  EXPECT_NEAR(static_cast<double>(scaled.size()),
              static_cast<double>(full.size()) * scale,
              std::max(30.0, 0.1 * static_cast<double>(full.size()) * scale));
}

INSTANTIATE_TEST_SUITE_P(Scales, TraceScaleSweep, testing::Values(0.25, 0.5, 2.0));

// ------------------------------------------------------ percentile property

TEST(PercentilesProperty, QuantilesAreMonotone) {
  Rng rng(71);
  Percentiles p;
  for (int i = 0; i < 5000; ++i) p.add(rng.exponential(0.005));
  double prev = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double v = p.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

// --------------------------------------------------- cluster pack property

TEST(ClusterProperty, BinPackMinimizesNodesTouched) {
  ClusterSpec spec;
  spec.node_count = 10;
  spec.cores_per_node = 8.0;
  Cluster packed(spec);
  Cluster spread(spec);
  std::set<std::uint32_t> packed_nodes, spread_nodes;
  for (int i = 0; i < 32; ++i) {
    packed_nodes.insert(
        value_of(*packed.allocate(0.5, 256.0, NodeSelection::kBinPack, 0.0)));
    spread_nodes.insert(
        value_of(*spread.allocate(0.5, 256.0, NodeSelection::kSpread, 0.0)));
  }
  EXPECT_EQ(packed_nodes.size(), 2u);   // 32 x 0.5 cores fits in 2 nodes
  EXPECT_EQ(spread_nodes.size(), 10u);  // spread touches everything
}

}  // namespace
}  // namespace fifer
