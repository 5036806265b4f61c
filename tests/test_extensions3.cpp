// Tests for the fourth extension wave: ASCII plotting, the PolicySweep grid
// runner, trace resampling/concatenation, and NN weight persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "common/plot.hpp"
#include "core/sweep.hpp"
#include "predict/neural.hpp"
#include "workload/generators.hpp"

namespace fifer {
namespace {

// ------------------------------------------------------------------- plot

TEST(Plot, AsciiBarScalesAndClamps) {
  EXPECT_EQ(ascii_bar(5.0, 10.0, 10), "#####");
  EXPECT_EQ(ascii_bar(20.0, 10.0, 10), "##########");  // clamps at full
  EXPECT_EQ(ascii_bar(0.0, 10.0, 10), "");
  EXPECT_EQ(ascii_bar(5.0, 0.0, 10), "");  // degenerate max
  EXPECT_EQ(ascii_bar(10.0, 10.0, 4, '='), "====");
}

TEST(Plot, BarChartRendersAllRows) {
  BarChart chart("demo", 20);
  chart.add("alpha", 10.0).add("beta", 5.0);
  std::ostringstream os;
  chart.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("####################"), std::string::npos);  // full bar
  EXPECT_NE(out.find("##########"), std::string::npos);            // half bar
}

TEST(Plot, LineChartRendersSeriesAndLegend) {
  LineChart chart("load", 40, 8);
  std::vector<double> up, down;
  for (int i = 0; i < 100; ++i) {
    up.push_back(i);
    down.push_back(100 - i);
  }
  chart.add_series("rising", up).add_series("falling", down);
  std::ostringstream os;
  chart.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("legend:"), std::string::npos);
  EXPECT_NE(out.find("*=rising"), std::string::npos);
  EXPECT_NE(out.find("o=falling"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);
}

TEST(Plot, EmptyChartsPrintNothing) {
  std::ostringstream os;
  BarChart().print(os);
  LineChart("x").print(os);
  EXPECT_TRUE(os.str().empty());
}

// ------------------------------------------------------------------ sweep

TEST(Sweep, RunsPoliciesInOrder) {
  ExperimentParams base;
  base.mix = WorkloadMix::light();
  base.trace = poisson_trace(40.0, 5.0);
  base.seed = 3;

  PolicySweep sweep(base);
  std::vector<std::string> seen;
  sweep.add(RmConfig::bline())
      .add(RmConfig::rscale())
      .on_progress([&](const std::string& name) { seen.push_back(name); });
  const auto results = sweep.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].policy, "Bline");
  EXPECT_EQ(results[1].policy, "RScale");
  EXPECT_EQ(seen, (std::vector<std::string>{"Bline", "RScale"}));
  for (const auto& r : results) EXPECT_EQ(r.jobs_completed, r.jobs_submitted);
}

TEST(Sweep, PaperPoliciesHelperAddsFive) {
  ExperimentParams base;
  base.mix = WorkloadMix::light();
  base.trace = poisson_trace(30.0, 4.0);
  base.seed = 3;
  base.train.epochs = 2;
  const auto results = PolicySweep(base).add_paper_policies().run();
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results[0].policy, "Bline");
  EXPECT_EQ(results[4].policy, "Fifer");
}

TEST(Sweep, ComparisonTableNormalizesToFirst) {
  ExperimentParams base;
  base.mix = WorkloadMix::light();
  base.trace = poisson_trace(30.0, 4.0);
  base.seed = 3;
  const auto results =
      PolicySweep(base).add(RmConfig::bline()).add(RmConfig::rscale()).run();
  const Table t = PolicySweep::comparison_table(results, "test");
  std::ostringstream os;
  t.print(os);
  // The first row normalizes to itself.
  EXPECT_NE(os.str().find("1.00"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

// A grid cell that measured nothing shows an undefined SLO column, not a
// perfect one.
TEST(Sweep, ComparisonTableShowsAnUnmeasuredSloAsNa) {
  ExperimentParams base;
  base.mix = WorkloadMix::light();
  base.trace = poisson_trace(5.0, 4.0);
  base.warmup_ms = seconds(10.0);
  base.seed = 3;
  const auto results = GridSweep(base).add(RmConfig::rscale()).run();
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].jobs_completed, 0u);
  std::ostringstream os;
  PolicySweep::comparison_table(results, "test").print(os);
  EXPECT_NE(os.str().find("n/a"), std::string::npos) << os.str();
  EXPECT_EQ(os.str().find("100.00"), std::string::npos) << os.str();
}

// ----------------------------------------------------------- trace algebra

TEST(TraceAlgebra, ResampleConservesExpectedArrivals) {
  RateTrace t({10.0, 20.0, 30.0, 40.0}, 1.0);
  const RateTrace coarse = t.resampled(2.0);
  ASSERT_EQ(coarse.windows(), 2u);
  EXPECT_DOUBLE_EQ(coarse.rate(0), 15.0);
  EXPECT_DOUBLE_EQ(coarse.rate(1), 35.0);
  // Expected arrivals: 10+20+30+40 = 2*15 + 2*35.
  EXPECT_NEAR(coarse.average_rate() * 4.0, t.average_rate() * 4.0, 1e-9);
}

TEST(TraceAlgebra, ResampleFinerInterpolatesFlat) {
  RateTrace t({10.0, 30.0}, 2.0);
  const RateTrace fine = t.resampled(1.0);
  ASSERT_EQ(fine.windows(), 4u);
  EXPECT_DOUBLE_EQ(fine.rate(0), 10.0);
  EXPECT_DOUBLE_EQ(fine.rate(3), 30.0);
}

TEST(TraceAlgebra, ResampleFractionalOverlap) {
  RateTrace t({12.0, 24.0}, 1.0);
  const RateTrace odd = t.resampled(0.8);
  // Middle window [0.8, 1.6) overlaps source 0 for 0.2 s and source 1 for
  // 0.6 s: (12*0.2 + 24*0.6)/0.8 = 21. Last window [1.6, 2.0) sits fully in
  // the second source window.
  ASSERT_EQ(odd.windows(), 3u);
  EXPECT_NEAR(odd.rate(0), 12.0, 1e-9);
  EXPECT_NEAR(odd.rate(1), 21.0, 1e-9);
  EXPECT_NEAR(odd.rate(2), 24.0, 1e-9);
  EXPECT_THROW(t.resampled(0.0), std::invalid_argument);
}

TEST(TraceAlgebra, ConcatAndRepeat) {
  RateTrace a({1.0, 2.0}, 1.0);
  RateTrace b({3.0}, 1.0);
  const RateTrace ab = a.concatenated(b);
  ASSERT_EQ(ab.windows(), 3u);
  EXPECT_DOUBLE_EQ(ab.rate(2), 3.0);
  const RateTrace aa = a.repeated(3);
  ASSERT_EQ(aa.windows(), 6u);
  EXPECT_DOUBLE_EQ(aa.rate(4), 1.0);
  EXPECT_EQ(a.repeated(0).windows(), 0u);
  EXPECT_THROW(a.concatenated(RateTrace({1.0}, 2.0)), std::invalid_argument);
}

// -------------------------------------------------------- NN persistence

std::vector<double> ramp_rates() {
  std::vector<double> rates;
  for (int i = 0; i < 150; ++i) {
    rates.push_back(50.0 + 30.0 * std::sin(i / 7.0));
  }
  return rates;
}

TEST(Persistence, SaveLoadRoundTripsForecasts) {
  TrainConfig cfg;
  cfg.input_window = 10;
  cfg.epochs = 8;
  cfg.seed = 5;

  LstmPredictor original(cfg);
  original.train(ramp_rates());
  const std::vector<double> window(10, 60.0);
  const double expected = original.forecast(window);

  const std::string path = testing::TempDir() + "/fifer_lstm_weights.txt";
  original.save(path);

  LstmPredictor restored(cfg);  // same architecture, untrained
  restored.load(path);
  EXPECT_DOUBLE_EQ(restored.forecast(window), expected);
  std::remove(path.c_str());
}

TEST(Persistence, AllTrainableModelsRoundTrip) {
  TrainConfig cfg;
  cfg.input_window = 8;
  cfg.epochs = 4;
  for (const char* name : {"ff", "wavenet", "deepar", "lstm"}) {
    auto original = make_predictor(name, cfg);
    original->train(ramp_rates());
    auto* trained = dynamic_cast<NeuralPredictor*>(original.get());
    ASSERT_NE(trained, nullptr) << name;

    const std::string path = testing::TempDir() + "/fifer_weights_tmp.txt";
    trained->save(path);

    auto fresh = make_predictor(name, cfg);
    auto* blank = dynamic_cast<NeuralPredictor*>(fresh.get());
    blank->load(path);
    const std::vector<double> window(8, 55.0);
    EXPECT_DOUBLE_EQ(blank->forecast(window), trained->forecast(window)) << name;
    std::remove(path.c_str());
  }
}

TEST(Persistence, GuardsAndMismatches) {
  TrainConfig cfg;
  cfg.input_window = 8;
  cfg.epochs = 2;
  LstmPredictor model(cfg);
  EXPECT_THROW(model.save("/tmp/x.txt"), std::logic_error);  // untrained
  model.train(ramp_rates());
  EXPECT_THROW(model.save("/no/such/dir/x.txt"), std::runtime_error);

  const std::string path = testing::TempDir() + "/fifer_weights_mismatch.txt";
  model.save(path);
  // Different architecture (hidden size) must be rejected.
  LstmPredictor other(cfg, /*hidden=*/8);
  EXPECT_THROW(other.load(path), std::runtime_error);
  EXPECT_THROW(other.load("/no/such/file.txt"), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fifer
