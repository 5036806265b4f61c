// Tests for the invariant-checking contracts layer (src/common/check.hpp):
// macro semantics, the violation registry, fail-handler plumbing, and the
// event-queue edge cases the sim-layer contracts guard.

// Force DCHECKs on for this translation unit regardless of build type so the
// debug-only macro variants can be exercised even in RelWithDebInfo.
#define FIFER_DCHECK_ENABLED 1
#include "common/check.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "predict/neural.hpp"
#include "sim/event_queue.hpp"

namespace fifer {
namespace {

using check::Category;
using check::CheckFailure;
using check::ScopedTrap;
using check::Violation;

/// Resets the registry around every test so counter assertions are isolated.
class ContractsTest : public ::testing::Test {
 protected:
  void SetUp() override { check::reset_violations(); }
  void TearDown() override { check::reset_violations(); }
};

// ------------------------------------------------------------- basic macros

TEST_F(ContractsTest, PassingChecksAreSilent) {
  FIFER_CHECK(1 + 1 == 2, kCommon);
  FIFER_CHECK_EQ(4, 4, kCommon);
  FIFER_CHECK_NE(4, 5, kCommon);
  FIFER_CHECK_LT(1, 2, kCommon);
  FIFER_CHECK_LE(2, 2, kCommon);
  FIFER_CHECK_GT(3, 2, kCommon);
  FIFER_CHECK_GE(3, 3, kCommon);
  FIFER_CHECK_FINITE(0.5, kCommon);
  EXPECT_EQ(check::total_violations(), 0u);
}

TEST_F(ContractsTest, FailingCheckThrowsUnderTrap) {
  const ScopedTrap trap;
  EXPECT_THROW(FIFER_CHECK(false, kCommon), CheckFailure);
  EXPECT_EQ(check::violations(Category::kCommon), 1u);
}

TEST_F(ContractsTest, MessageCarriesExpressionTextAndStreamedContext) {
  const ScopedTrap trap;
  try {
    FIFER_CHECK(false, kSim) << "queue drained at t=" << 12.5;
    FAIL() << "check did not fire";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("FIFER_CHECK(false) failed"), std::string::npos) << what;
    EXPECT_NE(what.find("queue drained at t=12.5"), std::string::npos) << what;
    EXPECT_NE(what.find("[sim]"), std::string::npos) << what;
    EXPECT_NE(what.find("test_contracts.cpp"), std::string::npos) << what;
    EXPECT_EQ(e.category(), Category::kSim);
  }
}

TEST_F(ContractsTest, ComparisonCheckCapturesBothValues) {
  const ScopedTrap trap;
  try {
    FIFER_CHECK_EQ(2 + 2, 5, kCore) << "math broke";
    FAIL() << "check did not fire";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("(4 vs 5)"), std::string::npos) << what;
    EXPECT_NE(what.find("math broke"), std::string::npos) << what;
  }
}

TEST_F(ContractsTest, ComparisonOperandsEvaluateExactlyOnce) {
  int a = 0;
  int b = 0;
  FIFER_CHECK_EQ(++a, 1, kCommon);
  FIFER_CHECK_LE(++b, 7, kCommon);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST_F(ContractsTest, FiniteCheckRejectsNanAndInfinity) {
  const ScopedTrap trap;
  EXPECT_THROW(FIFER_CHECK_FINITE(std::numeric_limits<double>::quiet_NaN(), kPredict),
               CheckFailure);
  EXPECT_THROW(FIFER_CHECK_FINITE(std::numeric_limits<double>::infinity(), kPredict),
               CheckFailure);
  FIFER_CHECK_FINITE(1e308, kPredict);  // large but finite: fine
  EXPECT_EQ(check::violations(Category::kPredict), 2u);
}

TEST_F(ContractsTest, DcheckFiresWhenForceEnabled) {
  // This TU defines FIFER_DCHECK_ENABLED=1, so the D-variants must be live.
  const ScopedTrap trap;
  EXPECT_THROW(FIFER_DCHECK(false, kCommon), CheckFailure);
  EXPECT_THROW(FIFER_DCHECK_GT(1, 2, kCommon), CheckFailure);
  EXPECT_EQ(check::violations(Category::kCommon), 2u);
}

// --------------------------------------------------------------- registry

TEST_F(ContractsTest, CountersArePerCategory) {
  const ScopedTrap trap;
  EXPECT_THROW(FIFER_CHECK(false, kSim), CheckFailure);
  EXPECT_THROW(FIFER_CHECK(false, kSim), CheckFailure);
  EXPECT_THROW(FIFER_CHECK(false, kCluster), CheckFailure);
  EXPECT_EQ(check::violations(Category::kSim), 2u);
  EXPECT_EQ(check::violations(Category::kCluster), 1u);
  EXPECT_EQ(check::violations(Category::kCore), 0u);
  EXPECT_EQ(check::total_violations(), 3u);

  check::reset_violations();
  EXPECT_EQ(check::total_violations(), 0u);
  EXPECT_EQ(check::violations(Category::kSim), 0u);
}

TEST_F(ContractsTest, CategoryNamesAreStable) {
  EXPECT_STREQ(check::to_string(Category::kCommon), "common");
  EXPECT_STREQ(check::to_string(Category::kSim), "sim");
  EXPECT_STREQ(check::to_string(Category::kWorkload), "workload");
  EXPECT_STREQ(check::to_string(Category::kCluster), "cluster");
  EXPECT_STREQ(check::to_string(Category::kCore), "core");
  EXPECT_STREQ(check::to_string(Category::kPredict), "predict");
}

// ------------------------------------------------------------ fail handler

TEST_F(ContractsTest, SoftHandlerObservesViolationAndContinues) {
  std::vector<Violation> seen;
  auto previous =
      check::set_fail_handler([&seen](const Violation& v) { seen.push_back(v); });

  FIFER_CHECK_EQ(1, 2, kCluster) << "soft";  // returns: execution continues
  FIFER_CHECK(false, kCore);

  check::set_fail_handler(std::move(previous));

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].category, Category::kCluster);
  EXPECT_NE(seen[0].message.find("(1 vs 2)"), std::string::npos);
  EXPECT_NE(seen[0].message.find("soft"), std::string::npos);
  EXPECT_EQ(seen[1].category, Category::kCore);
  EXPECT_GT(seen[0].line, 0);
  ASSERT_NE(seen[0].file, nullptr);
  EXPECT_NE(std::string(seen[0].file).find("test_contracts.cpp"), std::string::npos);
  EXPECT_EQ(check::total_violations(), 2u);
}

TEST_F(ContractsTest, ScopedTrapRestoresPreviousHandlerOnExit) {
  int outer_calls = 0;
  auto previous = check::set_fail_handler([&outer_calls](const Violation&) {
    ++outer_calls;
  });

  {
    const ScopedTrap trap;
    EXPECT_THROW(FIFER_CHECK(false, kCommon), CheckFailure);
  }
  FIFER_CHECK(false, kCommon);  // now handled by the outer soft handler

  check::set_fail_handler(std::move(previous));
  EXPECT_EQ(outer_calls, 1);
  EXPECT_EQ(check::total_violations(), 2u);
}

// ------------------------------------------- deliberate invariant violations

TEST_F(ContractsTest, NodeOverReleaseTripsResourceLedgerContract) {
  Node n(static_cast<NodeId>(0), 4.0, 1024.0);
  ASSERT_TRUE(n.allocate(2.0, 256.0, 0.0));
  const ScopedTrap trap;
  // Releasing more cores than were ever allocated corrupts the capacity
  // ledger the bin-packer plans against.
  EXPECT_THROW(n.release(3.0, 256.0, 1.0), CheckFailure);
  EXPECT_EQ(check::violations(Category::kCluster), 1u);
}

TEST_F(ContractsTest, DivergentTrainingLossTripsPredictContract) {
  // A history containing NaN poisons the normalized inputs, so the first
  // epoch's mean loss is NaN and the training-divergence contract fires.
  TrainConfig cfg;
  cfg.input_window = 4;
  cfg.horizon = 1;
  cfg.epochs = 1;
  std::vector<double> history(16, 10.0);
  history[8] = std::numeric_limits<double>::quiet_NaN();

  SimpleFfPredictor model(cfg);
  const ScopedTrap trap;
  EXPECT_THROW(model.train(history), CheckFailure);
  EXPECT_GE(check::violations(Category::kPredict), 1u);
}

// -------------------------------------------------- event queue edge cases

TEST(EventQueueEdge, EqualTimeEventsFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) {
    auto ev = q.pop();
    EXPECT_EQ(ev.time, 5.0);
    ev.callback();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueEdge, SchedulingIntoThePastIsRejected) {
  EventQueue q;
  q.schedule(10.0, [] {});
  q.pop();  // watermark is now 10.0
  EXPECT_THROW(q.schedule(9.0, [] {}), std::logic_error);
  q.schedule(10.0, [] {});  // exactly at the watermark is allowed
}

TEST(EventQueueEdge, SizeTracksPendingEvents) {
  EventQueue q;
  q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  auto ev = q.pop();
  EXPECT_EQ(ev.time, 1.0);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.next_time(), 2.0);
  q.pop();
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace fifer
