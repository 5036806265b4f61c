// Coverage for smaller contracts not exercised elsewhere: serializer error
// paths, JSON nesting, ragged tables, RNG stream independence, container
// retuning, event-bus floors, window-boundary arrivals, and cross-seed
// policy properties.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cluster/event_bus.hpp"
#include "common/check.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "core/framework.hpp"
#include "predict/nn/serialize.hpp"
#include "predict/window.hpp"
#include "workload/generators.hpp"

namespace fifer {
namespace {

// ----------------------------------------------------- serializer contracts

TEST(Serialize, RoundTripAtStreamLevel) {
  Rng rng(1);
  nn::Matrix w = nn::Matrix::xavier(3, 4, rng);
  nn::Matrix g(3, 4, 0.0);
  std::vector<nn::ParamRef> params{{&w, &g}};

  std::stringstream ss;
  nn::save_weights(ss, params, 123.5);

  nn::Matrix w2(3, 4, 0.0), g2(3, 4, 0.0);
  std::vector<nn::ParamRef> params2{{&w2, &g2}};
  EXPECT_DOUBLE_EQ(nn::load_weights(ss, params2), 123.5);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_DOUBLE_EQ(w2.data()[i], w.data()[i]);
  }
}

TEST(Serialize, RejectsBadHeaderCountShapeAndTruncation) {
  nn::Matrix w(2, 2, 1.0), g(2, 2, 0.0);
  std::vector<nn::ParamRef> params{{&w, &g}};

  std::stringstream bad_header("not-fifer 1\n1 1.0\n2 2 1 1 1 1\n");
  EXPECT_THROW(nn::load_weights(bad_header, params), std::runtime_error);

  std::stringstream bad_count("fifer-nn 1\n2 1.0\n2 2 1 1 1 1\n");
  EXPECT_THROW(nn::load_weights(bad_count, params), std::runtime_error);

  std::stringstream bad_shape("fifer-nn 1\n1 1.0\n3 2 1 1 1 1 1 1\n");
  EXPECT_THROW(nn::load_weights(bad_shape, params), std::runtime_error);

  std::stringstream truncated("fifer-nn 1\n1 1.0\n2 2 1 1\n");
  EXPECT_THROW(nn::load_weights(truncated, params), std::runtime_error);
}

// ----------------------------------------------------------------- JSON

TEST(Json, NestedPrettyPrint) {
  Json inner = Json::object();
  inner["x"] = 1;
  Json arr = Json::array();
  arr.push_back(std::move(inner));
  Json root = Json::object();
  root["list"] = std::move(arr);
  const std::string out = root.dump(2);
  EXPECT_NE(out.find("\"list\": [\n    {\n      \"x\": 1\n    }\n  ]"),
            std::string::npos);
}

TEST(Json, EmptyContainersStayCompact) {
  Json j = Json::object();
  j["o"] = Json::object();
  j["a"] = Json::array();
  EXPECT_EQ(j.dump(), R"({"a":[],"o":{}})");
}

// ------------------------------------------------------------ JSON parse

TEST(JsonParse, RoundTripsDumpedDocuments) {
  Json j = Json::object();
  j["name"] = "fifer";
  j["pi"] = 3.25;
  j["flag"] = true;
  j["none"] = Json();
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  j["arr"] = std::move(arr);

  const Json parsed = Json::parse(j.dump(2));
  EXPECT_EQ(parsed.at("name").as_string(), "fifer");
  EXPECT_DOUBLE_EQ(parsed.at("pi").as_number(), 3.25);
  EXPECT_TRUE(parsed.at("flag").as_bool());
  EXPECT_TRUE(parsed.at("none").is_null());
  EXPECT_EQ(parsed.at("arr").size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.at("arr").at(0).as_number(), 1.0);
  EXPECT_EQ(parsed.at("arr").at(1).as_string(), "two");
  EXPECT_TRUE(parsed.contains("pi"));
  EXPECT_FALSE(parsed.contains("nope"));
}

TEST(JsonParse, HandlesEscapesAndNumbers) {
  const Json j = Json::parse(R"({"s":"a\"b\\c\ndA","n":-1.5e3})");
  EXPECT_EQ(j.at("s").as_string(), "a\"b\\c\ndA");
  EXPECT_DOUBLE_EQ(j.at("n").as_number(), -1500.0);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), std::runtime_error);
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,2,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("tru"), std::runtime_error);
  EXPECT_THROW(Json::parse("1 2"), std::runtime_error);   // trailing junk
  EXPECT_THROW(Json::parse("\"abc"), std::runtime_error);  // unterminated
  EXPECT_THROW(Json::parse("1.2.3"), std::runtime_error);
}

TEST(JsonParse, AccessorTypeGuards) {
  const Json j = Json::parse("{\"x\":1}");
  EXPECT_THROW(j.at("x").as_string(), std::logic_error);
  EXPECT_THROW(j.at("missing"), std::out_of_range);
  EXPECT_THROW(j.at(std::size_t{0}), std::logic_error);  // object, not array
  const Json a = Json::parse("[1]");
  EXPECT_THROW(a.at(5), std::out_of_range);
}

// ---------------------------------------------------------------- table

TEST(Table, RaggedRowsPadWithBlanks) {
  Table t;
  t.set_columns({"a", "b", "c"});
  t.add_row({"only-one"});
  std::ostringstream os;
  t.print(os);
  // Three columns rendered even though the row has one cell.
  const std::string out = os.str();
  EXPECT_NE(out.find("only-one"), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '+'), 12);  // 3 rules x 4 posts
}

// ------------------------------------------------------------------ rng

TEST(Rng, DistinctSaltsGiveDistinctStreams) {
  Rng parent(1);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

// ------------------------------------------------------------- container

TEST(Container, RetuningBatchSizeChangesFreeSlots) {
  Container c(static_cast<ContainerId>(1), "QA", static_cast<NodeId>(0), 2, 0.0,
              0.0);
  c.mark_warm(0.0);
  Job j;
  c.enqueue({&j, 0});
  EXPECT_EQ(c.free_slots(), 1);
  c.set_batch_size(5);  // load balancer retunes B_size upward
  EXPECT_EQ(c.free_slots(), 4);
  Job j2;
  c.enqueue({&j2, 0});  // occupancy now 2
  // Shrinking B_size below the current occupancy would strand queued work
  // outside any slot; the slot-accounting contract rejects it.
  const check::ScopedTrap trap;
  EXPECT_THROW(c.set_batch_size(1), check::CheckFailure);
}

// -------------------------------------------------------------- event bus

TEST(EventBus, JitterFloorPreventsNegativeLatency) {
  EventBusModel model;
  model.jitter = 10.0;  // absurd sigma: draws would go negative unclamped
  EventBus bus(model);
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(bus.begin_transition(50.0, rng), 50.0 * 0.2 - 1e-9);
    bus.end_transition();
  }
}

// ---------------------------------------------------------------- window

TEST(WindowSampler, BoundaryArrivalLandsInNewWindow) {
  WindowSampler s(seconds(5.0), 4);
  s.record_arrival(seconds(5.0));  // exactly at the boundary -> window 1
  const auto rates = s.window_rates(seconds(5.5));
  EXPECT_DOUBLE_EQ(rates[3], 1.0 / 5.0);  // current window holds it
  EXPECT_DOUBLE_EQ(rates[2], 0.0);        // window 0 stays empty
}

TEST(WindowSampler, RatesAfterLongSilence) {
  WindowSampler s(seconds(1.0), 4);
  s.record_arrival(100.0);
  // 100 s later every retained window has rolled out.
  const auto rates = s.window_rates(seconds(100.0));
  for (const double r : rates) EXPECT_DOUBLE_EQ(r, 0.0);
  EXPECT_DOUBLE_EQ(s.global_max_rate(seconds(100.0)), 0.0);
}

// ------------------------------------------------------------ P2 quantile

TEST(P2Quantile, ExactForSmallSamples) {
  P2Quantile p(0.5);
  EXPECT_DOUBLE_EQ(p.value(), 0.0);
  p.add(10.0);
  EXPECT_DOUBLE_EQ(p.value(), 10.0);
  p.add(20.0);
  EXPECT_DOUBLE_EQ(p.value(), 15.0);
  p.add(30.0);
  EXPECT_DOUBLE_EQ(p.value(), 20.0);
}

TEST(P2Quantile, TracksMedianOfUniform) {
  P2Quantile p(0.5);
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) p.add(rng.uniform(0.0, 100.0));
  EXPECT_NEAR(p.value(), 50.0, 2.0);
}

TEST(P2Quantile, TracksTailOfExponential) {
  P2Quantile p(0.99);
  Percentiles exact;
  Rng rng(6);
  for (int i = 0; i < 50000; ++i) {
    const double v = rng.exponential(0.01);
    p.add(v);
    exact.add(v);
  }
  // Within 5% of the exact retained-sample P99.
  EXPECT_NEAR(p.value(), exact.p99(), exact.p99() * 0.05);
  EXPECT_EQ(p.count(), 50000u);
}

TEST(P2Quantile, RejectsBadQuantiles) {
  EXPECT_THROW(P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(P2Quantile(1.0), std::invalid_argument);
}

// -------------------------------------------------------- lifecycle trace

TEST(TraceLog, WritesJobAndContainerLines) {
  const std::string path = testing::TempDir() + "/fifer_trace_log.jsonl";
  ExperimentParams p;
  p.rm = RmConfig::rscale();
  p.mix = WorkloadMix::light();
  p.trace = poisson_trace(30.0, 4.0);
  p.seed = 2;
  p.trace_log_path = path;
  const auto r = run_experiment(std::move(p));

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::uint64_t jobs = 0, containers = 0;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"job\"") != std::string::npos) ++jobs;
    if (line.find("\"type\":\"container\"") != std::string::npos) ++containers;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(jobs, r.jobs_completed);
  EXPECT_EQ(containers, r.containers_spawned);
  std::remove(path.c_str());
}

TEST(TraceLog, BadPathThrows) {
  ExperimentParams p;
  p.trace = poisson_trace(5.0, 1.0);
  p.trace_log_path = "/no/such/dir/log.jsonl";
  EXPECT_THROW(Driver<VirtualClock>{std::move(p)}, std::runtime_error);
}

// ---------------------------------------------------- cross-seed property

class CrossSeedProperty : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossSeedProperty, FiferNeverBeatenByBlineOnContainers) {
  auto make = [&](const RmConfig& rm) {
    ExperimentParams p;
    p.rm = rm;
    p.rm.idle_timeout_ms = minutes(1.0);
    p.mix = WorkloadMix::medium();
    p.trace = poisson_trace(150.0, 12.0);
    p.seed = GetParam();
    p.warmup_ms = seconds(50.0);
    p.train.epochs = 4;
    return p;
  };
  const auto bline = run_experiment(make(RmConfig::bline()));
  const auto fifer = run_experiment(make(RmConfig::fifer()));
  EXPECT_LT(fifer.containers_spawned, bline.containers_spawned) << GetParam();
  EXPECT_LT(fifer.avg_active_containers, bline.avg_active_containers);
  EXPECT_LE(fifer.energy_joules, bline.energy_joules);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossSeedProperty, testing::Values(2u, 71u, 9001u));

// ----------------------------------------------- LSF profile sanity checks

TEST(LsfProfiles, EarlierStagesHaveSmallerKeys) {
  // Remaining busy time shrinks along the chain, so for one job the LSF key
  // (deadline - suffix busy) grows with the stage index: a job deep in its
  // chain is *less* urgent at its current stage than it was at stage 0
  // given equal wall-clock time left.
  const auto services = MicroserviceRegistry::djinn_tonic();
  const auto apps = ApplicationRegistry::paper_chains();
  const ProfileBook book(WorkloadMix::heavy(), apps, services, RmConfig::fifer());
  const auto& df = book.app("DetectFatigue");
  Job job;
  job.app = df.app;
  job.arrival = 0.0;
  for (std::size_t i = 1; i < df.suffix_busy_ms.size(); ++i) {
    const double key_prev = job.deadline() - df.suffix_busy_ms[i - 1];
    const double key_cur = job.deadline() - df.suffix_busy_ms[i];
    EXPECT_GT(key_cur, key_prev);
  }
}

}  // namespace
}  // namespace fifer
