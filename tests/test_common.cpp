// Unit tests for src/common: statistics, RNG, config, table, CSV, logging.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/config.hpp"
#include "common/csv.hpp"
#include "common/inline_function.hpp"
#include "common/logging.hpp"
#include "common/slab.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace fifer {
namespace {

// ---------------------------------------------------------------- types

TEST(Types, TimeConversions) {
  EXPECT_DOUBLE_EQ(seconds(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(minutes(2.0), 120'000.0);
  EXPECT_DOUBLE_EQ(milliseconds(5.0), 5.0);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3.5)), 3.5);
}

TEST(Types, StrongIdsRoundTrip) {
  const auto j = static_cast<JobId>(42u);
  EXPECT_EQ(value_of(j), 42u);
  const auto n = static_cast<NodeId>(7u);
  EXPECT_EQ(value_of(n), 7u);
}

// ---------------------------------------------------------------- stats

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.normal(10.0, 3.0);
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  const double mean = a.mean();
  a.merge(b);  // no-op
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  b.merge(a);  // copy
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(Percentiles, QuantileInterpolation) {
  Percentiles p;
  for (const double v : {10.0, 20.0, 30.0, 40.0}) p.add(v);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 40.0);
  EXPECT_DOUBLE_EQ(p.median(), 25.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0 / 3.0), 20.0);
}

TEST(Percentiles, EmptyReturnsZero) {
  Percentiles p;
  EXPECT_DOUBLE_EQ(p.median(), 0.0);
  EXPECT_DOUBLE_EQ(p.p99(), 0.0);
  EXPECT_TRUE(p.cdf().empty());
}

TEST(Percentiles, CdfIsMonotone) {
  Percentiles p;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) p.add(rng.exponential(0.01));
  const auto cdf = p.cdf(50);
  ASSERT_EQ(cdf.size(), 50u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Percentiles, AddAllAndMean) {
  Percentiles p;
  p.add_all({1.0, 2.0, 3.0});
  EXPECT_EQ(p.count(), 3u);
  EXPECT_DOUBLE_EQ(p.mean(), 2.0);
}

TEST(Percentiles, P999SitsBetweenP99AndMax) {
  Percentiles p;
  // 0..999 uniformly: p99.9 interpolates inside the last sample gap.
  for (int i = 0; i < 1000; ++i) p.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(p.p999(), 999.0 * 0.999);
  EXPECT_GT(p.p999(), p.p99());
  EXPECT_LT(p.p999(), p.max());
}

TEST(ErrorMetrics, RmseAndMae) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{1.0, 4.0, 1.0};
  EXPECT_NEAR(rmse(a, b), std::sqrt((0.0 + 4.0 + 4.0) / 3.0), 1e-12);
  EXPECT_NEAR(mae(a, b), (0.0 + 2.0 + 2.0) / 3.0, 1e-12);
  EXPECT_THROW(rmse(a, {1.0}), std::invalid_argument);
  EXPECT_THROW(mae(a, {1.0}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(rmse({}, {}), 0.0);
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, SplitStreamsAreIndependentAndStable) {
  Rng parent1(55), parent2(55);
  Rng c1 = parent1.split(9);
  Rng c2 = parent2.split(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(5.0, 6.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 6.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(10);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo |= v == 1;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(50.0, 5.0));
  EXPECT_NEAR(s.mean(), 50.0, 0.25);
  EXPECT_NEAR(s.stddev(), 5.0, 0.2);
}

TEST(Rng, TruncatedNormalNeverBelowFloor) {
  Rng rng(12);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(rng.truncated_normal(1.0, 5.0, 0.5), 0.5);
  }
}

TEST(Rng, PoissonMeanApproximatelyCorrect) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(static_cast<double>(rng.poisson(7.0)));
  EXPECT_NEAR(s.mean(), 7.0, 0.15);
}

// --------------------------------------------------------------- config

TEST(Config, ParsesTypes) {
  const char* argv[] = {"prog", "alpha=1.5", "count=42", "name=fifer", "on=true"};
  const Config cfg = Config::from_args(5, argv);
  EXPECT_DOUBLE_EQ(cfg.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(cfg.get_int("count", 0), 42);
  EXPECT_EQ(cfg.get_string("name", ""), "fifer");
  EXPECT_TRUE(cfg.get_bool("on", false));
}

TEST(Config, FallbacksWhenMissing) {
  const Config cfg = Config::from_string("");
  EXPECT_DOUBLE_EQ(cfg.get_double("x", 2.5), 2.5);
  EXPECT_EQ(cfg.get_int("y", -1), -1);
  EXPECT_FALSE(cfg.get_bool("z", false));
}

TEST(Config, RejectsMalformedArguments) {
  const char* argv1[] = {"prog", "novalue"};
  EXPECT_THROW(Config::from_args(2, argv1), std::invalid_argument);
  const char* argv2[] = {"prog", "=x"};
  EXPECT_THROW(Config::from_args(2, argv2), std::invalid_argument);
}

TEST(Config, RejectsBadTypeValues) {
  const Config cfg = Config::from_string("a=abc b=1.5x c=maybe");
  EXPECT_THROW(cfg.get_double("a", 0.0), std::invalid_argument);
  EXPECT_THROW(cfg.get_int("b", 0), std::invalid_argument);
  EXPECT_THROW(cfg.get_bool("c", false), std::invalid_argument);
}

TEST(Config, TracksUnusedKeys) {
  const Config cfg = Config::from_string("used=1 typo_key=2");
  (void)cfg.get_int("used", 0);
  const auto unused = cfg.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo_key");
}

TEST(Config, BoolSynonyms) {
  const Config cfg = Config::from_string("a=YES b=off c=1 d=False");
  EXPECT_TRUE(cfg.get_bool("a", false));
  EXPECT_FALSE(cfg.get_bool("b", true));
  EXPECT_TRUE(cfg.get_bool("c", false));
  EXPECT_FALSE(cfg.get_bool("d", true));
}

// ------------------------------------------------------------ cli flags

std::vector<CliFlag> test_flags() {
  return {
      {"--jobs", "jobs", /*takes_value=*/true, "", "", ""},
      {"--live", "live", /*takes_value=*/false, "100", "", ""},
  };
}

TEST(CliFlags, CanonicalizesKnownFlagSpellings) {
  const char* argv[] = {"prog", "--jobs", "4", "--jobs=8", "policy=fifer"};
  const auto out = canonicalize_flags(5, argv, test_flags());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "jobs=4");        // separate-token value
  EXPECT_EQ(out[1], "jobs=8");        // inline value
  EXPECT_EQ(out[2], "policy=fifer");  // key=value passes through untouched
}

TEST(CliFlags, ValueOptionalFlagEmitsImplicitValue) {
  const char* bare[] = {"prog", "--live"};
  EXPECT_EQ(canonicalize_flags(2, bare, test_flags()).at(0), "live=100");
  // An explicit value always wins over the implicit one, and a bare
  // value-optional flag must NOT consume the next token.
  const char* inline_v[] = {"prog", "--live=50", "--live", "lambda=5"};
  const auto out = canonicalize_flags(4, inline_v, test_flags());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "live=50");
  EXPECT_EQ(out[1], "live=100");
  EXPECT_EQ(out[2], "lambda=5");
}

TEST(CliFlags, UnknownFlagFailsFast) {
  const char* argv[] = {"prog", "--frobnicate"};
  EXPECT_THROW(canonicalize_flags(2, argv, test_flags()), CliError);
  // `--live=` (empty inline value) is not a match either — it's a typo.
  const char* empty[] = {"prog", "--live="};
  EXPECT_THROW(canonicalize_flags(2, empty, test_flags()), CliError);
  const char* dash[] = {"prog", "-j"};
  EXPECT_THROW(canonicalize_flags(2, dash, test_flags()), CliError);
}

TEST(CliFlags, MissingRequiredValueFailsFast) {
  const char* argv[] = {"prog", "--jobs"};
  EXPECT_THROW(canonicalize_flags(2, argv, test_flags()), CliError);
}

TEST(CliFlags, BareWordWithoutEqualsFailsFast) {
  const char* argv[] = {"prog", "fifer"};
  EXPECT_THROW(canonicalize_flags(2, argv, test_flags()), CliError);
  // CliError is a runtime_error: top-level catch blocks that print usage and
  // exit 2 can catch either spelling.
  const char* typo[] = {"prog", "polcy"};
  EXPECT_THROW(canonicalize_flags(2, typo, test_flags()), std::runtime_error);
}

TEST(CliFlags, UsageTextRendersEveryFlagShape) {
  const std::vector<CliFlag> flags = {
      {"--jobs", "jobs", true, "", "N", "sweep worker threads"},
      {"--live", "live", false, "100", "SCALE", "live runtime at SCALE-fold\ncompression"},
      {"--verbose", "verbose", false, "true", "", "chatty logging"},
  };
  const std::string u = usage_text(flags);
  // Required value, optional value, and pure-boolean spellings.
  EXPECT_NE(u.find("  --jobs N "), std::string::npos) << u;
  EXPECT_NE(u.find("  --live[=SCALE] "), std::string::npos) << u;
  EXPECT_NE(u.find("  --verbose "), std::string::npos) << u;
  EXPECT_NE(u.find("chatty logging"), std::string::npos) << u;
  // Help text lands on the same line as its flag; embedded newlines
  // continue on their own (aligned) line.
  const std::size_t jobs_at = u.find("--jobs N");
  const std::size_t jobs_help = u.find("sweep worker threads");
  ASSERT_NE(jobs_help, std::string::npos);
  EXPECT_EQ(u.substr(jobs_at, jobs_help - jobs_at).find('\n'),
            std::string::npos);
  const std::size_t cont = u.find("\ncompression");
  ASSERT_EQ(cont, std::string::npos);  // continuation must be indented
  EXPECT_NE(u.find("compression"), std::string::npos);
  // One line per flag plus one continuation line.
  std::size_t lines = 0;
  for (char c : u) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 4u);
}

TEST(CliFlags, UsageTextAlignsHelpColumn) {
  const std::vector<CliFlag> flags = {
      {"--a", "a", true, "", "N", "first"},
      {"--long-flag", "b", true, "", "VALUE", "second"},
  };
  const std::string u = usage_text(flags);
  // Both help strings start at the same column.
  const std::size_t line2 = u.find('\n') + 1;
  EXPECT_EQ(u.find("first"), u.find("second") - line2);
}

// ---------------------------------------------------------------- table

TEST(Table, RendersHeadersAndRows) {
  Table t("demo");
  t.set_columns({"policy", "value"});
  t.add_row({"fifer", "1.00"});
  t.add_row("bline", {2.5}, 1);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("policy"), std::string::npos);
  EXPECT_NE(out.find("fifer"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(Table, FmtShowsAnUndefinedValueAsNa) {
  EXPECT_EQ(fmt(std::numeric_limits<double>::quiet_NaN(), 2), "n/a");
  EXPECT_EQ(fmt(100.0 - std::numeric_limits<double>::quiet_NaN(), 2), "n/a");
}

TEST(Table, EmptyTablePrintsNothing) {
  Table t;
  std::ostringstream os;
  t.print(os);
  EXPECT_TRUE(os.str().empty());
}

// ------------------------------------------------------------------ csv

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRowsAndValidatesWidth) {
  const std::string path = testing::TempDir() + "/fifer_csv_test.csv";
  {
    CsvWriter w(path, {"a", "b"});
    w.write_row(std::vector<std::string>{"1", "x,y"});
    w.write_row(std::vector<double>{2.5, 3.0});
    EXPECT_EQ(w.rows_written(), 2u);
    EXPECT_THROW(w.write_row(std::vector<std::string>{"only-one"}),
                 std::invalid_argument);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");
  std::remove(path.c_str());
}

// -------------------------------------------------------------- logging

TEST(Logging, RespectsLevel) {
  std::ostringstream sink;
  Logging::set_sink(&sink);
  Logging::set_level(LogLevel::kWarn);
  FIFER_LOG(kInfo) << "hidden";
  FIFER_LOG(kWarn) << "visible " << 42;
  Logging::set_sink(nullptr);
  Logging::set_level(LogLevel::kWarn);
  const std::string out = sink.str();
  EXPECT_EQ(out.find("hidden"), std::string::npos);
  EXPECT_NE(out.find("visible 42"), std::string::npos);
}

TEST(Logging, OffSilencesEverything) {
  std::ostringstream sink;
  Logging::set_sink(&sink);
  Logging::set_level(LogLevel::kOff);
  FIFER_LOG(kError) << "nope";
  Logging::set_sink(nullptr);
  Logging::set_level(LogLevel::kWarn);
  EXPECT_TRUE(sink.str().empty());
}

// ------------------------------------------------------------------ slab

TEST(Slab, EmplaceGetErase) {
  Slab<int> s;
  EXPECT_TRUE(s.empty());
  const auto h = s.emplace(7);
  EXPECT_EQ(s.size(), 1u);
  ASSERT_NE(s.get(h), nullptr);
  EXPECT_EQ(*s.get(h), 7);
  EXPECT_EQ(s[h], 7);
  EXPECT_TRUE(s.erase(h));
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.get(h), nullptr);   // stale handle dereferences to null
  EXPECT_FALSE(s.erase(h));       // double erase is a no-op
}

TEST(Slab, StaleHandleDoesNotAliasSlotReuse) {
  Slab<int> s;
  const auto old_h = s.emplace(1);
  ASSERT_TRUE(s.erase(old_h));
  const auto new_h = s.emplace(2);  // freelist reuses the same slot...
  EXPECT_EQ(new_h.index, old_h.index);
  EXPECT_NE(new_h.gen, old_h.gen);  // ...under a new generation
  EXPECT_EQ(s.get(old_h), nullptr);
  ASSERT_NE(s.get(new_h), nullptr);
  EXPECT_EQ(*s.get(new_h), 2);
}

TEST(Slab, IterationIsInsertionOrderAcrossSlotReuse) {
  // The determinism contract: iteration must match the vector fleet this
  // replaced — push_back order, erase preserves the relative order of
  // survivors, and a reused slot re-enters at the *tail*.
  Slab<int> s;
  std::vector<SlabHandle<int>> hs;
  for (int v = 0; v < 5; ++v) hs.push_back(s.emplace(v));
  s.erase(hs[1]);
  s.erase(hs[3]);
  s.emplace(10);  // reuses slot 3, but iterates last
  s.emplace(11);  // reuses slot 1, but iterates last
  std::vector<int> seen;
  for (const int v : s) seen.push_back(v);
  EXPECT_EQ(seen, (std::vector<int>{0, 2, 4, 10, 11}));
}

TEST(Slab, PointerStabilityAcrossChunkGrowth) {
  Slab<int> s;
  const auto first = s.emplace(42);
  const int* p = s.get(first);
  for (int i = 0; i < 1000; ++i) s.emplace(i);  // many chunk allocations
  EXPECT_EQ(s.get(first), p);
  EXPECT_EQ(*p, 42);
}

TEST(Slab, IteratorHandleRoundTripsAfterInterleavedErases) {
  Slab<int> s;
  std::vector<Slab<int>::Handle> hs;
  for (int v = 0; v < 6; ++v) hs.push_back(s.emplace(v));
  // An iterator's handle() must address the same element get() returns.
  for (auto it = s.begin(); it != s.end(); ++it) {
    EXPECT_EQ(s.get(it.handle()), &*it);
  }
  EXPECT_TRUE(s.erase(hs[0]));
  EXPECT_TRUE(s.erase(hs[4]));
  for (auto it = s.begin(); it != s.end(); ++it) {
    EXPECT_EQ(s.get(it.handle()), &*it);
  }
}

TEST(Slab, EraseIfCompactsInOnePassPreservingOrder) {
  Slab<int> s;
  for (int v = 0; v < 6; ++v) s.emplace(v);
  // The stage reaper's pattern: drop the matching elements mid-scan via the
  // bulk compaction pass (single erases invalidate iterators).
  EXPECT_EQ(s.erase_if([](int v) { return v % 2 == 0; }), 3u);
  std::vector<int> seen;
  for (const int v : s) seen.push_back(v);
  EXPECT_EQ(seen, (std::vector<int>{1, 3, 5}));
  // Freed slots recycle, and the survivors stay ahead of new arrivals.
  s.emplace(7);
  seen.clear();
  for (const int v : s) seen.push_back(v);
  EXPECT_EQ(seen, (std::vector<int>{1, 3, 5, 7}));
}

TEST(Slab, NonMovableElements) {
  struct Pinned {
    explicit Pinned(int v) : value(v) {}
    Pinned(const Pinned&) = delete;
    Pinned& operator=(const Pinned&) = delete;
    int value;
  };
  Slab<Pinned> s;
  const auto h = s.emplace(9);
  EXPECT_EQ(s.get(h)->value, 9);
}

TEST(Slab, DestructorsRunOnClear) {
  static int live = 0;
  struct Counted {
    Counted() { ++live; }
    ~Counted() { --live; }
  };
  {
    Slab<Counted> s;
    const auto a = s.emplace();
    s.emplace();
    s.emplace();
    EXPECT_EQ(live, 3);
    s.erase(a);
    EXPECT_EQ(live, 2);
  }
  EXPECT_EQ(live, 0);
}

// ------------------------------------------------------- inline function

TEST(InlineFunction, InvokesAndReportsEngaged) {
  InlineFunction<int(int)> f = [](int x) { return x + 1; };
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_EQ(f(41), 42);
}

TEST(InlineFunction, EmptyThrowsBadFunctionCall) {
  InlineFunction<void()> f;
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_THROW(f(), std::bad_function_call);
}

TEST(InlineFunction, MoveTransfersOwnershipAndState) {
  int hits = 0;
  InlineFunction<void()> a = [&hits] { ++hits; };
  InlineFunction<void()> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(hits, 1);
  a = std::move(b);
  a();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, DestroysCaptureExactlyOnce) {
  static int live = 0;
  struct Token {
    Token() { ++live; }
    Token(Token&&) noexcept { ++live; }
    Token(const Token& other) = delete;
    ~Token() { --live; }
  };
  {
    InlineFunction<void()> f = [t = Token()] { (void)t; };
    EXPECT_EQ(live, 1);
    InlineFunction<void()> g = std::move(f);
    EXPECT_EQ(live, 1);  // relocate = move + destroy source
  }
  EXPECT_EQ(live, 0);
}

TEST(InlineFunction, CapturesUpToCapacity) {
  // The event loop's largest capture is 40 bytes; prove headroom exists at
  // the configured 64-byte capacity.
  struct Fat {
    double a, b, c, d;
    double* out;
  };
  double sink = 0.0;
  Fat fat{1.0, 2.0, 3.0, 4.0, &sink};
  InlineFunction<void(), 64> f = [fat] { *fat.out = fat.a + fat.b + fat.c + fat.d; };
  f();
  EXPECT_DOUBLE_EQ(sink, 10.0);
}

}  // namespace
}  // namespace fifer
