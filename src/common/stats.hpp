#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fifer {

/// Streaming mean / variance accumulator (Welford's algorithm).
///
/// Used for online load statistics in the load monitor and for summarising
/// latency populations without retaining every sample.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other);

  void reset() { *this = RunningStats{}; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Retains all samples and answers order statistics (median, P95, P99, ...).
///
/// The paper reports median / P95 / P99 / CDF latencies; those require the
/// full sample set, so this is a deliberate retain-everything container with
/// lazy sorting.
class Percentiles {
 public:
  void add(double x);
  void add_all(const std::vector<double>& xs);

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Linear-interpolated quantile; `q` in [0, 1]. Returns 0 when empty.
  double quantile(double q) const;

  double median() const { return quantile(0.50); }
  double p95() const { return quantile(0.95); }
  double p99() const { return quantile(0.99); }
  double p999() const { return quantile(0.999); }
  double min() const { return quantile(0.0); }
  double max() const { return quantile(1.0); }
  double mean() const;

  /// Evaluates the empirical CDF at `points` evenly spaced quantiles,
  /// returning (value, cumulative_probability) pairs — the series behind the
  /// paper's Figure 10a.
  std::vector<std::pair<double, double>> cdf(std::size_t points = 100) const;

  const std::vector<double>& sorted_samples() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Constant-memory streaming quantile estimator (Jain & Chlamtac's P-square
/// algorithm): five markers track one target quantile without retaining
/// samples. Used where Percentiles' retain-everything policy is too heavy —
/// e.g. tail tracking inside very long full-scale simulations.
class P2Quantile {
 public:
  /// `q` in (0, 1), e.g. 0.99 for a P99 tracker.
  explicit P2Quantile(double q);

  void add(double x);

  std::size_t count() const { return n_; }
  /// Current estimate; exact while fewer than 5 samples have arrived.
  double value() const;

 private:
  double parabolic(int i, double d) const;
  double linear(int i, double d) const;

  double q_;
  std::size_t n_ = 0;
  double heights_[5] = {0, 0, 0, 0, 0};   // marker heights
  double positions_[5] = {1, 2, 3, 4, 5};  // actual marker positions
  double desired_[5] = {0, 0, 0, 0, 0};    // desired marker positions
  double increment_[5] = {0, 0, 0, 0, 0};  // desired-position increments
};

/// Root-mean-squared error between two equally-sized series; the metric the
/// paper uses to rank prediction models (Figure 6a).
double rmse(const std::vector<double>& actual, const std::vector<double>& predicted);

/// Mean absolute error between two equally-sized series.
double mae(const std::vector<double>& actual, const std::vector<double>& predicted);

}  // namespace fifer
