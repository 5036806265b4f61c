#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

namespace fifer {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  mean_ += delta * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  n_ += other.n_;
}

void Percentiles::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void Percentiles::add_all(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

const std::vector<double>& Percentiles::sorted_samples() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  return samples_;
}

double Percentiles::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  const auto& s = sorted_samples();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return s[lo] + (s[hi] - s[lo]) * frac;
}

double Percentiles::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> Percentiles::cdf(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points == 0) return out;
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i + 1) / static_cast<double>(points);
    out.emplace_back(quantile(q), q);
  }
  return out;
}

P2Quantile::P2Quantile(double q) : q_(q) {
  if (q <= 0.0 || q >= 1.0) {
    throw std::invalid_argument("P2Quantile: q must be in (0, 1)");
  }
  desired_[0] = 1.0;
  desired_[1] = 1.0 + 2.0 * q;
  desired_[2] = 1.0 + 4.0 * q;
  desired_[3] = 3.0 + 2.0 * q;
  desired_[4] = 5.0;
  increment_[0] = 0.0;
  increment_[1] = q / 2.0;
  increment_[2] = q;
  increment_[3] = (1.0 + q) / 2.0;
  increment_[4] = 1.0;
}

double P2Quantile::parabolic(int i, double d) const {
  const double num1 = positions_[i] - positions_[i - 1] + d;
  const double num2 = positions_[i + 1] - positions_[i] - d;
  const double den1 = heights_[i + 1] - heights_[i];
  const double den2 = heights_[i] - heights_[i - 1];
  return heights_[i] +
         d / (positions_[i + 1] - positions_[i - 1]) *
             (num1 * den1 / (positions_[i + 1] - positions_[i]) +
              num2 * den2 / (positions_[i] - positions_[i - 1]));
}

double P2Quantile::linear(int i, double d) const {
  const int j = i + static_cast<int>(d);
  return heights_[i] + d * (heights_[j] - heights_[i]) /
                           (positions_[j] - positions_[i]);
}

void P2Quantile::add(double x) {
  if (n_ < 5) {
    heights_[n_++] = x;
    if (n_ == 5) std::sort(heights_, heights_ + 5);
    return;
  }

  int k;  // cell the observation falls into
  if (x < heights_[0]) {
    heights_[0] = x;
    k = 0;
  } else if (x >= heights_[4]) {
    heights_[4] = x;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && x >= heights_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += increment_[i];

  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    if ((d >= 1.0 && positions_[i + 1] - positions_[i] > 1.0) ||
        (d <= -1.0 && positions_[i - 1] - positions_[i] < -1.0)) {
      const double step = d >= 0 ? 1.0 : -1.0;
      double candidate = parabolic(i, step);
      if (candidate <= heights_[i - 1] || candidate >= heights_[i + 1]) {
        candidate = linear(i, step);
      }
      heights_[i] = candidate;
      positions_[i] += step;
    }
  }
  ++n_;
}

double P2Quantile::value() const {
  if (n_ == 0) return 0.0;
  if (n_ < 5) {
    // Exact small-sample quantile over the sorted prefix.
    double tmp[5];
    std::copy(heights_, heights_ + n_, tmp);
    std::sort(tmp, tmp + n_);
    const double pos = q_ * static_cast<double>(n_ - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, n_ - 1);
    return tmp[lo] + (tmp[hi] - tmp[lo]) * (pos - static_cast<double>(lo));
  }
  return heights_[2];
}

double rmse(const std::vector<double>& actual, const std::vector<double>& predicted) {
  if (actual.size() != predicted.size()) {
    throw std::invalid_argument("rmse: series size mismatch");
  }
  if (actual.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const double d = actual[i] - predicted[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(actual.size()));
}

double mae(const std::vector<double>& actual, const std::vector<double>& predicted) {
  if (actual.size() != predicted.size()) {
    throw std::invalid_argument("mae: series size mismatch");
  }
  if (actual.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    acc += std::abs(actual[i] - predicted[i]);
  }
  return acc / static_cast<double>(actual.size());
}

}  // namespace fifer
