#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace g10 {

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

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  G10_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  if (values.size() == 1) return values.front();
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

std::vector<double> quantiles(std::vector<double> values,
                              const std::vector<double>& qs) {
  std::vector<double> out(qs.size(), 0.0);
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const double q = qs[i];
    G10_CHECK(q >= 0.0 && q <= 1.0);
    if (values.size() == 1) {
      out[i] = values.front();
      continue;
    }
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    out[i] = values[lo] * (1.0 - frac) + values[hi] * frac;
  }
  return out;
}

ConfidenceInterval wilson_interval(std::size_t successes, std::size_t trials,
                                   double z) {
  G10_CHECK_MSG(successes <= trials, "successes cannot exceed trials");
  G10_CHECK_MSG(z > 0.0, "critical value must be positive");
  if (trials == 0) return {0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double margin =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  ConfidenceInterval out;
  out.low = std::max(0.0, center - margin);
  out.high = std::min(1.0, center + margin);
  return out;
}

}  // namespace g10
