// Summary statistics helpers used by engines (imbalance diagnostics),
// the analysis pipeline, and the experiment harnesses.
#pragma once

#include <cstddef>
#include <vector>

namespace g10 {

/// Streaming mean/variance via Welford's algorithm, plus min/max.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }
  double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Percentile with linear interpolation (q in [0, 1]); copies and sorts.
/// Returns 0 for an empty input.
double percentile(std::vector<double> values, double q);

/// Median convenience wrapper.
double median(std::vector<double> values);

/// Several percentiles from one sort. Each q must be in [0, 1]; an empty
/// input yields all zeros (matching percentile()).
std::vector<double> quantiles(std::vector<double> values,
                              const std::vector<double>& qs);

/// A two-sided confidence interval, clamped to [0, 1] for proportions.
struct ConfidenceInterval {
  double low = 0.0;
  double high = 1.0;

  bool operator==(const ConfidenceInterval&) const = default;
};

/// Wilson score interval for a binomial proportion: `successes` hits out of
/// `trials`, at critical value z (1.96 ~ 95%). Well-behaved at the extremes
/// (0/n and n/n stay inside [0, 1], unlike the normal approximation).
/// With trials == 0 there is no information: returns [0, 1].
ConfidenceInterval wilson_interval(std::size_t successes, std::size_t trials,
                                   double z = 1.96);

}  // namespace g10
