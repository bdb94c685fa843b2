#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace g10 {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStatsTest, MatchesDirectComputation) {
  RunningStats s;
  const double values[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double v : values) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  // Sample variance with n-1: sum of squared deviations = 32 -> 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStatsTest, SingleValueHasZeroVariance) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(PercentileTest, EmptyIsZero) { EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0); }

TEST(PercentileTest, MedianOfOddCount) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(PercentileTest, MedianInterpolatesEvenCount) {
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(PercentileTest, Extremes) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
}

TEST(PercentileTest, LinearInterpolation) {
  // p25 of {0, 10, 20, 30}: position 0.75 -> 7.5.
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0, 20.0, 30.0}, 0.25), 7.5);
}

TEST(QuantilesTest, EmptyInputYieldsZeros) {
  const auto qs = quantiles({}, {0.0, 0.5, 1.0});
  ASSERT_EQ(qs.size(), 3u);
  for (double q : qs) EXPECT_DOUBLE_EQ(q, 0.0);
}

TEST(QuantilesTest, SingleValueIsEveryQuantile) {
  const auto qs = quantiles({3.5}, {0.0, 0.25, 0.5, 1.0});
  for (double q : qs) EXPECT_DOUBLE_EQ(q, 3.5);
}

TEST(QuantilesTest, AllEqualValues) {
  const auto qs = quantiles({2.0, 2.0, 2.0, 2.0}, {0.1, 0.5, 0.9});
  for (double q : qs) EXPECT_DOUBLE_EQ(q, 2.0);
}

TEST(QuantilesTest, MatchesPercentileFromOneSort) {
  const std::vector<double> v{5.0, 1.0, 3.0, 8.0, 2.0};
  const std::vector<double> probes{0.0, 0.25, 0.5, 0.75, 0.9, 1.0};
  const auto qs = quantiles(v, probes);
  ASSERT_EQ(qs.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_DOUBLE_EQ(qs[i], percentile(v, probes[i]));
  }
}

TEST(WilsonIntervalTest, NoTrialsIsVacuous) {
  const auto ci = wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(ci.low, 0.0);
  EXPECT_DOUBLE_EQ(ci.high, 1.0);
}

TEST(WilsonIntervalTest, SingleTrialStaysInsideUnitInterval) {
  const auto hit = wilson_interval(1, 1);
  EXPECT_GE(hit.low, 0.0);
  EXPECT_LT(hit.low, 1.0);  // one success is not certainty
  EXPECT_DOUBLE_EQ(hit.high, 1.0);
  const auto miss = wilson_interval(0, 1);
  EXPECT_DOUBLE_EQ(miss.low, 0.0);
  EXPECT_GT(miss.high, 0.0);
  EXPECT_LE(miss.high, 1.0);
}

TEST(WilsonIntervalTest, ExtremeProportionsDoNotCollapse) {
  // Unlike the normal approximation, 0/n and n/n keep a nonzero width.
  const auto none = wilson_interval(0, 100);
  EXPECT_DOUBLE_EQ(none.low, 0.0);
  EXPECT_GT(none.high, 0.0);
  EXPECT_LT(none.high, 0.1);
  const auto all = wilson_interval(100, 100);
  EXPECT_DOUBLE_EQ(all.high, 1.0);
  EXPECT_GT(all.low, 0.9);
  EXPECT_LT(all.low, 1.0);
}

TEST(WilsonIntervalTest, KnownValue) {
  // 8/10 at z=1.96: standard worked example, center ~0.7166, +-0.2134...
  const auto ci = wilson_interval(8, 10);
  EXPECT_NEAR(ci.low, 0.4902, 5e-4);
  EXPECT_NEAR(ci.high, 0.9433, 5e-4);
}

TEST(WilsonIntervalTest, IntervalContainsThePointEstimate) {
  for (std::size_t n : {1u, 2u, 7u, 100u}) {
    for (std::size_t k = 0; k <= n; ++k) {
      const auto ci = wilson_interval(k, n);
      const double p = static_cast<double>(k) / static_cast<double>(n);
      // At k=0 / k=n the bound equals p exactly in real arithmetic; allow
      // for the last-ulp rounding of the floating-point evaluation.
      EXPECT_LE(ci.low, p + 1e-12);
      EXPECT_GE(ci.high, p - 1e-12);
      EXPECT_LT(ci.low, ci.high);
    }
  }
}

}  // namespace
}  // namespace g10
