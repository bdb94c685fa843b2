#include "common/step_function.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"

namespace g10 {
namespace {

TEST(StepFunctionTest, EmptyFunctionIsZero) {
  StepFunction f;
  EXPECT_DOUBLE_EQ(f.value_at(0), 0.0);
  EXPECT_DOUBLE_EQ(f.value_at(1000), 0.0);
  EXPECT_DOUBLE_EQ(f.integrate(0, 1000), 0.0);
  EXPECT_TRUE(f.empty());
}

TEST(StepFunctionTest, AddAccumulates) {
  StepFunction f;
  f.add(10, 2.0);
  f.add(20, 3.0);
  f.add(30, -2.0);
  EXPECT_DOUBLE_EQ(f.value_at(5), 0.0);
  EXPECT_DOUBLE_EQ(f.value_at(10), 2.0);
  EXPECT_DOUBLE_EQ(f.value_at(25), 5.0);
  EXPECT_DOUBLE_EQ(f.value_at(30), 3.0);
  EXPECT_DOUBLE_EQ(f.value_at(1000), 3.0);
}

TEST(StepFunctionTest, IntegrateAcrossBreakpoints) {
  StepFunction f;
  f.add(0, 1.0);
  f.add(10, 1.0);  // value 2 from t=10
  // [0,10) at 1, [10,20) at 2 -> 10 + 20 = 30.
  EXPECT_DOUBLE_EQ(f.integrate(0, 20), 30.0);
  EXPECT_DOUBLE_EQ(f.integrate(5, 15), 5.0 + 10.0);
  EXPECT_DOUBLE_EQ(f.average(0, 20), 1.5);
}

TEST(StepFunctionTest, IntegratePartiallyBeforeFirstBreakpoint) {
  StepFunction f;
  f.add(100, 4.0);
  EXPECT_DOUBLE_EQ(f.integrate(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(f.integrate(50, 150), 200.0);
}

TEST(StepFunctionTest, SetOverridesValue) {
  StepFunction f;
  f.set(0, 5.0);
  f.set(10, 0.0);
  f.set(20, 3.0);
  EXPECT_DOUBLE_EQ(f.value_at(5), 5.0);
  EXPECT_DOUBLE_EQ(f.value_at(15), 0.0);
  EXPECT_DOUBLE_EQ(f.value_at(25), 3.0);
  EXPECT_DOUBLE_EQ(f.integrate(0, 30), 50.0 + 0.0 + 30.0);
}

TEST(StepFunctionTest, OutOfOrderAddShiftsSuffix) {
  StepFunction f;
  f.add(10, 1.0);
  f.add(30, 1.0);
  f.add(20, 5.0);  // out of order
  EXPECT_DOUBLE_EQ(f.value_at(10), 1.0);
  EXPECT_DOUBLE_EQ(f.value_at(20), 6.0);
  EXPECT_DOUBLE_EQ(f.value_at(30), 7.0);
}

TEST(StepFunctionTest, OutOfOrderAddAtExistingBreakpoint) {
  StepFunction f;
  f.add(10, 1.0);
  f.add(30, 1.0);
  f.add(10, 2.0);  // merge into existing breakpoint... via out-of-order path
  EXPECT_DOUBLE_EQ(f.value_at(10), 3.0);
  EXPECT_DOUBLE_EQ(f.value_at(30), 4.0);
}

TEST(StepFunctionTest, MaxOverWindow) {
  StepFunction f;
  f.set(0, 1.0);
  f.set(10, 7.0);
  f.set(20, 3.0);
  EXPECT_DOUBLE_EQ(f.max_over(0, 30), 7.0);
  EXPECT_DOUBLE_EQ(f.max_over(0, 10), 1.0);
  EXPECT_DOUBLE_EQ(f.max_over(15, 30), 7.0);  // value at 15 is 7
  EXPECT_DOUBLE_EQ(f.max_over(20, 30), 3.0);
}

TEST(StepFunctionTest, CompactMergesEqualRuns) {
  StepFunction f;
  f.set(0, 1.0);
  f.set(10, 1.0);
  f.set(20, 2.0);
  f.set(30, 2.0);
  f.compact();
  EXPECT_EQ(f.breakpoint_count(), 2u);
  EXPECT_DOUBLE_EQ(f.value_at(15), 1.0);
  EXPECT_DOUBLE_EQ(f.value_at(35), 2.0);
}

TEST(StepFunctionTest, LastChange) {
  StepFunction f;
  EXPECT_EQ(f.last_change(), 0);
  f.add(42, 1.0);
  EXPECT_EQ(f.last_change(), 42);
}

TEST(StepFunctionTest, ClampedSumMergesAndClamps) {
  StepFunction a;
  a.set(0, 2.0);
  a.set(20, 0.0);
  StepFunction b;
  b.set(10, 3.0);
  b.set(30, 1.0);
  const StepFunction sum = StepFunction::clamped_sum(a, b, 4.0);
  EXPECT_DOUBLE_EQ(sum.value_at(5), 2.0);
  EXPECT_DOUBLE_EQ(sum.value_at(15), 4.0);  // 2 + 3 clamped to 4
  EXPECT_DOUBLE_EQ(sum.value_at(25), 3.0);  // 0 + 3
  EXPECT_DOUBLE_EQ(sum.value_at(35), 1.0);  // 0 + 1
}

TEST(StepFunctionTest, ClampedSumWithEmptyOperand) {
  StepFunction a;
  a.set(0, 1.5);
  const StepFunction sum = StepFunction::clamped_sum(a, StepFunction(), 4.0);
  EXPECT_DOUBLE_EQ(sum.value_at(10), 1.5);
  const StepFunction sum2 =
      StepFunction::clamped_sum(StepFunction(), StepFunction(), 4.0);
  EXPECT_DOUBLE_EQ(sum2.value_at(0), 0.0);
}

TEST(StepFunctionTest, ClampedSumFloorsCancellationResidueAtZero) {
  // Removing fractional intensities in a different grouping than they were
  // added leaves a tiny negative residue instead of exact zero; summed with
  // an idle noise walk it must not surface as negative usage.
  StepFunction a;
  a.set(0, 0.3);
  a.set(10, 0.3 - 0.1 - 0.2);
  ASSERT_LT(a.value_at(10), 0.0);
  StepFunction idle;
  idle.set(5, 0.0);
  const StepFunction sum = StepFunction::clamped_sum(a, idle, 4.0);
  EXPECT_DOUBLE_EQ(sum.value_at(0), 0.3);
  EXPECT_EQ(sum.value_at(10), 0.0);
  for (const double v : sum.values()) EXPECT_GE(v, 0.0);
}

class ClampedSumPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ClampedSumPropertyTest, MatchesPointwiseDefinition) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 37);
  StepFunction a;
  StepFunction b;
  TimeNs ta = 0;
  TimeNs tb = 0;
  for (int i = 0; i < 30; ++i) {
    ta += rng.next_int(1, 10);
    tb += rng.next_int(1, 10);
    a.set(ta, rng.next_double(0.0, 5.0));
    b.set(tb, rng.next_double(0.0, 5.0));
  }
  const double cap = 6.0;
  const StepFunction sum = StepFunction::clamped_sum(a, b, cap);
  for (TimeNs t = 0; t < 300; t += 3) {
    EXPECT_NEAR(sum.value_at(t),
                std::clamp(a.value_at(t) + b.value_at(t), 0.0, cap), 1e-12)
        << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClampedSumPropertyTest, ::testing::Range(1, 6));

// Property: integrate() computed on random functions matches a brute-force
// per-unit-time sum.
class StepFunctionPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(StepFunctionPropertyTest, IntegralMatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  StepFunction f;
  TimeNs t = 0;
  for (int i = 0; i < 50; ++i) {
    t += rng.next_int(1, 20);
    f.add(t, rng.next_double(-2.0, 3.0));
  }
  const TimeNs horizon = t + 10;
  for (int trial = 0; trial < 20; ++trial) {
    const TimeNs a = rng.next_int(0, horizon - 1);
    const TimeNs b = rng.next_int(a + 1, horizon);
    double brute = 0.0;
    for (TimeNs u = a; u < b; ++u) brute += f.value_at(u);
    EXPECT_NEAR(f.integrate(a, b), brute, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StepFunctionPropertyTest,
                         ::testing::Range(1, 6));

}  // namespace
}  // namespace g10
