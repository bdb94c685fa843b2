#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace g10 {
namespace {

TEST(SplitMix64Test, KnownSequenceIsStable) {
  std::uint64_t state = 0;
  const std::uint64_t a = splitmix64_next(state);
  const std::uint64_t b = splitmix64_next(state);
  EXPECT_NE(a, b);
  // Reference values of SplitMix64 seeded with 0.
  std::uint64_t check = 0;
  EXPECT_EQ(splitmix64_next(check), a);
}

// The first outputs of xoshiro256** seeded through SplitMix64. Every
// generated graph, fault schedule and noise walk depends on this stream.
TEST(RngTest, KnownSequenceIsStable) {
  struct Pin {
    std::uint64_t seed;
    std::uint64_t next[8];
    double next_double[8];
  };
  const Pin pins[] = {
      {0,
       {0x99ec5f36cb75f2b4ull, 0xbf6e1f784956452aull, 0x1a5f849d4933e6e0ull,
        0x6aa594f1262d2d2cull, 0xbba5ad4a1f842e59ull, 0xffef8375d9ebcacaull,
        0x6c160deed2f54c98ull, 0x8920ad648fc30a3full},
       {0x1.33d8be6d96ebep-1, 0x1.7edc3ef092ac8p-1, 0x1.a5f849d4933ep-4,
        0x1.aa9653c498b4ap-2, 0x1.774b5a943f085p-1, 0x1.ffdf06ebb3d79p-1,
        0x1.b05837bb4bd52p-2, 0x1.12415ac91f861p-1}},
      {1,
       {0xb3f2af6d0fc710c5ull, 0x853b559647364ceaull, 0x92f89756082a4514ull,
        0x642e1c7bc266a3a7ull, 0xb27a48e29a233673ull, 0x24c123126ffda722ull,
        0x123004ef8df510e6ull, 0x61954dcc47b1e89dull},
       {0x1.67e55eda1f8e2p-1, 0x1.0a76ab2c8e6c9p-1, 0x1.25f12eac10548p-1,
        0x1.90b871ef099a8p-2, 0x1.64f491c534466p-1, 0x1.260918937fedp-3,
        0x1.23004ef8df51p-4, 0x1.865537311ec7ap-2}},
      {2020,
       {0x2334c896b4cf8e03ull, 0x47fe724559250b1eull, 0xd307788674632026ull,
        0x0a4ae4326790208bull, 0x8dbefb73ee7fe711ull, 0x7567582265f7c78cull,
        0x18798915c6b651c2ull, 0x753179afdd073745ull},
       {0x1.19a644b5a67c4p-3, 0x1.1ff9c91564942p-2, 0x1.a60ef10ce8c64p-1,
        0x1.495c864cf204p-5, 0x1.1b7df6e7dcffcp-1, 0x1.d59d608997dfp-2,
        0x1.8798915c6b65p-4, 0x1.d4c5e6bf741ccp-2}},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.seed);
    Rng words(pin.seed);
    for (const std::uint64_t expected : pin.next) {
      EXPECT_EQ(words.next(), expected);
    }
    Rng doubles(pin.seed);
    for (const double expected : pin.next_double) {
      EXPECT_EQ(doubles.next_double(), expected);
    }
  }
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(1234);
  Rng b(1234);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double(-3.0, 5.5);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.5);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t x = rng.next_int(-2, 3);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -2);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextBoolExtremes) {
  Rng rng(10);
  EXPECT_FALSE(rng.next_bool(0.0));
  EXPECT_TRUE(rng.next_bool(1.0));
}

TEST(RngTest, NextBoolFrequencyTracksP) {
  Rng rng(11);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ExponentialMeanIsCorrect) {
  Rng rng(12);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

TEST(RngTest, NormalMomentsAreCorrect) {
  Rng rng(13);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_normal(1.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(99);
  Rng child = parent.fork();
  // Child stream differs from the parent's continued stream.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

class ZipfTest : public ::testing::TestWithParam<double> {};

TEST_P(ZipfTest, ValuesInRangeAndSkewed) {
  const double s = GetParam();
  Rng rng(42);
  const std::uint64_t n = 100;
  std::vector<int> counts(n, 0);
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t k = rng.next_zipf(n, s);
    ASSERT_LT(k, n);
    ++counts[k];
  }
  // Rank 0 must dominate rank 9 roughly like (10)^s.
  EXPECT_GT(counts[0], counts[9]);
  const double expected_ratio = std::pow(10.0, s);
  const double observed_ratio =
      static_cast<double>(counts[0]) / std::max(1, counts[9]);
  EXPECT_GT(observed_ratio, expected_ratio * 0.5);
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfTest, ::testing::Values(0.5, 1.0, 1.5));

TEST(ZipfTest, SingleElementAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.next_zipf(1, 1.2), 0u);
}

TEST(RngTest, NextBelowIsUnbiasedAtBoundary) {
  Rng rng(21);
  // All values below bound; both halves populated.
  const std::uint64_t bound = 10;
  std::vector<int> counts(bound, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.next_below(bound)];
  for (std::uint64_t k = 0; k < bound; ++k) {
    EXPECT_NEAR(counts[k], 2000, 300) << "bucket " << k;
  }
}

}  // namespace
}  // namespace g10
