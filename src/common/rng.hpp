// Deterministic pseudo-random number generation.
//
// Every stochastic component in this repository takes an explicit 64-bit
// seed so that workloads, engine runs and experiments are reproducible
// bit-for-bit across runs and machines. We use SplitMix64 for seeding and
// xoshiro256** as the workhorse generator (fast, high quality, tiny state).
#pragma once

#include <array>
#include <cstdint>

namespace g10 {

/// SplitMix64 step: turns an arbitrary seed into well-mixed 64-bit values.
/// Advances the state in place and returns the next output.
std::uint64_t splitmix64_next(std::uint64_t& state);

/// xoshiro256** by Blackman & Vigna. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return next(); }

  /// Defined in the header so hot callers inline it: the R-MAT generator
  /// draws three doubles per bit of every edge.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0. Uses Lemire's
  /// nearly-divisionless method; unbiased.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1): 53 random mantissa bits.
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool next_bool(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double next_exponential(double mean);

  /// Standard normal via Box–Muller (no cached spare; stateless per call).
  double next_normal(double mean, double stddev);

  /// Zipf-distributed integer in [0, n): P(k) ∝ 1 / (k + 1)^s.
  /// Rejection-inversion sampler; exact for any s > 0, s != 1 handled too.
  std::uint64_t next_zipf(std::uint64_t n, double s);

  /// Derives an independent child generator; changing the order of
  /// next_* calls on the parent does not affect previously derived children.
  Rng fork();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_;
};

}  // namespace g10
