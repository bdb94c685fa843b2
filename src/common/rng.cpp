#include "common/rng.hpp"

#include <cmath>

#include "common/check.hpp"

namespace g10 {

std::uint64_t splitmix64_next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64_next(sm);
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  G10_CHECK(bound > 0);
  // Lemire's method: multiply-shift with rejection of the biased low range.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) {
  G10_CHECK(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range [lo, hi]; any draw is in range.
  if (span == 0) return static_cast<std::int64_t>(next());
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

bool Rng::next_bool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::next_exponential(double mean) {
  G10_CHECK(mean > 0.0);
  double u = next_double();
  // Avoid log(0); next_double is in [0,1) so 1-u is in (0,1].
  return -mean * std::log1p(-u);
}

double Rng::next_normal(double mean, double stddev) {
  // Box–Muller. u1 in (0,1] to keep log finite.
  const double u1 = 1.0 - next_double();
  const double u2 = next_double();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * 3.14159265358979323846 * u2);
}

std::uint64_t Rng::next_zipf(std::uint64_t n, double s) {
  G10_CHECK(n > 0);
  G10_CHECK(s > 0.0);
  if (n == 1) return 0;
  // Rejection-inversion sampling (Hörmann & Derflinger 1996), following the
  // Apache Commons RejectionInversionZipfSampler formulation.
  // H(x) = integral of x^-s: (x^(1-s) - 1) / (1-s), log(x) for s == 1.
  const double e = 1.0 - s;
  const auto big_h = [&](double x) {
    return e == 0.0 ? std::log(x) : (std::pow(x, e) - 1.0) / e;
  };
  const auto big_h_inv = [&](double u) {
    return e == 0.0 ? std::exp(u) : std::pow(1.0 + u * e, 1.0 / e);
  };
  const double nd = static_cast<double>(n);
  const double h_x1 = big_h(1.5) - 1.0;  // H(1.5) - h(1), h(1) = 1
  const double h_n = big_h(nd + 0.5);
  const double threshold = 2.0 - big_h_inv(big_h(2.5) - std::pow(2.0, -s));
  for (;;) {
    const double u = h_n + next_double() * (h_x1 - h_n);
    const double x = big_h_inv(u);
    double kd = std::floor(x + 0.5);
    if (kd < 1.0) kd = 1.0;
    if (kd > nd) kd = nd;
    if (kd - x <= threshold || u >= big_h(kd + 0.5) - std::pow(kd, -s)) {
      return static_cast<std::uint64_t>(kd) - 1;
    }
  }
}

Rng Rng::fork() {
  // Mix two outputs through SplitMix64 to decorrelate the child stream.
  std::uint64_t sm = next() ^ 0xA3EC647659359ACDULL;
  (void)splitmix64_next(sm);
  return Rng(sm ^ next());
}

}  // namespace g10
