// Deterministic random number generation and workload distributions.
//
// Simulation runs must be reproducible bit-for-bit from a seed, so all
// randomness flows through Rng (xoshiro256**) rather than std::random_device
// or unseeded engines. Distribution helpers cover the workload generator's
// needs: Zipf key popularity, Poisson inter-arrivals, bounded-Pareto flow
// sizes, and Bernoulli loss.
#pragma once

#include <cstdint>
#include <vector>

namespace swish {

/// SplitMix64's finalizer: a full-avalanche 64-bit mix, used to hash keys to
/// slots and homes and to derive seeds.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t h) noexcept {
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via SplitMix64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform in [lo, hi] inclusive.
  std::uint64_t next_range(std::uint64_t lo, std::uint64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p) noexcept;

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean) noexcept;

  /// Bounded Pareto over [lo, hi] with shape alpha (> 0).
  double bounded_pareto(double lo, double hi, double alpha) noexcept;

  /// Splits off an independently-seeded generator (for per-component RNGs).
  Rng split() noexcept;

 private:
  std::uint64_t s_[4];
};

/// Zipf-distributed ranks in [0, n) with exponent theta, sampled in O(1)
/// after O(n) table construction (inverse-CDF with binary search would be
/// O(log n); we use the rejection-inversion-free cumulative table because the
/// workload generator keeps n modest and samples hot).
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta);

  [[nodiscard]] std::uint64_t n() const noexcept { return n_; }

  /// Samples a rank in [0, n); rank 0 is the most popular.
  std::uint64_t sample(Rng& rng) const noexcept;

 private:
  std::uint64_t n_;
  std::vector<double> cdf_;
};

}  // namespace swish
