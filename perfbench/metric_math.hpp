// Metric arithmetic of the benchmark binary, checked by its test: exact
// order statistics over raw samples and the tail-percentile rule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a percentile for it to be reported.
inline constexpr double kMinTailSamples = 10.0;

/// Nearest-rank quantile (the smallest sample with at least q of the samples
/// at or below it). Reorders `samples`; 0 for an empty set.
template <typename T>
double quantile(std::vector<T>& samples, double q) {
  if (samples.empty()) return 0.0;
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

/// True when at least kMinTailSamples of `n` samples lie beyond quantile q.
inline bool has_tail(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= kMinTailSamples - 1e-9;
}

/// The highest of p50, p90, p99, p99.9, ... that keeps kMinTailSamples
/// beyond it; 0 when not even the median qualifies.
inline double tail_quantile(std::size_t n) {
  if (!has_tail(n, 0.5)) return 0.0;
  double best = 0.5;
  for (double gap = 0.1; gap > 1e-12 && has_tail(n, 1.0 - gap); gap /= 10.0) best = 1.0 - gap;
  return best;
}

/// A ratio kept as the counts it is made from, so reports can give its base.
struct Ratio {
  double num = 0;
  double base = 0;
};

}  // namespace perfbench
