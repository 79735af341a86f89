// Online statistics used by benches and tests: running moments (Welford) and
// a log-bucketed latency histogram with percentile queries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace swish {

/// Numerically-stable running mean/variance plus min/max.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Merges another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other) noexcept;

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Histogram over non-negative integer samples (e.g. latency in ns) with
/// geometric buckets: exact up to 128, then 64 sub-buckets per octave.
/// Percentile error is bounded by ~1.6% above the exact range. The bucket
/// vector (~30 KB) is allocated on the first sample, so an empty histogram
/// costs a few scalars to hold and nothing to copy.
class Histogram {
 public:
  void add(std::uint64_t value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const noexcept { return count_ ? max_ : 0; }

  /// Value at quantile q in [0, 1]; returns an upper bound of the bucket.
  [[nodiscard]] std::uint64_t percentile(double q) const noexcept;

  [[nodiscard]] std::uint64_t p50() const noexcept { return percentile(0.50); }
  [[nodiscard]] std::uint64_t p99() const noexcept { return percentile(0.99); }

  void merge(const Histogram& other) noexcept;

 private:
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) noexcept;
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t bucket) noexcept;

  std::vector<std::uint64_t> buckets_;  ///< empty until the first sample
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Formats a double with a fixed number of significant decimals, used by the
/// bench table printers ("12.3", "0.001").
std::string format_double(double v, int decimals = 3);

}  // namespace swish
