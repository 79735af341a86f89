#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace swish {

void RunningStats::add(double x) noexcept {
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

double RunningStats::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n = static_cast<double>(n_ + other.n_);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) * static_cast<double>(other.n_) / n;
  mean_ = (mean_ * static_cast<double>(n_) + other.mean_ * static_cast<double>(other.n_)) / n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
  n_ += other.n_;
}

namespace {
constexpr std::size_t kSubBuckets = 64;        // sub-buckets per octave
constexpr std::uint64_t kExactLimit = 128;     // values < this get exact buckets
constexpr std::size_t kOctaves = 58;           // enough for 64-bit values
constexpr std::size_t kTotalBuckets = kExactLimit + kOctaves * kSubBuckets;
}  // namespace

std::size_t Histogram::bucket_of(std::uint64_t value) noexcept {
  if (value < kExactLimit) return static_cast<std::size_t>(value);
  const int log2 = 63 - std::countl_zero(value);
  const int octave = log2 - 7;  // value >= 128 => log2 >= 7
  const auto sub = static_cast<std::size_t>((value >> (log2 - 6)) & (kSubBuckets - 1));
  auto idx = kExactLimit + static_cast<std::size_t>(octave) * kSubBuckets + sub;
  return std::min(idx, kTotalBuckets - 1);
}

std::uint64_t Histogram::bucket_upper(std::size_t bucket) noexcept {
  if (bucket < kExactLimit) return bucket;
  const std::size_t rel = bucket - kExactLimit;
  const std::size_t octave = rel / kSubBuckets;
  const std::size_t sub = rel % kSubBuckets;
  const int log2 = static_cast<int>(octave) + 7;
  const std::uint64_t base = 1ULL << log2;
  const std::uint64_t step = 1ULL << (log2 - 6);
  return base + step * (sub + 1) - 1;
}

void Histogram::add(std::uint64_t value) noexcept {
  if (count_ == 0) {
    min_ = max_ = value;
    buckets_.assign(kTotalBuckets, 0);
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += static_cast<double>(value);
  ++buckets_[bucket_of(value)];
}

double Histogram::mean() const noexcept {
  return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

std::uint64_t Histogram::percentile(double q) const noexcept {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) return std::min(bucket_upper(i), max_);
  }
  return max_;
}

void Histogram::merge(const Histogram& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
}

std::string format_double(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace swish
