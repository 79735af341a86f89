#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace swish {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  return mix64(x);
}

std::uint64_t rotl(std::uint64_t x, int k) noexcept { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next() noexcept {
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

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless bounded sampling; bias is negligible for the
  // bounds used in simulation (<< 2^64).
  __extension__ using u128 = unsigned __int128;
  return static_cast<std::uint64_t>((static_cast<u128>(next()) * bound) >> 64);
}

std::uint64_t Rng::next_range(std::uint64_t lo, std::uint64_t hi) noexcept {
  return lo + next_below(hi - lo + 1);
}

double Rng::next_double() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept { return next_double() < p; }

double Rng::exponential(double mean) noexcept {
  double u = next_double();
  // Avoid log(0).
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double Rng::bounded_pareto(double lo, double hi, double alpha) noexcept {
  const double u = next_double();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

Rng Rng::split() noexcept { return Rng(next()); }

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta) : n_(n) {
  if (n == 0) throw std::invalid_argument("ZipfGenerator: n must be positive");
  cdf_.resize(n);
  double sum = 0.0;
  for (std::uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
}

std::uint64_t ZipfGenerator::sample(Rng& rng) const noexcept {
  const double u = rng.next_double();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return n_ - 1;
  return static_cast<std::uint64_t>(it - cdf_.begin());
}

}  // namespace swish
