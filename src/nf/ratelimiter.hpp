// Distributed per-user rate limiter (§4.2): each packet increments the
// user's shared byte counter (EWO G-counter — commutative, merged across
// switches); every window the counters are read and over-limit users are
// throttled. A user spreading traffic over many switches is caught by the
// *aggregate*, which no purely-local limiter could enforce — the motivating
// "per-client rate limiter" of §3.2.
//
// Optionally a sparse LPM space (subnet_space) maps source subnets to a
// per-window byte budget overriding the global default — the longest
// matching prefix wins, so a tight /24 limit can sit inside a loose /8.
#pragma once

#include <vector>

#include "nf/common.hpp"

namespace swish::nf {

class RateLimiterApp : public shm::NfApp {
 public:
  struct Config {
    std::size_t user_slots = 1024;
    std::uint64_t bytes_per_window = 64 * 1024;  ///< aggregate budget per user
    TimeNs window = 10 * kMs;
  };

  struct Stats {
    std::uint64_t passed = 0;
    std::uint64_t dropped_limited = 0;
    std::uint64_t users_limited = 0;  ///< limit events (user-window pairs)
  };

  explicit RateLimiterApp(Config config) : config_(config) {}

  static shm::SpaceConfig space(std::size_t user_slots = 1024) {
    shm::SpaceConfig s;
    s.id = kRateLimiterSpace;
    s.name = "rl.user_bytes";
    s.cls = shm::ConsistencyClass::kEWO;
    s.merge = shm::MergePolicy::kGCounter;
    s.size = user_slots;
    s.mirror_batch = 16;
    return s;
  }

  /// Sparse LPM space of per-subnet byte budgets: lpm_pack()ed IPv4 prefixes
  /// -> bytes_per_window override (0 = block the subnet outright).
  static shm::SpaceConfig subnet_space() {
    shm::SpaceConfig s;
    s.id = kRateLimiterPrefixSpace;
    s.name = "rl.subnet_limits";
    s.cls = shm::ConsistencyClass::kEWO;
    s.merge = shm::MergePolicy::kLww;
    s.kind = shm::SpaceKind::kSparse;
    s.key_bits = 32;
    return s;
  }

  /// Key of an IPv4 subnet prefix/len in subnet_space.
  static std::uint64_t subnet_key(pkt::Ipv4Addr prefix, unsigned len) {
    return shm::store::lpm_pack(prefix.value(), len, 32);
  }

  /// Installs a per-window byte budget for a subnet; requires subnet_space()
  /// to be deployed.
  static void set_subnet_limit(shm::ShmRuntime& rt, pkt::Ipv4Addr prefix, unsigned len,
                               std::uint64_t bytes_per_window) {
    rt.write({{kRateLimiterPrefixSpace, subnet_key(prefix, len), bytes_per_window}},
             pkt::Packet{}, nullptr);
  }

  void setup(pisa::Switch& sw, shm::ShmRuntime& runtime) override;
  void process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) override;

  [[nodiscard]] std::uint64_t user_slot(pkt::Ipv4Addr src) const noexcept {
    return src.value() % config_.user_slots;
  }

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  void window_tick(shm::ShmRuntime& rt);

  Config config_;
  Stats stats_;
  pisa::RegisterArray* limited_ = nullptr;     ///< per-user throttle flag (local)
  std::vector<std::uint64_t> window_base_;     ///< aggregate at window start
};

}  // namespace swish::nf
