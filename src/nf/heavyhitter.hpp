// Network-wide heavy-hitter detection (§8 "Distributed network monitoring"):
// Harrison et al. detect network-wide heavy hitters by having switches push
// local counts to a central coordinator; the paper observes that "SwiShmem
// can be used to implement similar algorithms while eliminating the need for
// a centralized controller". This NF does exactly that: per-key packet
// counts live in a shared EWO G-counter space, every switch sees the
// fabric-wide aggregate locally, and any switch can declare a key a heavy
// hitter — no coordinator in the loop.
#pragma once

#include <functional>
#include <unordered_set>

#include "nf/common.hpp"

namespace swish::nf {

inline constexpr std::uint32_t kHeavyHitterSpace = 10;

class HeavyHitterApp : public shm::NfApp {
 public:
  struct Config {
    std::size_t key_slots = 4096;        ///< shared counter slots (by src/24)
    std::uint64_t threshold = 100;       ///< fabric-wide packets => heavy hitter
    unsigned prefix_len = 24;            ///< aggregation granularity
  };

  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t reports = 0;  ///< first-detection events on this switch
  };

  explicit HeavyHitterApp(Config config) : config_(config) {}

  static shm::SpaceConfig space(std::size_t slots = 4096) {
    shm::SpaceConfig s;
    s.id = kHeavyHitterSpace;
    s.name = "hh.counts";
    s.cls = shm::ConsistencyClass::kEWO;
    s.merge = shm::MergePolicy::kGCounter;
    s.size = slots;
    s.mirror_batch = 16;
    return s;
  }

  void process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) override;

  /// Fabric-wide count for a source prefix, read locally.
  [[nodiscard]] std::uint64_t count(shm::ShmRuntime& rt, pkt::Ipv4Addr src) const {
    std::uint64_t value = 0;
    rt.read(nullptr, kHeavyHitterSpace, slot_of(src), value);
    return value;
  }

  /// Fired once per (switch, key) when the aggregate crosses the threshold.
  std::function<void(pkt::Ipv4Addr prefix, std::uint64_t count, TimeNs at)> on_heavy_hitter;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  [[nodiscard]] std::uint64_t slot_of(pkt::Ipv4Addr src) const noexcept {
    const std::uint32_t mask =
        config_.prefix_len == 0 ? 0 : ~0u << (32 - config_.prefix_len);
    return (src.value() & mask) % config_.key_slots;
  }

  Config config_;
  Stats stats_;
  std::unordered_set<std::uint64_t> reported_;  ///< dedup per switch
};

}  // namespace swish::nf
