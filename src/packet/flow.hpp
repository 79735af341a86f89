// Connection identity (5-tuple) used by every stateful NF.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>

#include "common/rng.hpp"
#include "packet/addr.hpp"
#include "packet/packet.hpp"

namespace swish::pkt {

/// TCP/UDP 5-tuple. The direction-sensitive form identifies a unidirectional
/// flow; canonical() folds both directions of a connection onto one key
/// (needed by firewalls that must match return traffic).
struct FlowKey {
  Ipv4Addr src_ip;
  Ipv4Addr dst_ip;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;

  friend constexpr auto operator<=>(const FlowKey&, const FlowKey&) = default;

  /// Returns the key with (src, dst) ordered so both directions map equal.
  [[nodiscard]] FlowKey canonical() const noexcept {
    if (src_ip.value() < dst_ip.value() ||
        (src_ip == dst_ip && src_port <= dst_port)) {
      return *this;
    }
    return reversed();
  }

  /// Returns the key of the reverse direction.
  [[nodiscard]] FlowKey reversed() const noexcept {
    return FlowKey{dst_ip, src_ip, dst_port, src_port, protocol};
  }

  /// 64-bit mix of all five fields (used for hashing and for deriving
  /// register indices in the switch pipelines).
  [[nodiscard]] std::uint64_t hash() const noexcept {
    std::uint64_t h = (static_cast<std::uint64_t>(src_ip.value()) << 32) | dst_ip.value();
    h ^= (static_cast<std::uint64_t>(src_port) << 24) ^ (static_cast<std::uint64_t>(dst_port) << 8) ^
         protocol;
    return mix64(h);  // SplitMix64 finalizer for avalanche
  }

  /// Extracts the flow key from a parsed packet; valid only if IPv4 + L4.
  static FlowKey from(const ParsedPacket& p) noexcept {
    FlowKey k;
    if (p.ipv4) {
      k.src_ip = p.ipv4->src;
      k.dst_ip = p.ipv4->dst;
      k.protocol = p.ipv4->protocol;
    }
    k.src_port = p.src_port();
    k.dst_port = p.dst_port();
    return k;
  }
};

struct FlowKeyHash {
  std::size_t operator()(const FlowKey& k) const noexcept {
    return static_cast<std::size_t>(k.hash());
  }
};

}  // namespace swish::pkt
