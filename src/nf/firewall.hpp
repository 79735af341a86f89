// Distributed stateful firewall (§4.1): connection states live in a shared,
// strongly-consistent table (SRO), queried on every packet and written on
// connection open/close. Policy: traffic initiated from the protected
// (internal) side opens a pinhole; unsolicited external traffic is dropped.
//
// Optionally a sparse LPM blocklist space (prefix_space) maps source
// prefixes to a nonzero verdict; inbound packets matching a blocked prefix
// are dropped before the connection-table lookup. The space is EWO/LWW so
// any switch can install or lift a block and the fabric converges.
#pragma once

#include "nf/common.hpp"

namespace swish::nf {

class FirewallApp : public shm::NfApp {
 public:
  struct Config {
    pkt::Ipv4Addr internal_prefix{192, 168, 0, 0};
    unsigned internal_prefix_len = 16;
    std::size_t table_size = 65536;
  };

  /// Connection states stored in the shared table.
  enum class ConnState : std::uint64_t { kSynSeen = 1, kEstablished = 2 };

  struct Stats {
    std::uint64_t allowed_out = 0;
    std::uint64_t allowed_in = 0;
    std::uint64_t blocked_in = 0;
    std::uint64_t connections_opened = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t redirected = 0;
    std::uint64_t blocked_prefix = 0;  ///< inbound drops from the LPM blocklist
  };

  explicit FirewallApp(Config config) : config_(config) {}

  static shm::SpaceConfig space(std::size_t table_size = 65536) {
    shm::SpaceConfig s;
    s.id = kFirewallSpace;
    s.name = "fw.connections";
    s.cls = shm::ConsistencyClass::kSRO;
    s.size = table_size;
    s.table_backed = true;
    return s;
  }

  /// Sparse LPM blocklist: lpm_pack()ed IPv4 source prefixes -> nonzero
  /// verdict. Memory is proportional to installed prefixes, not 2^32.
  static shm::SpaceConfig prefix_space() {
    shm::SpaceConfig s;
    s.id = kFirewallPrefixSpace;
    s.name = "fw.blocked_prefixes";
    s.cls = shm::ConsistencyClass::kEWO;
    s.merge = shm::MergePolicy::kLww;
    s.kind = shm::SpaceKind::kSparse;
    s.key_bits = 32;
    return s;
  }

  /// Blocklist key of an IPv4 prefix/len.
  static std::uint64_t prefix_key(pkt::Ipv4Addr prefix, unsigned len) {
    return shm::store::lpm_pack(prefix.value(), len, 32);
  }

  /// Installs (verdict != 0) or lifts (verdict == 0) a block on a source
  /// prefix; requires prefix_space() to be deployed.
  static void block_prefix(shm::ShmRuntime& rt, pkt::Ipv4Addr prefix, unsigned len,
                           std::uint64_t verdict = 1) {
    rt.write({{kFirewallPrefixSpace, prefix_key(prefix, len), verdict}}, pkt::Packet{}, nullptr);
  }

  void process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) override;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  Config config_;
  Stats stats_;
};

}  // namespace swish::nf
