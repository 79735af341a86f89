// Distributed L4 load balancer (§3.1, §4.1): assigns new connections to a
// backend (DIP) and must route every later packet of the connection to the
// same DIP — per-connection consistency (PCC). The connection-to-DIP mapping
// is shared with strong consistency (SRO); a sharded baseline that keeps the
// mapping local (src/baseline) breaks PCC under multipath re-routing.
#pragma once

#include <vector>

#include "nf/common.hpp"

namespace swish::nf {

class LoadBalancerApp : public shm::NfApp {
 public:
  struct Config {
    pkt::Ipv4Addr vip{10, 200, 0, 1};
    std::vector<pkt::Ipv4Addr> backends;
    std::size_t table_size = 65536;
  };

  struct Stats {
    std::uint64_t forwarded = 0;
    std::uint64_t new_connections = 0;
    std::uint64_t pcc_violations = 0;  ///< non-SYN packet with no mapping
    std::uint64_t redirected = 0;
    std::uint64_t txn_installs = 0;  ///< installs that carried the DIP refcount
  };

  explicit LoadBalancerApp(Config config) : config_(std::move(config)) {}

  static shm::SpaceConfig space(std::size_t table_size = 65536) {
    shm::SpaceConfig s;
    s.id = kLbSpace;
    s.name = "lb.conn_to_dip";
    s.cls = shm::ConsistencyClass::kSRO;
    s.size = table_size;
    s.table_backed = true;
    return s;
  }

  /// Per-backend live-connection counters, keyed by backend index. When this
  /// space shares an engine with conn_to_dip (same consistency class), the
  /// SYN install moves the connection entry and the DIP refcount in one
  /// multi-op ShmRuntime::write — under kCON the pair occupies one consensus
  /// log slot and is applied all-or-nothing.
  static shm::SpaceConfig refcount_space(std::size_t backends = 64) {
    shm::SpaceConfig s;
    s.id = kLbRefcountSpace;
    s.name = "lb.dip_refcount";
    s.cls = shm::ConsistencyClass::kSRO;
    s.size = backends < 64 ? 64 : backends;
    return s;
  }

  void process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) override;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  Config config_;
  Stats stats_;
};

}  // namespace swish::nf
