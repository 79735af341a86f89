// End-to-end NF tests on a real fabric: NAT, firewall, IPS, load balancer,
// DDoS detector, rate limiter (Table 1's six applications).
#include <gtest/gtest.h>

#include "nf/ddos.hpp"
#include "nf/firewall.hpp"
#include "nf/ips.hpp"
#include "nf/lb.hpp"
#include "nf/nat.hpp"
#include "nf/ratelimiter.hpp"
#include "swishmem/fabric.hpp"

namespace swish::nf {
namespace {

pkt::Packet tcp(pkt::Ipv4Addr src, pkt::Ipv4Addr dst, std::uint16_t sport, std::uint16_t dport,
                std::uint8_t flags, std::size_t payload = 8) {
  pkt::PacketSpec spec;
  spec.ip_src = src;
  spec.ip_dst = dst;
  spec.protocol = pkt::kProtoTcp;
  spec.src_port = sport;
  spec.dst_port = dport;
  spec.tcp_flags = flags;
  spec.payload.assign(payload, 0x11);
  return pkt::build_packet(spec);
}

pkt::Packet udp(pkt::Ipv4Addr src, pkt::Ipv4Addr dst, std::uint16_t sport, std::uint16_t dport,
                std::vector<std::uint8_t> payload = {1, 2, 3, 4}) {
  pkt::PacketSpec spec;
  spec.ip_src = src;
  spec.ip_dst = dst;
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = sport;
  spec.dst_port = dport;
  spec.payload = std::move(payload);
  return pkt::build_packet(spec);
}

const pkt::Ipv4Addr kClient{192, 168, 1, 10};
const pkt::Ipv4Addr kServer{8, 8, 8, 8};

shm::FabricConfig cfg3() {
  shm::FabricConfig c;
  c.num_switches = 3;
  return c;
}

// --------------------------------------------------------------------------
// NAT
// --------------------------------------------------------------------------

struct NatRig {
  shm::Fabric fabric;
  std::vector<NatApp*> apps;
  std::vector<pkt::Packet> delivered;

  NatRig() : fabric(cfg3()) {
    fabric.add_space(NatApp::space());
    fabric.install([this]() {
      auto app = std::make_unique<NatApp>(NatApp::Config{});
      apps.push_back(app.get());
      return app;
    });
    fabric.start();
    fabric.set_delivery_sink([this](const pkt::Packet& p) { delivered.push_back(p); });
  }
};

TEST(Nat, OutboundTranslatedAfterCommit) {
  NatRig rig;
  rig.fabric.sw(0).inject(tcp(kClient, kServer, 1234, 80, pkt::TcpFlags::kSyn));
  rig.fabric.run_for(100 * kMs);
  ASSERT_EQ(rig.delivered.size(), 1u);
  auto p = rig.delivered[0].parse();
  ASSERT_TRUE(p && p->ipv4);
  EXPECT_EQ(p->ipv4->src, pkt::Ipv4Addr(203, 0, 113, 1));
  EXPECT_NE(p->src_port(), 1234);  // allocated public port
  EXPECT_EQ(p->ipv4->dst, kServer);
  EXPECT_EQ(rig.apps[0]->stats().new_connections, 1u);
}

TEST(Nat, SubsequentPacketsUseSameMappingFromAnySwitch) {
  NatRig rig;
  rig.fabric.sw(0).inject(tcp(kClient, kServer, 1234, 80, pkt::TcpFlags::kSyn));
  rig.fabric.run_for(100 * kMs);
  ASSERT_EQ(rig.delivered.size(), 1u);
  const auto first = rig.delivered[0].parse();
  const std::uint16_t public_port = first->src_port();
  // Next packet of the same flow arrives at a *different* switch (multipath).
  rig.fabric.sw(2).inject(tcp(kClient, kServer, 1234, 80, pkt::TcpFlags::kAck));
  rig.fabric.run_for(100 * kMs);
  ASSERT_EQ(rig.delivered.size(), 2u);
  EXPECT_EQ(rig.delivered[1].parse()->src_port(), public_port);  // same mapping
  EXPECT_EQ(rig.apps[2]->stats().translated_out, 1u);
  EXPECT_EQ(rig.apps[2]->stats().new_connections, 0u);  // no re-allocation
}

TEST(Nat, ReturnTrafficReversesMappingAtAnySwitch) {
  NatRig rig;
  rig.fabric.sw(0).inject(tcp(kClient, kServer, 1234, 80, pkt::TcpFlags::kSyn));
  rig.fabric.run_for(100 * kMs);
  const std::uint16_t public_port = rig.delivered[0].parse()->src_port();
  // Server reply arrives at switch 1.
  rig.fabric.sw(1).inject(tcp(kServer, pkt::Ipv4Addr(203, 0, 113, 1), 80, public_port,
                              pkt::TcpFlags::kAck));
  rig.fabric.run_for(100 * kMs);
  ASSERT_EQ(rig.delivered.size(), 2u);
  auto p = rig.delivered[1].parse();
  EXPECT_EQ(p->ipv4->dst, kClient);  // de-translated
  EXPECT_EQ(p->dst_port(), 1234);
  EXPECT_EQ(rig.apps[1]->stats().translated_in, 1u);
}

TEST(Nat, UnsolicitedInboundDropped) {
  NatRig rig;
  rig.fabric.sw(1).inject(tcp(kServer, pkt::Ipv4Addr(203, 0, 113, 1), 80, 55555,
                              pkt::TcpFlags::kAck));
  rig.fabric.run_for(50 * kMs);
  EXPECT_TRUE(rig.delivered.empty());
  EXPECT_EQ(rig.apps[1]->stats().dropped_no_mapping, 1u);
}

TEST(Nat, DistinctSwitchesAllocateDisjointPorts) {
  NatRig rig;
  rig.fabric.sw(0).inject(tcp(kClient, kServer, 1000, 80, pkt::TcpFlags::kSyn));
  rig.fabric.sw(1).inject(tcp(kClient, kServer, 1001, 80, pkt::TcpFlags::kSyn));
  rig.fabric.sw(2).inject(tcp(kClient, kServer, 1002, 80, pkt::TcpFlags::kSyn));
  rig.fabric.run_for(200 * kMs);
  ASSERT_EQ(rig.delivered.size(), 3u);
  std::set<std::uint16_t> ports;
  for (const auto& d : rig.delivered) ports.insert(d.parse()->src_port());
  EXPECT_EQ(ports.size(), 3u);  // sharded pools: no collisions possible
}

// --------------------------------------------------------------------------
// Firewall
// --------------------------------------------------------------------------

struct FwRig {
  shm::Fabric fabric;
  std::vector<FirewallApp*> apps;
  std::uint64_t delivered = 0;

  explicit FwRig(bool blocklist = false) : fabric(cfg3()) {
    fabric.add_space(FirewallApp::space());
    if (blocklist) fabric.add_space(FirewallApp::prefix_space());
    fabric.install([this]() {
      auto app = std::make_unique<FirewallApp>(FirewallApp::Config{});
      apps.push_back(app.get());
      return app;
    });
    fabric.start();
    fabric.set_delivery_sink([this](const pkt::Packet&) { ++delivered; });
  }
};

TEST(Firewall, UnsolicitedInboundBlocked) {
  FwRig rig;
  rig.fabric.sw(0).inject(tcp(kServer, kClient, 80, 1234, pkt::TcpFlags::kAck));
  rig.fabric.run_for(50 * kMs);
  EXPECT_EQ(rig.delivered, 0u);
  EXPECT_EQ(rig.apps[0]->stats().blocked_in, 1u);
}

TEST(Firewall, ReturnTrafficAllowedAfterOutboundSynAtOtherSwitch) {
  FwRig rig;
  rig.fabric.sw(0).inject(tcp(kClient, kServer, 1234, 80, pkt::TcpFlags::kSyn));
  rig.fabric.run_for(100 * kMs);
  EXPECT_EQ(rig.delivered, 1u);  // SYN released after pinhole committed
  // Reply enters at a different switch: the shared table admits it.
  rig.fabric.sw(2).inject(tcp(kServer, kClient, 80, 1234, pkt::TcpFlags::kAck));
  rig.fabric.run_for(100 * kMs);
  EXPECT_EQ(rig.delivered, 2u);
  EXPECT_EQ(rig.apps[2]->stats().allowed_in, 1u);
}

TEST(Firewall, FinClosesPinholeEverywhere) {
  FwRig rig;
  rig.fabric.sw(0).inject(tcp(kClient, kServer, 1234, 80, pkt::TcpFlags::kSyn));
  rig.fabric.run_for(100 * kMs);
  rig.fabric.sw(1).inject(tcp(kClient, kServer, 1234, 80, pkt::TcpFlags::kFin));
  rig.fabric.run_for(100 * kMs);
  rig.fabric.sw(2).inject(tcp(kServer, kClient, 80, 1234, pkt::TcpFlags::kAck));
  rig.fabric.run_for(100 * kMs);
  EXPECT_EQ(rig.apps[2]->stats().blocked_in, 1u);
}

TEST(Firewall, PrefixBlockLongestMatchWinsAtEverySwitch) {
  FwRig rig(/*blocklist=*/true);
  const pkt::Ipv4Addr attacker{203, 0, 113, 7};
  const pkt::Ipv4Addr neighbor{203, 0, 5, 5};  // same /16, outside the /24
  FirewallApp::block_prefix(rig.fabric.runtime(0), pkt::Ipv4Addr(203, 0, 0, 0), 16);
  rig.fabric.run_for(10 * kMs);  // the EWO blocklist entry reaches every switch
  rig.fabric.sw(2).inject(tcp(attacker, kClient, 80, 1234, pkt::TcpFlags::kAck));
  rig.fabric.run_for(10 * kMs);
  EXPECT_EQ(rig.apps[2]->stats().blocked_prefix, 1u);
  EXPECT_EQ(rig.apps[2]->stats().blocked_in, 0u);

  // A verdict-0 /24 inside the /16 lifts the block for that /24 only: the
  // attacker's packet falls through to the connection table (no pinhole).
  FirewallApp::block_prefix(rig.fabric.runtime(0), pkt::Ipv4Addr(203, 0, 113, 0), 24, 0);
  rig.fabric.run_for(10 * kMs);
  rig.fabric.sw(2).inject(tcp(attacker, kClient, 80, 1234, pkt::TcpFlags::kAck));
  rig.fabric.sw(2).inject(tcp(neighbor, kClient, 80, 1234, pkt::TcpFlags::kAck));
  rig.fabric.run_for(10 * kMs);
  EXPECT_EQ(rig.apps[2]->stats().blocked_prefix, 2u);
  EXPECT_EQ(rig.apps[2]->stats().blocked_in, 1u);
  EXPECT_EQ(rig.delivered, 0u);
}

TEST(Firewall, OutboundNonSynFlowsFreely) {
  FwRig rig;
  rig.fabric.sw(1).inject(tcp(kClient, kServer, 1, 2, pkt::TcpFlags::kAck));
  rig.fabric.run_for(20 * kMs);
  EXPECT_EQ(rig.delivered, 1u);
  EXPECT_EQ(rig.apps[1]->stats().allowed_out, 1u);
}

// --------------------------------------------------------------------------
// IPS
// --------------------------------------------------------------------------

struct IpsRig {
  shm::Fabric fabric;
  std::vector<IpsApp*> apps;
  std::uint64_t delivered = 0;

  IpsRig() : fabric(cfg3()) {
    fabric.add_space(IpsApp::space());
    fabric.install([this]() {
      auto app = std::make_unique<IpsApp>(IpsApp::Config{});
      apps.push_back(app.get());
      return app;
    });
    fabric.start();
    fabric.set_delivery_sink([this](const pkt::Packet&) { ++delivered; });
  }
};

TEST(Ips, CleanTrafficPasses) {
  IpsRig rig;
  rig.fabric.sw(0).inject(udp(kClient, kServer, 1, 2, {9, 9, 9}));
  rig.fabric.run_for(20 * kMs);
  EXPECT_EQ(rig.delivered, 1u);
}

TEST(Ips, SignatureInstalledAtOneSwitchMatchesAtAll) {
  IpsRig rig;
  const std::vector<std::uint8_t> evil{0xEE, 0xBB, 0x11, 0x22};
  const auto sig = IpsApp::signature_of(evil);
  rig.apps[0]->install_signature(rig.fabric.runtime(0), sig);
  rig.fabric.run_for(100 * kMs);  // ERO chain propagates the signature
  for (std::size_t i = 0; i < 3; ++i) {
    rig.fabric.sw(i).inject(udp(pkt::Ipv4Addr(50, 0, 0, static_cast<std::uint8_t>(i)),
                                kServer, 1, 2, evil));
  }
  rig.fabric.run_for(50 * kMs);
  EXPECT_EQ(rig.delivered, 0u);  // matched everywhere, dropped
  std::uint64_t matches = 0;
  for (auto* app : rig.apps) matches += app->stats().matches;
  EXPECT_EQ(matches, 3u);
}

TEST(Ips, RepeatedMatchesBlockTheSource) {
  IpsRig rig;
  const std::vector<std::uint8_t> evil{0xAB, 0xCD};
  rig.apps[0]->install_signature(rig.fabric.runtime(0), IpsApp::signature_of(evil));
  rig.fabric.run_for(100 * kMs);
  const pkt::Ipv4Addr attacker{66, 6, 6, 6};
  for (int i = 0; i < 5; ++i) {
    rig.fabric.sw(1).inject(udp(attacker, kServer, 1, 2, evil));
  }
  rig.fabric.run_for(50 * kMs);
  // After block_threshold matches the source is cut off even for clean data.
  rig.fabric.sw(1).inject(udp(attacker, kServer, 1, 2, {0, 0, 0}));
  rig.fabric.run_for(20 * kMs);
  EXPECT_EQ(rig.delivered, 0u);
  EXPECT_GT(rig.apps[1]->stats().dropped_blocked, 0u);
}

// --------------------------------------------------------------------------
// Load balancer
// --------------------------------------------------------------------------

const std::vector<pkt::Ipv4Addr> kBackends{{10, 1, 0, 1}, {10, 1, 0, 2}, {10, 1, 0, 3}};
const pkt::Ipv4Addr kVip{10, 200, 0, 1};

struct LbRig {
  shm::Fabric fabric;
  std::vector<LoadBalancerApp*> apps;
  std::vector<pkt::Packet> delivered;

  LbRig() : fabric(cfg3()) {
    fabric.add_space(LoadBalancerApp::space());
    fabric.install([this]() {
      auto app = std::make_unique<LoadBalancerApp>(
          LoadBalancerApp::Config{kVip, kBackends, 65536});
      apps.push_back(app.get());
      return app;
    });
    fabric.start();
    fabric.set_delivery_sink([this](const pkt::Packet& p) { delivered.push_back(p); });
  }
};

TEST(Lb, SynAssignsBackendAndRewrites) {
  LbRig rig;
  rig.fabric.sw(0).inject(tcp(kClient, kVip, 1111, 80, pkt::TcpFlags::kSyn));
  rig.fabric.run_for(100 * kMs);
  ASSERT_EQ(rig.delivered.size(), 1u);
  const auto dst = rig.delivered[0].parse()->ipv4->dst;
  EXPECT_NE(std::find(kBackends.begin(), kBackends.end(), dst), kBackends.end());
}

TEST(Lb, PccHeldAcrossSwitches) {
  LbRig rig;
  rig.fabric.sw(0).inject(tcp(kClient, kVip, 1111, 80, pkt::TcpFlags::kSyn));
  rig.fabric.run_for(100 * kMs);
  const auto assigned = rig.delivered[0].parse()->ipv4->dst;
  // Later packets of the flow arrive at every other switch.
  rig.fabric.sw(1).inject(tcp(kClient, kVip, 1111, 80, pkt::TcpFlags::kAck));
  rig.fabric.sw(2).inject(tcp(kClient, kVip, 1111, 80, pkt::TcpFlags::kAck));
  rig.fabric.run_for(100 * kMs);
  ASSERT_EQ(rig.delivered.size(), 3u);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(rig.delivered[i].parse()->ipv4->dst, assigned);  // PCC holds
  }
  std::uint64_t violations = 0;
  for (auto* app : rig.apps) violations += app->stats().pcc_violations;
  EXPECT_EQ(violations, 0u);
}

TEST(Lb, MidFlowPacketWithoutMappingIsViolation) {
  LbRig rig;
  rig.fabric.sw(0).inject(tcp(kClient, kVip, 2222, 80, pkt::TcpFlags::kAck));  // no SYN
  rig.fabric.run_for(50 * kMs);
  EXPECT_EQ(rig.apps[0]->stats().pcc_violations, 1u);
  EXPECT_TRUE(rig.delivered.empty());
}

TEST(Lb, NonVipTrafficPassesThrough) {
  LbRig rig;
  rig.fabric.sw(0).inject(tcp(kClient, kServer, 1, 2, pkt::TcpFlags::kAck));
  rig.fabric.run_for(20 * kMs);
  EXPECT_EQ(rig.delivered.size(), 1u);
  EXPECT_EQ(rig.delivered[0].parse()->ipv4->dst, kServer);
}

// --------------------------------------------------------------------------
// DDoS detector
// --------------------------------------------------------------------------

TEST(Ddos, DistributedAttackDetectedFromAggregatedSketch) {
  shm::FabricConfig cfg = cfg3();
  cfg.runtime.sync_period = 1 * kMs;
  shm::Fabric fabric(cfg);
  fabric.add_space(DdosDetectorApp::sketch_space());
  fabric.add_space(DdosDetectorApp::total_space());
  std::vector<DdosDetectorApp*> apps;
  DdosDetectorApp::Config dcfg;
  dcfg.window = 5 * kMs;
  dcfg.share_threshold = 0.5;
  dcfg.min_window_packets = 30;
  fabric.install([&]() {
    auto app = std::make_unique<DdosDetectorApp>(dcfg);
    apps.push_back(app.get());
    return app;
  });
  fabric.start();

  int alarms = 0;
  pkt::Ipv4Addr victim{10, 200, 0, 99};
  for (auto* app : apps) {
    app->on_alarm = [&](pkt::Ipv4Addr dst, double, TimeNs) {
      if (dst == victim) ++alarms;
    };
  }
  // Attack split evenly: each switch alone sees only 1/3 of the volume.
  for (int i = 0; i < 120; ++i) {
    fabric.sw(i % 3).inject(udp(pkt::Ipv4Addr(static_cast<std::uint32_t>(i * 7919)), victim,
                                1, 53));
  }
  fabric.run_for(100 * kMs);
  EXPECT_GT(alarms, 0);
}

TEST(Ddos, BalancedTrafficRaisesNoAlarm) {
  shm::Fabric fabric(cfg3());
  fabric.add_space(DdosDetectorApp::sketch_space());
  fabric.add_space(DdosDetectorApp::total_space());
  std::vector<DdosDetectorApp*> apps;
  DdosDetectorApp::Config dcfg;
  dcfg.window = 5 * kMs;
  dcfg.share_threshold = 0.5;
  dcfg.min_window_packets = 30;
  fabric.install([&]() {
    auto app = std::make_unique<DdosDetectorApp>(dcfg);
    apps.push_back(app.get());
    return app;
  });
  fabric.start();
  int alarms = 0;
  for (auto* app : apps) {
    app->on_alarm = [&](pkt::Ipv4Addr, double, TimeNs) { ++alarms; };
  }
  // 120 packets spread over 40 distinct destinations.
  for (int i = 0; i < 120; ++i) {
    fabric.sw(i % 3).inject(udp(kClient, pkt::Ipv4Addr(static_cast<std::uint32_t>(i % 40 + 100)),
                                1, 53));
  }
  fabric.run_for(100 * kMs);
  EXPECT_EQ(alarms, 0);
}

TEST(Ddos, EstimateNeverUndercounts) {
  // Count-min property: estimate >= true count.
  shm::Fabric fabric(cfg3());
  fabric.add_space(DdosDetectorApp::sketch_space());
  fabric.add_space(DdosDetectorApp::total_space());
  std::vector<DdosDetectorApp*> apps;
  fabric.install([&]() {
    auto app = std::make_unique<DdosDetectorApp>(DdosDetectorApp::Config{});
    apps.push_back(app.get());
    return app;
  });
  fabric.start();
  const pkt::Ipv4Addr target{1, 2, 3, 4};
  for (int i = 0; i < 25; ++i) fabric.sw(0).inject(udp(kClient, target, 1, 53));
  fabric.run_for(50 * kMs);
  EXPECT_GE(apps[0]->estimate(fabric.runtime(0), target), 25u);
}

// --------------------------------------------------------------------------
// Rate limiter
// --------------------------------------------------------------------------

TEST(RateLimiter, AggregateAcrossSwitchesTriggersLimit) {
  shm::FabricConfig cfg = cfg3();
  cfg.runtime.sync_period = 500 * kUs;
  shm::Fabric fabric(cfg);
  fabric.add_space(RateLimiterApp::space());
  std::vector<RateLimiterApp*> apps;
  RateLimiterApp::Config rcfg;
  rcfg.bytes_per_window = 2000;
  rcfg.window = 50 * kMs;
  fabric.install([&]() {
    auto app = std::make_unique<RateLimiterApp>(rcfg);
    apps.push_back(app.get());
    return app;
  });
  fabric.start();

  const pkt::Ipv4Addr user{77, 0, 0, 1};
  // ~60 B packets; each switch alone sees ~1.4 KB < limit, aggregate ~4 KB.
  for (int i = 0; i < 60; ++i) {
    fabric.sw(i % 3).inject(udp(user, kServer, 1, 2));
    fabric.run_for(300 * kUs);  // let EWO updates flow between packets
  }
  std::uint64_t dropped = 0, limited = 0;
  for (auto* app : apps) {
    dropped += app->stats().dropped_limited;
    limited += app->stats().users_limited;
  }
  EXPECT_GT(limited, 0u);
  EXPECT_GT(dropped, 0u);
}

TEST(RateLimiter, UnderLimitUserUnaffected) {
  shm::Fabric fabric(cfg3());
  fabric.add_space(RateLimiterApp::space());
  std::vector<RateLimiterApp*> apps;
  fabric.install([&]() {
    auto app = std::make_unique<RateLimiterApp>(RateLimiterApp::Config{});
    apps.push_back(app.get());
    return app;
  });
  fabric.start();
  std::uint64_t delivered = 0;
  fabric.set_delivery_sink([&](const pkt::Packet&) { ++delivered; });
  for (int i = 0; i < 10; ++i) fabric.sw(i % 3).inject(udp(kClient, kServer, 1, 2));
  fabric.run_for(50 * kMs);
  EXPECT_EQ(delivered, 10u);
  for (auto* app : apps) EXPECT_EQ(app->stats().dropped_limited, 0u);
}

TEST(RateLimiter, SubnetBudgetSetAtOneSwitchLimitsAnother) {
  shm::Fabric fabric(cfg3());
  fabric.add_space(RateLimiterApp::space());
  fabric.add_space(RateLimiterApp::subnet_space());
  std::vector<RateLimiterApp*> apps;
  fabric.install([&]() {
    auto app = std::make_unique<RateLimiterApp>(RateLimiterApp::Config{});
    apps.push_back(app.get());
    return app;
  });
  fabric.start();
  // A zero budget on 77.0.1.0/24, installed at switch 0, inside the default
  // 64 KB per-window budget that still covers 77.0.2.0/24.
  RateLimiterApp::set_subnet_limit(fabric.runtime(0), pkt::Ipv4Addr(77, 0, 1, 0), 24, 0);
  fabric.run_for(2 * kMs);
  const pkt::Ipv4Addr limited{77, 0, 1, 5};
  const pkt::Ipv4Addr unlimited{77, 0, 2, 5};
  for (int i = 0; i < 2; ++i) {
    fabric.sw(2).inject(udp(limited, kServer, 1, 2));
    fabric.sw(2).inject(udp(unlimited, kServer, 1, 2));
  }
  fabric.run_for(2 * kMs);  // well inside the first 10 ms window
  // The first packet from the /24 exceeds its zero budget and flags the
  // user; the second is dropped. The other subnet is untouched.
  EXPECT_EQ(apps[2]->stats().users_limited, 1u);
  EXPECT_EQ(apps[2]->stats().dropped_limited, 1u);
  EXPECT_EQ(apps[2]->stats().passed, 3u);
}

TEST(RateLimiter, WindowResetUnblocks) {
  shm::FabricConfig cfg = cfg3();
  shm::Fabric fabric(cfg);
  fabric.add_space(RateLimiterApp::space());
  std::vector<RateLimiterApp*> apps;
  RateLimiterApp::Config rcfg;
  rcfg.bytes_per_window = 500;
  rcfg.window = 20 * kMs;
  fabric.install([&]() {
    auto app = std::make_unique<RateLimiterApp>(rcfg);
    apps.push_back(app.get());
    return app;
  });
  fabric.start();
  const pkt::Ipv4Addr user{77, 0, 0, 2};
  for (int i = 0; i < 20; ++i) fabric.sw(0).inject(udp(user, kServer, 1, 2));
  fabric.run_for(5 * kMs);
  EXPECT_GT(apps[0]->stats().dropped_limited, 0u);
  const auto dropped_before = apps[0]->stats().dropped_limited;
  fabric.run_for(40 * kMs);  // window boundary passes
  fabric.sw(0).inject(udp(user, kServer, 1, 2));
  fabric.run_for(5 * kMs);
  EXPECT_EQ(apps[0]->stats().dropped_limited, dropped_before);  // unblocked
}

}  // namespace
}  // namespace swish::nf
