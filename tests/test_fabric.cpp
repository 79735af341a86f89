// Fabric-level integration tests: alternative topologies (chain, leaf-spine
// with transit switches), memory budgets of full NF deployments, and the
// heavy-hitter NF built on shared counters (§8).
#include <gtest/gtest.h>

#include "nf/ddos.hpp"
#include "nf/firewall.hpp"
#include "nf/heavyhitter.hpp"
#include "nf/nat.hpp"
#include "nf/ratelimiter.hpp"
#include "swishmem/fabric.hpp"

#include "read_value.hpp"

namespace swish::shm {
namespace {

constexpr std::uint32_t kCtr = 60;
constexpr std::uint32_t kReg = 61;

class Driver : public NfApp {
 public:
  void process(pisa::PacketContext& ctx, ShmRuntime& rt) override {
    if (!ctx.parsed || !ctx.parsed->udp) return;
    const std::uint16_t port = ctx.parsed->udp->dst_port;
    pisa::Switch* sw = &ctx.sw;
    if (port == 1111) {
      rt.update(kCtr, 0, 1);
      ctx.sw.deliver(std::move(ctx.packet));
    } else if (port == 2222) {
      rt.write({{kReg, 1, 42}}, std::move(ctx.packet),
               [sw](pkt::Packet&& p) { sw->deliver(std::move(p)); });
    }
  }
};

pkt::Packet udp(std::uint16_t dst_port) {
  pkt::PacketSpec spec;
  spec.ip_src = pkt::Ipv4Addr(1, 2, 3, 4);
  spec.ip_dst = pkt::Ipv4Addr(9, 9, 9, 9);
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = 5;
  spec.dst_port = dst_port;
  spec.payload = {0};
  return pkt::build_packet(spec);
}

std::unique_ptr<Fabric> make_fabric(FabricConfig cfg) {
  auto fabric_ptr = std::make_unique<Fabric>(cfg);
  Fabric& fabric = *fabric_ptr;
  SpaceConfig ctr;
  ctr.id = kCtr;
  ctr.name = "f.ctr";
  ctr.cls = ConsistencyClass::kEWO;
  ctr.merge = MergePolicy::kGCounter;
  ctr.size = 4;
  fabric.add_space(ctr);
  SpaceConfig reg;
  reg.id = kReg;
  reg.name = "f.reg";
  reg.cls = ConsistencyClass::kSRO;
  reg.size = 8;
  fabric.add_space(reg);
  fabric.install([] { return std::make_unique<Driver>(); });
  fabric.start();
  return fabric_ptr;
}

class TopologySweep : public ::testing::TestWithParam<FabricConfig::Topology> {};

TEST_P(TopologySweep, BothProtocolsWorkOnEveryTopology) {
  FabricConfig cfg;
  cfg.num_switches = 4;
  cfg.topology = GetParam();
  cfg.spine_count = 2;
  auto fabric_ptr = make_fabric(cfg);
  Fabric& fabric = *fabric_ptr;
  std::uint64_t delivered = 0;
  fabric.set_delivery_sink([&](const pkt::Packet&) { ++delivered; });

  for (int i = 0; i < 8; ++i) fabric.sw(i % 4).inject(udp(1111));
  fabric.sw(3).inject(udp(2222));
  fabric.run_for(200 * kMs);

  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(read_value(fabric.runtime(i), kCtr, 0), 8u) << "switch " << i;
    EXPECT_EQ(fabric.runtime(i).sro_space(kReg)->read(1).value(), 42u) << "switch " << i;
  }
  EXPECT_EQ(delivered, 9u);
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologySweep,
                         ::testing::Values(FabricConfig::Topology::kFullMesh,
                                           FabricConfig::Topology::kChain,
                                           FabricConfig::Topology::kLeafSpine));

TEST(Fabric, LeafSpineTransitCarriesProtocolTraffic) {
  FabricConfig cfg;
  cfg.num_switches = 3;
  cfg.topology = FabricConfig::Topology::kLeafSpine;
  cfg.spine_count = 2;
  auto fabric_ptr = make_fabric(cfg);
  Fabric& fabric = *fabric_ptr;
  fabric.sw(0).inject(udp(2222));
  fabric.run_for(100 * kMs);
  // The chain write crossed the spines (leaves are not directly connected).
  EXPECT_EQ(fabric.runtime(2).sro_space(kReg)->read(1).value(), 42u);
  EXPECT_GT(fabric.network().total_stats().packets_sent, 0u);
}

TEST(Fabric, ApiMisuseThrows) {
  FabricConfig cfg;
  cfg.num_switches = 2;
  Fabric fabric(cfg);
  EXPECT_THROW(fabric.start(), std::logic_error);  // before install
  fabric.install(nullptr);
  EXPECT_THROW(fabric.install(nullptr), std::logic_error);  // twice
  SpaceConfig sp;
  EXPECT_THROW(fabric.add_space(sp), std::logic_error);  // after install
  FabricConfig bad;
  bad.num_switches = 0;
  EXPECT_THROW(Fabric{bad}, std::invalid_argument);
}

TEST(Fabric, RealisticNfDeploymentFitsMemoryBudget) {
  // A production-sized NAT + firewall state deployment on 4 switches must
  // fit the ~10 MB SRAM budget the paper centers on.
  FabricConfig cfg;
  cfg.num_switches = 4;
  Fabric fabric(cfg);
  fabric.add_space(nf::NatApp::space(65536));
  fabric.add_space(nf::FirewallApp::space(65536));
  fabric.add_space(nf::DdosDetectorApp::sketch_space(3, 4096));
  fabric.add_space(nf::DdosDetectorApp::total_space());
  fabric.add_space(nf::RateLimiterApp::space(4096));
  fabric.install(nullptr);
  fabric.start();
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    EXPECT_TRUE(fabric.sw(i).within_memory_budget())
        << "switch " << i << " uses " << fabric.sw(i).memory_bytes() << " bytes";
  }
}

TEST(Fabric, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    FabricConfig cfg;
    cfg.num_switches = 3;
    cfg.link.loss_probability = 0.2;
    cfg.seed = seed;
    auto fabric_ptr = make_fabric(cfg);
    Fabric& fabric = *fabric_ptr;
    for (int i = 0; i < 50; ++i) fabric.sw(i % 3).inject(udp(1111));
    fabric.run_for(300 * kMs);
    return fabric.network().total_stats().packets_sent;
  };
  EXPECT_EQ(run(7), run(7));
}

// ---------------------------------------------------------------------------
// Heavy hitters (§8): network-wide detection without a coordinator.
// ---------------------------------------------------------------------------

pkt::Packet from_src(pkt::Ipv4Addr src) {
  pkt::PacketSpec spec;
  spec.ip_src = src;
  spec.ip_dst = pkt::Ipv4Addr(9, 9, 9, 9);
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = 1;
  spec.dst_port = 2;
  spec.payload = {0};
  return pkt::build_packet(spec);
}

struct HhRig {
  Fabric fabric;
  std::vector<nf::HeavyHitterApp*> apps;
  int detections = 0;
  pkt::Ipv4Addr detected_prefix;

  explicit HhRig(std::uint64_t threshold) : fabric(make_cfg()) {
    fabric.add_space(nf::HeavyHitterApp::space());
    nf::HeavyHitterApp::Config hcfg;
    hcfg.threshold = threshold;
    fabric.install([&, hcfg]() {
      auto app = std::make_unique<nf::HeavyHitterApp>(hcfg);
      app->on_heavy_hitter = [&](pkt::Ipv4Addr prefix, std::uint64_t, TimeNs) {
        ++detections;
        detected_prefix = prefix;
      };
      apps.push_back(app.get());
      return app;
    });
    fabric.start();
  }
  static FabricConfig make_cfg() {
    FabricConfig c;
    c.num_switches = 4;
    c.runtime.sync_period = 1 * kMs;
    return c;
  }
};

TEST(HeavyHitter, DetectsAggregateInvisibleToAnySingleSwitch) {
  HhRig rig(/*threshold=*/100);
  const pkt::Ipv4Addr talker{50, 1, 2, 3};
  // 120 packets spread evenly: 30 per switch, all below the threshold alone.
  for (int i = 0; i < 120; ++i) {
    rig.fabric.sw(i % 4).inject(from_src(talker));
    if (i % 10 == 9) rig.fabric.run_for(500 * kUs);
  }
  rig.fabric.run_for(100 * kMs);
  EXPECT_GT(rig.detections, 0);
  EXPECT_EQ(rig.detected_prefix, pkt::Ipv4Addr(50, 1, 2, 0));  // /24 aggregation
  // Every switch reads the same fabric-wide count.
  const auto c = rig.apps[0]->count(rig.fabric.runtime(0), talker);
  EXPECT_EQ(c, 120u);
  EXPECT_EQ(rig.apps[3]->count(rig.fabric.runtime(3), talker), c);
}

TEST(HeavyHitter, QuietSourcesNeverReported) {
  HhRig rig(/*threshold=*/100);
  for (int i = 0; i < 40; ++i) {
    rig.fabric.sw(i % 4).inject(from_src(pkt::Ipv4Addr(60, 0, 0, static_cast<std::uint8_t>(i))));
  }
  rig.fabric.run_for(100 * kMs);
  EXPECT_EQ(rig.detections, 0);
}

TEST(HeavyHitter, ReportedOncePerSwitch) {
  HhRig rig(/*threshold=*/10);
  const pkt::Ipv4Addr talker{51, 1, 1, 1};
  for (int i = 0; i < 100; ++i) rig.fabric.sw(0).inject(from_src(talker));
  rig.fabric.run_for(100 * kMs);
  std::uint64_t reports = 0;
  for (auto* app : rig.apps) reports += app->stats().reports;
  EXPECT_EQ(reports, static_cast<std::uint64_t>(rig.detections));
  EXPECT_LE(reports, rig.fabric.size());  // at most one report per switch
}

}  // namespace
}  // namespace swish::shm
