// Tests: traffic/attack generators — determinism, stamps, flow structure,
// re-routing, failure avoidance; measuring sink latency accounting.
#include <gtest/gtest.h>

#include <map>

#include "swishmem/fabric.hpp"
#include "workload/attack.hpp"
#include "workload/traffic.hpp"

namespace swish::workload {
namespace {

/// Pass-through NF: deliver everything.
class PassApp : public shm::NfApp {
 public:
  void process(pisa::PacketContext& ctx, shm::ShmRuntime&) override {
    ctx.sw.deliver(std::move(ctx.packet));
  }
};

struct Rig {
  shm::Fabric fabric;
  explicit Rig(std::size_t n = 3) : fabric(make_cfg(n)) {
    fabric.install([]() { return std::make_unique<PassApp>(); });
    fabric.start();
  }
  static shm::FabricConfig make_cfg(std::size_t n) {
    shm::FabricConfig c;
    c.num_switches = n;
    return c;
  }
};

TEST(Stamp, EncodeDecodeRoundTrip) {
  Stamp s{0xDEADBEEF, 42, 123456789};
  auto bytes = s.encode();
  EXPECT_EQ(bytes.size(), Stamp::kSize);
  auto d = Stamp::decode(bytes);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->flow_id, s.flow_id);
  EXPECT_EQ(d->seq, s.seq);
  EXPECT_EQ(d->send_time, s.send_time);
}

TEST(Stamp, PaddingPreservesDecode) {
  Stamp s{1, 2, 3};
  auto bytes = s.encode(/*pad_to=*/64);
  EXPECT_EQ(bytes.size(), 64u);
  EXPECT_TRUE(Stamp::decode(bytes).has_value());
}

TEST(Stamp, ShortPayloadRejected) {
  std::vector<std::uint8_t> tiny(10, 0);
  EXPECT_FALSE(Stamp::decode(tiny).has_value());
}

TEST(Traffic, GeneratesApproximatelyConfiguredRate) {
  Rig rig;
  TrafficConfig cfg;
  cfg.flows_per_sec = 5000;
  TrafficGenerator gen(rig.fabric, cfg);
  gen.start(200 * kMs);
  rig.fabric.run_for(400 * kMs);
  EXPECT_NEAR(static_cast<double>(gen.stats().flows_started), 1000.0, 150.0);
  EXPECT_GT(gen.stats().packets_sent, gen.stats().flows_started);  // >= 2 pkts/flow
}

TEST(Traffic, ZeroRateStartsNoFlows) {
  // A zero rate draws an infinite gap, which no TimeNs holds: the generator
  // must stop, not cast it.
  Rig rig;
  TrafficConfig cfg;
  cfg.flows_per_sec = 0;
  TrafficGenerator gen(rig.fabric, cfg);
  EXPECT_NO_THROW(gen.start(200 * kMs));
  EXPECT_NO_THROW(rig.fabric.run_for(400 * kMs));
  EXPECT_EQ(gen.stats().flows_started, 0u);
  EXPECT_EQ(gen.stats().packets_sent, 0u);
}

TEST(Traffic, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    Rig rig;
    TrafficConfig cfg;
    cfg.seed = seed;
    TrafficGenerator gen(rig.fabric, cfg);
    gen.start(100 * kMs);
    rig.fabric.run_for(300 * kMs);
    return gen.stats().packets_sent;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(Traffic, FlowsAreStickyWithoutReroute) {
  Rig rig;
  TrafficConfig cfg;
  cfg.reroute_probability = 0.0;
  cfg.flows_per_sec = 500;
  TrafficGenerator gen(rig.fabric, cfg);
  gen.start(100 * kMs);
  rig.fabric.run_for(500 * kMs);
  EXPECT_EQ(gen.stats().reroutes, 0u);
}

TEST(Traffic, RerouteMovesFlows) {
  Rig rig;
  TrafficConfig cfg;
  cfg.reroute_probability = 0.5;
  cfg.flows_per_sec = 500;
  cfg.mean_packets_per_flow = 16;
  TrafficGenerator gen(rig.fabric, cfg);
  gen.start(100 * kMs);
  rig.fabric.run_for(500 * kMs);
  EXPECT_GT(gen.stats().reroutes, 0u);
}

TEST(Traffic, FirstPacketIsSynLastIsFin) {
  Rig rig;
  TrafficConfig cfg;
  cfg.flows_per_sec = 50;
  std::map<std::uint64_t, std::vector<std::uint8_t>> flags_by_flow;
  TrafficGenerator gen(rig.fabric, cfg);
  gen.on_inject = [&](const Stamp& s, const pkt::Packet& p) {
    auto parsed = p.parse();
    ASSERT_TRUE(parsed && parsed->tcp);
    flags_by_flow[s.flow_id].push_back(parsed->tcp->flags);
  };
  gen.start(100 * kMs);
  rig.fabric.run_for(1 * kSec);
  ASSERT_FALSE(flags_by_flow.empty());
  for (const auto& [flow, flags] : flags_by_flow) {
    EXPECT_EQ(flags.front() & pkt::TcpFlags::kSyn, pkt::TcpFlags::kSyn);
    EXPECT_EQ(flags.back() & pkt::TcpFlags::kFin, pkt::TcpFlags::kFin);
    for (std::size_t i = 1; i + 1 < flags.size(); ++i) {
      EXPECT_EQ(flags[i], pkt::TcpFlags::kAck);
    }
  }
}

TEST(Traffic, ZipfSkewsClientPopularity) {
  Rig rig;
  TrafficConfig cfg;
  cfg.zipf_theta = 1.2;
  cfg.num_clients = 64;
  cfg.flows_per_sec = 3000;
  std::map<std::uint32_t, int> flows_per_client;
  TrafficGenerator gen(rig.fabric, cfg);
  gen.on_inject = [&](const Stamp& s, const pkt::Packet& p) {
    if (s.seq == 0) ++flows_per_client[p.parse()->ipv4->src.value()];
  };
  gen.start(300 * kMs);
  rig.fabric.run_for(1 * kSec);
  int max_count = 0, total = 0;
  for (const auto& [c, n] : flows_per_client) {
    max_count = std::max(max_count, n);
    total += n;
  }
  EXPECT_GT(max_count, total / 10);  // heavy skew: one client dominates
}

TEST(Traffic, AvoidsDeadIngressSwitches) {
  Rig rig;
  rig.fabric.kill_switch(0);
  TrafficConfig cfg;
  cfg.flows_per_sec = 1000;
  TrafficGenerator gen(rig.fabric, cfg);
  gen.start(100 * kMs);
  rig.fabric.run_for(300 * kMs);
  EXPECT_EQ(rig.fabric.sw(0).stats().injected, 0u);
  EXPECT_GT(rig.fabric.sw(1).stats().injected, 0u);
}

TEST(Traffic, MeasuringSinkRecordsLatency) {
  Rig rig;
  MeasuringSink sink(rig.fabric.simulator());
  rig.fabric.set_delivery_sink(sink.callback());
  TrafficConfig cfg;
  cfg.flows_per_sec = 500;
  TrafficGenerator gen(rig.fabric, cfg);
  gen.start(100 * kMs);
  rig.fabric.run_for(500 * kMs);
  EXPECT_EQ(sink.delivered(), gen.stats().packets_sent);
  EXPECT_EQ(sink.latency().count(), sink.delivered());
  // Every delivery passes one pipeline traversal at least.
  EXPECT_GE(sink.latency().min(),
            static_cast<std::uint64_t>(rig.fabric.sw(0).config().pipeline_latency));
}

TEST(Attack, FloodsVictimAtConfiguredRate) {
  Rig rig;
  AttackConfig cfg;
  cfg.packets_per_sec = 100'000;
  cfg.start = 10 * kMs;
  cfg.duration = 50 * kMs;
  AttackGenerator gen(rig.fabric, cfg);
  gen.start();
  rig.fabric.run_for(200 * kMs);
  EXPECT_NEAR(static_cast<double>(gen.stats().packets_sent), 5000.0, 500.0);
}

TEST(Attack, ZeroRateSendsOnlyTheFirstPacket) {
  Rig rig;
  AttackConfig cfg;
  cfg.packets_per_sec = 0;
  cfg.start = 10 * kMs;
  cfg.duration = 50 * kMs;
  AttackGenerator gen(rig.fabric, cfg);
  gen.start();
  EXPECT_NO_THROW(rig.fabric.run_for(200 * kMs));
  EXPECT_EQ(gen.stats().packets_sent, 1u);
}

TEST(Attack, SpreadsAcrossAllSwitches) {
  Rig rig;
  AttackConfig cfg;
  cfg.packets_per_sec = 30'000;
  cfg.duration = 30 * kMs;
  AttackGenerator gen(rig.fabric, cfg);
  gen.start();
  rig.fabric.run_for(100 * kMs);
  for (std::size_t i = 0; i < rig.fabric.size(); ++i) {
    EXPECT_GT(rig.fabric.sw(i).stats().injected, 0u) << "switch " << i;
  }
}

TEST(Attack, SourcesAreSpoofedRandom) {
  Rig rig;
  std::set<std::uint32_t> sources;
  rig.fabric.set_delivery_sink([&](const pkt::Packet& p) {
    auto parsed = p.parse();
    if (parsed && parsed->ipv4) sources.insert(parsed->ipv4->src.value());
  });
  AttackConfig cfg;
  cfg.packets_per_sec = 20'000;
  cfg.duration = 20 * kMs;
  AttackGenerator gen(rig.fabric, cfg);
  gen.start();
  rig.fabric.run_for(100 * kMs);
  EXPECT_GT(sources.size(), gen.stats().packets_sent / 2);  // near-unique
}

}  // namespace
}  // namespace swish::workload
