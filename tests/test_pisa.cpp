// Unit tests: PISA stateful objects, control-plane CPU model, switch
// processing (forwarding, recirculation, multicast, packet generator,
// capacity, memory budget).
#include <gtest/gtest.h>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "pisa/switch.hpp"

namespace swish::pisa {
namespace {

TEST(RegisterArray, ReadWriteAddMax) {
  RegisterArray r("r", 8, 64);
  EXPECT_EQ(r.read(3), 0u);
  r.write(3, 42);
  EXPECT_EQ(r.read(3), 42u);
  EXPECT_EQ(r.add(3, 8), 50u);
  EXPECT_EQ(r.merge_max(3, 10), 50u);
  EXPECT_EQ(r.merge_max(3, 100), 100u);
  r.fill(7);
  for (RegisterIndex i = 0; i < 8; ++i) EXPECT_EQ(r.read(i), 7u);
}

TEST(RegisterArray, NarrowEntriesMask) {
  RegisterArray r("r", 4, 8);
  r.write(0, 0x1FF);
  EXPECT_EQ(r.read(0), 0xFFu);
  RegisterArray bit("b", 4, 1);
  bit.write(1, 1);
  EXPECT_EQ(bit.read(1), 1u);
  bit.write(1, 2);
  EXPECT_EQ(bit.read(1), 0u);
}

TEST(RegisterArray, OutOfRangeThrows) {
  RegisterArray r("r", 2, 64);
  EXPECT_THROW(static_cast<void>(r.read(2)), std::out_of_range);
  EXPECT_THROW(r.write(5, 1), std::out_of_range);
}

TEST(RegisterArray, MemoryAccounting) {
  EXPECT_EQ(RegisterArray("a", 1000, 64).memory_bytes(), 8000u);
  EXPECT_EQ(RegisterArray("b", 1000, 1).memory_bytes(), 125u);
  EXPECT_EQ(RegisterArray("c", 1000, 32).memory_bytes(), 4000u);
}

TEST(RegisterArray, MergeMaxNeverLowers) {
  RegisterArray r("r", 2, 8);
  r.write(0, 200);
  EXPECT_EQ(r.merge_max(0, 256), 200u);  // 256 is 0 at 8 bits
  EXPECT_EQ(r.read(0), 200u);
  EXPECT_EQ(r.merge_max(0, 0x1FF), 0xFFu);
  EXPECT_EQ(r.read(1), 0u);
}

// Entries are stored in 1, 2, 4 or 8 bytes; exercise both sides of every
// storage-width step and check that neighbours never bleed into each other.
TEST(RegisterArray, EveryWidthBoundary) {
  for (unsigned bits : {1u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u, 63u, 64u}) {
    SCOPED_TRACE("entry_bits=" + std::to_string(bits));
    const std::uint64_t mask = bits == 64 ? ~0ULL : (1ULL << bits) - 1;
    RegisterArray r("r", 4, bits);

    r.write(1, mask);
    EXPECT_EQ(r.read(1), mask);
    EXPECT_EQ(r.read(0), 0u);
    EXPECT_EQ(r.read(2), 0u);

    r.write(2, mask + 1);
    EXPECT_EQ(r.read(2), 0u);
    EXPECT_EQ(r.read(1), mask);

    EXPECT_EQ(r.add(1, 1), 0u);
    EXPECT_EQ(r.add(1, mask), mask);
    EXPECT_EQ(r.add(1, 2), 1u);

    EXPECT_EQ(r.merge_or(3, ~0ULL), mask);
    EXPECT_EQ(r.read(3), mask);
    EXPECT_EQ(r.read(2), 0u);

    r.fill(~0ULL);
    for (RegisterIndex i = 0; i < 4; ++i) EXPECT_EQ(r.read(i), mask);
    r.fill(mask + 1);
    for (RegisterIndex i = 0; i < 4; ++i) EXPECT_EQ(r.read(i), 0u);

    EXPECT_EQ(RegisterArray("m", 1000, bits).memory_bytes(), (1000 * bits + 7) / 8);
  }
}

TEST(RegisterArray, BadBitsThrow) {
  EXPECT_THROW(RegisterArray("x", 4, 0), std::invalid_argument);
  EXPECT_THROW(RegisterArray("x", 4, 65), std::invalid_argument);
}

TEST(ExactTable, InsertLookupEraseCapacity) {
  ExactTable t("t", 2);
  const CpToken token = [] {
    sim::Simulator sim;
    return ControlPlane(sim, {}).token();
  }();
  EXPECT_FALSE(t.lookup(1).has_value());
  EXPECT_TRUE(t.insert(token, 1, 100));
  EXPECT_TRUE(t.insert(token, 2, 200));
  EXPECT_FALSE(t.insert(token, 3, 300));  // full
  EXPECT_TRUE(t.insert(token, 1, 111));   // overwrite OK when full
  EXPECT_EQ(t.lookup(1).value(), 111u);
  EXPECT_TRUE(t.erase(token, 1));
  EXPECT_FALSE(t.erase(token, 1));
  EXPECT_EQ(t.entry_count(), 1u);
  t.clear(token);
  EXPECT_EQ(t.entry_count(), 0u);
}

TEST(ControlPlane, ServiceRatePacesJobs) {
  sim::Simulator sim;
  ControlPlane cp(sim, {.ops_per_sec = 1000, .max_queue = 100});  // 1 ms per op
  std::vector<TimeNs> done;
  for (int i = 0; i < 3; ++i) {
    cp.submit([&] { done.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0], 1 * kMs);
  EXPECT_EQ(done[1], 2 * kMs);
  EXPECT_EQ(done[2], 3 * kMs);
}

TEST(ControlPlane, QueueOverflowDrops) {
  sim::Simulator sim;
  ControlPlane cp(sim, {.ops_per_sec = 1000, .max_queue = 10});
  int executed = 0;
  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    if (cp.submit([&] { ++executed; })) ++accepted;
  }
  sim.run();
  EXPECT_LE(accepted, 12);
  EXPECT_EQ(executed, accepted);
  EXPECT_EQ(cp.stats().dropped, 100u - static_cast<unsigned>(accepted));
}

TEST(ControlPlane, GateSuppressesJobs) {
  sim::Simulator sim;
  ControlPlane cp(sim, {});
  bool alive = true;
  cp.set_gate([&] { return alive; });
  int ran = 0;
  cp.submit([&] { ++ran; });
  alive = false;
  cp.submit([&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 0);  // first job also gated: liveness checked at run time
}

struct SwitchRig {
  sim::ShardSet shards{1};
  sim::Simulator& sim = shards.sim(0);
  net::Network net{shards, 5};
  Switch a{sim, net, 1, {}};
  Switch b{sim, net, 2, {}};
  SwitchRig() {
    net.attach(a);
    net.attach(b);
    net.connect(1, 2, net::LinkParams{});
    auto tables = net::compute_routes(net);
    a.set_routing(std::move(tables[1]));
    b.set_routing(std::move(tables[2]));
  }
};

class EchoProgram : public PipelineProgram {
 public:
  void process(PacketContext& ctx) override {
    ++seen;
    last_ingress = ctx.ingress_port;
    if (deliver_all) ctx.sw.deliver(std::move(ctx.packet));
  }
  int seen = 0;
  bool deliver_all = false;
  net::PortId last_ingress = net::kInvalidPort;
};

pkt::Packet some_packet() {
  pkt::PacketSpec spec;
  spec.ip_src = pkt::Ipv4Addr(1, 1, 1, 1);
  spec.ip_dst = pkt::Ipv4Addr(2, 2, 2, 2);
  spec.payload = {1, 2, 3};
  return pkt::build_packet(spec);
}

TEST(Switch, InjectReachesProgram) {
  SwitchRig rig;
  auto prog = std::make_unique<EchoProgram>();
  EchoProgram* p = prog.get();
  rig.a.install_program(std::move(prog));
  rig.a.inject(some_packet());
  rig.sim.run();
  EXPECT_EQ(p->seen, 1);
  EXPECT_EQ(rig.a.stats().injected, 1u);
  EXPECT_EQ(rig.a.stats().processed, 1u);
}

TEST(Switch, SendToNodeTraversesLink) {
  SwitchRig rig;
  auto prog_b = std::make_unique<EchoProgram>();
  EchoProgram* pb = prog_b.get();
  rig.b.install_program(std::move(prog_b));
  rig.a.send_to_node(2, some_packet(), 0);
  rig.sim.run();
  EXPECT_EQ(pb->seen, 1);
}

TEST(Switch, SendToSelfRecirculates) {
  SwitchRig rig;
  auto prog = std::make_unique<EchoProgram>();
  EchoProgram* p = prog.get();
  rig.a.install_program(std::move(prog));
  rig.a.send_to_node(1, some_packet(), 0);
  rig.sim.run();
  EXPECT_EQ(p->seen, 1);
  EXPECT_EQ(rig.a.stats().recirculated, 1u);
}

TEST(Switch, DeliverySinkInvoked) {
  SwitchRig rig;
  auto prog = std::make_unique<EchoProgram>();
  prog->deliver_all = true;
  rig.a.install_program(std::move(prog));
  int delivered = 0;
  rig.a.set_delivery_sink([&](const pkt::Packet&) { ++delivered; });
  rig.a.inject(some_packet());
  rig.sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rig.a.stats().delivered, 1u);
}

TEST(Switch, PipelineLatencyAppliedToEgress) {
  SwitchRig rig;
  auto prog = std::make_unique<EchoProgram>();
  prog->deliver_all = true;
  rig.a.install_program(std::move(prog));
  TimeNs delivered_at = -1;
  rig.a.set_delivery_sink([&](const pkt::Packet&) { delivered_at = rig.sim.now(); });
  rig.a.inject(some_packet());
  rig.sim.run();
  EXPECT_EQ(delivered_at, rig.a.config().pipeline_latency);
}

TEST(Switch, MulticastSkipsSelf) {
  SwitchRig rig;
  auto prog_b = std::make_unique<EchoProgram>();
  EchoProgram* pb = prog_b.get();
  rig.b.install_program(std::move(prog_b));
  auto prog_a = std::make_unique<EchoProgram>();
  EchoProgram* pa = prog_a.get();
  rig.a.install_program(std::move(prog_a));
  const std::vector<SwitchId> group{1, 2};
  rig.a.multicast_nodes(group, some_packet());
  rig.sim.run();
  EXPECT_EQ(pb->seen, 1);
  EXPECT_EQ(pa->seen, 0);
}

/// Forwards every packet back to the local switch, threading the real
/// recirculation count — an infinite loop unless the cap intervenes.
class RecircForeverProgram : public PipelineProgram {
 public:
  void process(PacketContext& ctx) override {
    ctx.sw.send_to_node(ctx.sw.id(), std::move(ctx.packet), 0, ctx.recirc_count);
  }
};

TEST(Switch, RecirculationCapDropsLoopingPackets) {
  SwitchRig rig;
  rig.a.install_program(std::make_unique<RecircForeverProgram>());
  rig.a.inject(some_packet());
  rig.sim.run();  // terminates only because the cap fires
  EXPECT_EQ(rig.a.stats().recirculated, rig.a.config().max_recirculations);
  EXPECT_EQ(rig.a.stats().dropped_recirc, 1u);
}

TEST(Switch, RecirculationCapConfigurable) {
  sim::ShardSet shards{1};
  sim::Simulator& sim = shards.sim(0);
  net::Network net{shards, 5};
  Switch::Config cfg;
  cfg.max_recirculations = 3;
  Switch sw{sim, net, 1, cfg};
  net.attach(sw);
  sw.install_program(std::make_unique<RecircForeverProgram>());
  sw.inject(some_packet());
  sim.run();
  EXPECT_EQ(sw.stats().recirculated, 3u);
  EXPECT_EQ(sw.stats().dropped_recirc, 1u);
}

/// Recirculates until the packet has been around `laps` times, then delivers
/// — the success-side pin of the cap boundary.
class RecircLapsProgram : public PipelineProgram {
 public:
  explicit RecircLapsProgram(unsigned laps) : laps_(laps) {}
  void process(PacketContext& ctx) override {
    if (ctx.recirc_count < laps_) {
      ctx.sw.send_to_node(ctx.sw.id(), std::move(ctx.packet), 0, ctx.recirc_count);
    } else {
      ctx.sw.deliver(std::move(ctx.packet));
    }
  }

 private:
  unsigned laps_;
};

TEST(Switch, RecirculationCapIsInclusiveAtTheBoundary) {
  // `recirc_count` counts recirculations already performed, so a cap of N
  // must permit a packet that needs exactly N trips around the pipeline —
  // an off-by-one here (> vs >=) would drop it one lap early.
  sim::ShardSet shards{1};
  sim::Simulator& sim = shards.sim(0);
  net::Network net{shards, 5};
  Switch::Config cfg;
  cfg.max_recirculations = 3;
  Switch sw{sim, net, 1, cfg};
  net.attach(sw);
  sw.install_program(std::make_unique<RecircLapsProgram>(3));
  sw.inject(some_packet());
  sim.run();
  EXPECT_EQ(sw.stats().recirculated, 3u);
  EXPECT_EQ(sw.stats().dropped_recirc, 0u);
  EXPECT_EQ(sw.stats().delivered, 1u);
}

TEST(Switch, RecirculationOnePastCapDrops) {
  // ...and the very next lap is the one the cap refuses.
  sim::ShardSet shards{1};
  sim::Simulator& sim = shards.sim(0);
  net::Network net{shards, 5};
  Switch::Config cfg;
  cfg.max_recirculations = 3;
  Switch sw{sim, net, 1, cfg};
  net.attach(sw);
  sw.install_program(std::make_unique<RecircLapsProgram>(4));
  sw.inject(some_packet());
  sim.run();
  EXPECT_EQ(sw.stats().recirculated, 3u);
  EXPECT_EQ(sw.stats().dropped_recirc, 1u);
  EXPECT_EQ(sw.stats().delivered, 0u);
}

TEST(Switch, ZeroRecirculationCapDisablesRecirculation) {
  sim::ShardSet shards{1};
  sim::Simulator& sim = shards.sim(0);
  net::Network net{shards, 5};
  Switch::Config cfg;
  cfg.max_recirculations = 0;
  Switch sw{sim, net, 1, cfg};
  net.attach(sw);
  sw.install_program(std::make_unique<RecircForeverProgram>());
  sw.inject(some_packet());
  sim.run();
  EXPECT_EQ(sw.stats().recirculated, 0u);
  EXPECT_EQ(sw.stats().dropped_recirc, 1u);
}

TEST(Switch, FailedSwitchDropsEverything) {
  SwitchRig rig;
  auto prog = std::make_unique<EchoProgram>();
  EchoProgram* p = prog.get();
  rig.a.install_program(std::move(prog));
  rig.a.fail();
  rig.a.inject(some_packet());
  rig.sim.run();
  EXPECT_EQ(p->seen, 0);
  rig.a.recover();
  rig.a.inject(some_packet());
  rig.sim.run();
  EXPECT_EQ(p->seen, 1);
}

TEST(Switch, CapacityDropsWhenOverloaded) {
  sim::ShardSet shards{1};
  sim::Simulator& sim = shards.sim(0);
  net::Network net{shards, 5};
  Switch::Config cfg;
  cfg.dataplane_pps = 1e6;  // 1 us per packet
  cfg.dataplane_queue = 10;
  Switch sw{sim, net, 1, cfg};
  net.attach(sw);
  sw.install_program(std::make_unique<EchoProgram>());
  for (int i = 0; i < 1000; ++i) sw.inject(some_packet());  // all at t=0
  sim.run();
  EXPECT_GT(sw.stats().dropped_capacity, 0u);
  EXPECT_LT(sw.stats().processed, 1000u);
}

TEST(Switch, PacketGeneratorRunsPeriodically) {
  SwitchRig rig;
  int fired = 0;
  rig.a.start_packet_generator(10 * kUs, [&] { ++fired; });
  rig.sim.run_until(100 * kUs);
  EXPECT_EQ(fired, 10);
}

TEST(Switch, PacketGeneratorPausesWhileDead) {
  SwitchRig rig;
  int fired = 0;
  rig.a.start_packet_generator(10 * kUs, [&] { ++fired; });
  rig.sim.run_until(50 * kUs);
  rig.a.fail();
  rig.sim.run_until(100 * kUs);
  EXPECT_EQ(fired, 5);
}

TEST(Switch, MemoryBudgetTracksObjects) {
  SwitchRig rig;
  EXPECT_EQ(rig.a.memory_bytes(), 0u);
  rig.a.add_register_array("r", 1024, 64);
  EXPECT_EQ(rig.a.memory_bytes(), 8192u);
  EXPECT_TRUE(rig.a.within_memory_budget());
  rig.a.add_register_array("big", 2 * 1024 * 1024, 64);  // 16 MB
  EXPECT_FALSE(rig.a.within_memory_budget());
}

}  // namespace
}  // namespace swish::pisa
