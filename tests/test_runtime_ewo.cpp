// Protocol tests: EWO — immediate mirroring, batching, periodic sync under
// loss, LWW vs CRDT convergence, clock-skew behaviour.
#include <gtest/gtest.h>

#include "swishmem/fabric.hpp"

#include "read_value.hpp"

namespace swish::shm {
namespace {

constexpr std::uint32_t kCtr = 30;
constexpr std::uint32_t kLww = 31;

/// port 1000+k: G-counter add 1 at key k; port 2000+k: LWW write src_port.
class Driver : public NfApp {
 public:
  void process(pisa::PacketContext& ctx, ShmRuntime& rt) override {
    if (!ctx.parsed || !ctx.parsed->udp) return;
    const std::uint16_t port = ctx.parsed->udp->dst_port;
    if (port >= 1000 && port < 2000) {
      rt.update(kCtr, port - 1000, 1);
    } else if (port >= 2000 && port < 3000) {
      rt.write({{kLww, static_cast<std::uint64_t>(port - 2000), ctx.parsed->udp->src_port}},
               pkt::Packet{}, nullptr);
    }
    ctx.sw.deliver(std::move(ctx.packet));
  }
};

pkt::Packet udp(std::uint16_t src_port, std::uint16_t dst_port) {
  pkt::PacketSpec spec;
  spec.ip_src = pkt::Ipv4Addr(1, 2, 3, 4);
  spec.ip_dst = pkt::Ipv4Addr(9, 9, 9, 9);
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = src_port;
  spec.dst_port = dst_port;
  spec.payload = {0};
  return pkt::build_packet(spec);
}

struct Rig {
  shm::Fabric fabric;

  explicit Rig(FabricConfig cfg, std::size_t mirror_batch = 1, bool mirror = true,
               SpaceConfig* ctr_out = nullptr) : fabric(cfg) {
    SpaceConfig ctr;
    ctr.id = kCtr;
    ctr.name = "ctr";
    ctr.cls = ConsistencyClass::kEWO;
    ctr.merge = MergePolicy::kGCounter;
    ctr.size = 64;
    ctr.mirror_batch = mirror_batch;
    ctr.mirror_writes = mirror;
    if (ctr_out) *ctr_out = ctr;
    fabric.add_space(ctr);
    SpaceConfig lww;
    lww.id = kLww;
    lww.name = "lww";
    lww.cls = ConsistencyClass::kEWO;
    lww.merge = MergePolicy::kLww;
    lww.size = 64;
    lww.mirror_batch = mirror_batch;
    lww.mirror_writes = mirror;
    fabric.add_space(lww);
    fabric.install([]() { return std::make_unique<Driver>(); });
    fabric.start();
  }

  bool counters_converged(std::uint64_t key, std::uint64_t expect) {
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      if (read_value(fabric.runtime(i), kCtr, key) != expect) return false;
    }
    return true;
  }
};

FabricConfig cfg3() {
  FabricConfig c;
  c.num_switches = 3;
  return c;
}

TEST(Ewo, LocalWriteVisibleImmediately) {
  Rig rig(cfg3());
  rig.fabric.sw(0).inject(udp(0, 1000));
  rig.fabric.run_for(1);  // processing happens synchronously at injection
  EXPECT_EQ(read_value(rig.fabric.runtime(0), kCtr, 0), 1u);
}

TEST(Ewo, CounterUpdateReturnsNewValueSynchronously) {
  Rig rig(cfg3());
  ShmRuntime& rt = rig.fabric.runtime(0);
  std::vector<std::uint64_t> done_values;
  EXPECT_EQ(rt.update(kCtr, 2, 5, [&](std::uint64_t v) { done_values.push_back(v); }), 5u);
  EXPECT_EQ(done_values, (std::vector<std::uint64_t>{5}));  // ran before the return
  EXPECT_EQ(rt.update(kCtr, 2, 1), 6u);
  EXPECT_EQ(read_value(rt, kCtr, 2), 6u);
}

TEST(Ewo, MirrorPropagatesWithoutPeriodicSync) {
  FabricConfig cfg = cfg3();
  cfg.runtime.sync_period = 10 * kSec;  // effectively off
  Rig rig(cfg);
  rig.fabric.sw(0).inject(udp(0, 1005));
  rig.fabric.run_for(5 * kMs);
  EXPECT_TRUE(rig.counters_converged(5, 1));
}

TEST(Ewo, CountsFromAllSwitchesAggregate) {
  Rig rig(cfg3());
  for (int i = 0; i < 6; ++i) rig.fabric.sw(i % 3).inject(udp(0, 1007));
  rig.fabric.run_for(20 * kMs);
  EXPECT_TRUE(rig.counters_converged(7, 6));
}

TEST(Ewo, SyncAloneConvergesWhenMirrorsDisabled) {
  FabricConfig cfg = cfg3();
  cfg.runtime.sync_period = 2 * kMs;
  Rig rig(cfg, /*mirror_batch=*/1, /*mirror=*/false);
  for (int i = 0; i < 4; ++i) rig.fabric.sw(1).inject(udp(0, 1001));
  // Mirrors disabled: before a sync round, remote replicas are behind.
  EXPECT_EQ(read_value(rig.fabric.runtime(0), kCtr, 1), 0u);
  rig.fabric.run_for(30 * kMs);
  EXPECT_TRUE(rig.counters_converged(1, 4));
  EXPECT_GT(rig.fabric.metrics_snapshot().values.at("shm.sw2.ewo.sync_rounds").count, 0u);
}

TEST(Ewo, ConvergesUnderHeavyLoss) {
  FabricConfig cfg = cfg3();
  cfg.link.loss_probability = 0.4;
  cfg.runtime.sync_period = 1 * kMs;
  Rig rig(cfg);
  for (int i = 0; i < 30; ++i) rig.fabric.sw(i % 3).inject(udp(0, 1002));
  rig.fabric.run_for(1 * kSec);  // many sync rounds: gossip wins eventually
  EXPECT_TRUE(rig.counters_converged(2, 30));
}

TEST(Ewo, LwwConvergesToNewestWrite) {
  Rig rig(cfg3());
  rig.fabric.sw(0).inject(udp(10, 2004));
  rig.fabric.run_for(1 * kMs);
  rig.fabric.sw(2).inject(udp(20, 2004));  // strictly later timestamp
  rig.fabric.run_for(50 * kMs);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(read_value(rig.fabric.runtime(i), kLww, 4), 20u) << "switch " << i;
  }
}

TEST(Ewo, LwwConcurrentWritesAgreeOnOneWinner) {
  Rig rig(cfg3());
  // Same instant at two switches: clock skew + switch-id tiebreak decide, but
  // all replicas must agree.
  rig.fabric.sw(0).inject(udp(10, 2009));
  rig.fabric.sw(2).inject(udp(20, 2009));
  rig.fabric.run_for(100 * kMs);
  const auto v = read_value(rig.fabric.runtime(0), kLww, 9);
  EXPECT_TRUE(v == 10 || v == 20);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(read_value(rig.fabric.runtime(i), kLww, 9), v);
  }
}

TEST(Ewo, BatchingReducesUpdatePackets) {
  FabricConfig cfg = cfg3();
  cfg.runtime.sync_period = 10 * kSec;  // isolate the mirror path
  Rig unbatched(cfg, /*mirror_batch=*/1);
  Rig batched(cfg, /*mirror_batch=*/16);
  for (int i = 0; i < 64; ++i) {
    unbatched.fabric.sw(0).inject(udp(0, 1003));
    batched.fabric.sw(0).inject(udp(0, 1003));
  }
  unbatched.fabric.run_for(50 * kMs);
  batched.fabric.run_for(50 * kMs);
  EXPECT_TRUE(unbatched.counters_converged(3, 64));
  EXPECT_TRUE(batched.counters_converged(3, 64));
  const char* kSent = "shm.sw1.ewo.updates_sent";
  EXPECT_LT(batched.fabric.metrics_snapshot().values.at(kSent).count,
            unbatched.fabric.metrics_snapshot().values.at(kSent).count / 4);
}

TEST(Ewo, PartialBatchFlushedByTimer) {
  FabricConfig cfg = cfg3();
  cfg.runtime.sync_period = 10 * kSec;
  cfg.runtime.mirror_flush_interval = 500 * kUs;
  Rig rig(cfg, /*mirror_batch=*/64);  // batch never fills
  rig.fabric.sw(0).inject(udp(0, 1006));
  rig.fabric.run_for(10 * kMs);  // flush timer fires
  EXPECT_TRUE(rig.counters_converged(6, 1));
}

TEST(Ewo, RandomOneSyncConvergesUnderLossWithoutMirrors) {
  // Each sync chunk goes to one random group member (§7): with mirrors off
  // and 20% loss, repeated rounds still reach every replica.
  FabricConfig cfg;
  cfg.num_switches = 5;
  cfg.link.loss_probability = 0.2;
  cfg.runtime.sync_period = 1 * kMs;
  Rig rig(cfg, 1, /*mirror=*/false);
  for (int i = 0; i < 10; ++i) rig.fabric.sw(0).inject(udp(0, 1001));
  rig.fabric.run_for(500 * kMs);
  EXPECT_TRUE(rig.counters_converged(1, 10));
}

TEST(Ewo, NoWritesMeansNoSyncTraffic) {
  FabricConfig cfg = cfg3();
  cfg.runtime.sync_period = 1 * kMs;
  Rig rig(cfg);
  rig.fabric.run_for(50 * kMs);
  EXPECT_EQ(rig.fabric.metrics_snapshot().values.at("shm.sw1.ewo.sync_entries_sent").count, 0u);
}

TEST(Ewo, UpdatesAreCountedBidirectionally) {
  Rig rig(cfg3());
  rig.fabric.sw(0).inject(udp(0, 1000));
  rig.fabric.run_for(20 * kMs);
  const auto snap = rig.fabric.metrics_snapshot();
  EXPECT_GT(snap.values.at("shm.sw1.ewo.updates_sent").count, 0u);
  EXPECT_GT(snap.values.at("shm.sw2.ewo.updates_received").count, 0u);
  EXPECT_GT(snap.values.at("shm.sw2.ewo.entries_merged").count, 0u);
}

class LossSweep : public ::testing::TestWithParam<double> {};

TEST_P(LossSweep, CountersEventuallyExactAtAnyLossRate) {
  FabricConfig cfg = cfg3();
  cfg.link.loss_probability = GetParam();
  cfg.runtime.sync_period = 1 * kMs;
  Rig rig(cfg);
  for (int i = 0; i < 12; ++i) rig.fabric.sw(i % 3).inject(udp(0, 1001));
  rig.fabric.run_for(2 * kSec);
  EXPECT_TRUE(rig.counters_converged(1, 12)) << "loss=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Loss, LossSweep, ::testing::Values(0.0, 0.05, 0.2, 0.5));

}  // namespace
}  // namespace swish::shm
