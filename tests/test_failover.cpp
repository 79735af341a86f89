// Failure handling tests (§6.3): heartbeat detection, chain repair for each
// failed role (head / middle / tail), writer retry across epochs, EWO group
// robustness, and full recovery via the tail's snapshot stream.
#include <gtest/gtest.h>

#include <algorithm>

#include "swishmem/fabric.hpp"

#include "read_value.hpp"

namespace swish::shm {
namespace {

constexpr std::uint32_t kSpace = 40;
constexpr std::uint32_t kCtr = 41;

class Driver : public NfApp {
 public:
  void process(pisa::PacketContext& ctx, ShmRuntime& rt) override {
    if (!ctx.parsed || !ctx.parsed->udp) return;
    const std::uint16_t port = ctx.parsed->udp->dst_port;
    pisa::Switch* sw = &ctx.sw;
    if (port >= 1000 && port < 2000) {
      std::vector<pkt::WriteOp> ops{
          {kSpace, static_cast<std::uint64_t>(port - 1000), ctx.parsed->udp->src_port}};
      rt.write(std::move(ops), std::move(ctx.packet),
               [sw](pkt::Packet&& p) { sw->deliver(std::move(p)); });
    } else if (port >= 3000 && port < 4000) {
      rt.update(kCtr, port - 3000, 1);
      ctx.sw.deliver(std::move(ctx.packet));
    }
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
  std::uint64_t delivered = 0;

  explicit Rig(FabricConfig cfg) : fabric(cfg) {
    SpaceConfig sp;
    sp.id = kSpace;
    sp.name = "fo";
    sp.cls = ConsistencyClass::kSRO;
    sp.size = 128;
    fabric.add_space(sp);
    SpaceConfig ctr;
    ctr.id = kCtr;
    ctr.name = "foctr";
    ctr.cls = ConsistencyClass::kEWO;
    ctr.merge = MergePolicy::kGCounter;
    ctr.size = 32;
    fabric.add_space(ctr);
    fabric.install([]() { return std::make_unique<Driver>(); });
    fabric.start();
    fabric.set_delivery_sink([this](const pkt::Packet&) { ++delivered; });
  }
};

FabricConfig cfg4() {
  FabricConfig c;
  c.num_switches = 4;
  c.runtime.heartbeat_period = 5 * kMs;
  c.controller.heartbeat_timeout = 20 * kMs;
  c.controller.check_period = 5 * kMs;
  c.runtime.write_retry_timeout = 3 * kMs;
  return c;
}

TEST(Failover, HeartbeatDetectionFiresWithinTimeout) {
  Rig rig(cfg4());
  SwitchId detected = kInvalidNode;
  TimeNs detected_at = 0;
  rig.fabric.controller().on_failure_detected = [&](SwitchId id, TimeNs t) {
    detected = id;
    detected_at = t;
  };
  rig.fabric.run_for(50 * kMs);  // warm: heartbeats flowing
  const TimeNs kill_time = rig.fabric.simulator().now();
  rig.fabric.kill_switch(2);
  rig.fabric.run_for(100 * kMs);
  EXPECT_EQ(detected, rig.fabric.sw(2).id());
  EXPECT_GT(detected_at, kill_time);
  EXPECT_LT(detected_at - kill_time, 40 * kMs);  // timeout + check period + slack
}

TEST(Failover, ChainShrinksAfterFailure) {
  Rig rig(cfg4());
  rig.fabric.run_for(50 * kMs);
  rig.fabric.kill_switch(1);
  rig.fabric.run_for(100 * kMs);
  const auto& chain = rig.fabric.controller().placement(kSpace)->members;
  EXPECT_EQ(chain.size(), 3u);
  EXPECT_EQ(std::count(chain.begin(), chain.end(), rig.fabric.sw(1).id()), 0);
}

class RoleFailover : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RoleFailover, WritesCommitAfterAnyRoleFails) {
  // Param: which chain position to kill (0=head, 1=middle, 3=tail).
  Rig rig(cfg4());
  rig.fabric.run_for(50 * kMs);
  rig.fabric.kill_switch(GetParam());
  rig.fabric.run_for(100 * kMs);  // detection + repair

  // Writes from every surviving switch still commit everywhere.
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == GetParam()) continue;
    rig.fabric.sw(i).inject(udp(static_cast<std::uint16_t>(50 + i),
                                static_cast<std::uint16_t>(1000 + i)));
  }
  rig.fabric.run_for(300 * kMs);
  const auto snap = rig.fabric.metrics_snapshot();
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == GetParam()) continue;
    const std::string writer = "shm.sw" + std::to_string(i + 1);
    EXPECT_EQ(snap.values.at(writer + ".sro.writes_committed").count, 1u) << "writer " << i;
    for (std::size_t j = 0; j < 4; ++j) {
      if (j == GetParam()) continue;
      EXPECT_EQ(rig.fabric.runtime(j).sro_space(kSpace)->read(i).value(), 50 + i)
          << "replica " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Roles, RoleFailover, ::testing::Values(0, 1, 3));

TEST(Failover, InFlightWriteSurvivesTailFailure) {
  FabricConfig cfg = cfg4();
  cfg.link.propagation_delay = 2 * kMs;  // widen the in-flight window
  Rig rig(cfg);
  rig.fabric.run_for(50 * kMs);
  // Inject a write, then kill the tail before the ack can be produced.
  rig.fabric.sw(1).inject(udp(66, 1009));
  rig.fabric.run_for(3 * kMs);
  rig.fabric.kill_switch(3);
  rig.fabric.run_for(500 * kMs);  // detection, repair, writer retry
  EXPECT_EQ(rig.fabric.metrics_snapshot().values.at("shm.sw2.sro.writes_committed").count, 1u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(rig.fabric.runtime(i).sro_space(kSpace)->read(9).value(), 66u);
  }
  EXPECT_EQ(rig.delivered, 1u);
}

TEST(Failover, EwoCountersSurviveFailureOfNonWriter) {
  Rig rig(cfg4());
  rig.fabric.run_for(50 * kMs);
  for (int i = 0; i < 8; ++i) rig.fabric.sw(0).inject(udp(0, 3001));
  rig.fabric.run_for(20 * kMs);
  rig.fabric.kill_switch(2);
  rig.fabric.run_for(200 * kMs);
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == 2) continue;
    EXPECT_EQ(read_value(rig.fabric.runtime(i), kCtr, 1), 8u) << "switch " << i;
  }
}

TEST(Failover, EwoGossipSpreadsDeadSwitchsCounts) {
  // Switch 2 increments, its counts replicate, then it dies; survivors must
  // still agree on its contribution (any receiver re-syncs the others, §6.3).
  FabricConfig cfg = cfg4();
  cfg.runtime.sync_period = 2 * kMs;
  Rig rig(cfg);
  rig.fabric.run_for(50 * kMs);
  for (int i = 0; i < 5; ++i) rig.fabric.sw(2).inject(udp(0, 3003));
  rig.fabric.run_for(10 * kMs);  // at least one mirror/sync out
  rig.fabric.kill_switch(2);
  rig.fabric.run_for(300 * kMs);
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == 2) continue;
    EXPECT_EQ(read_value(rig.fabric.runtime(i), kCtr, 3), 5u) << "switch " << i;
  }
}

TEST(Recovery, SroStateRestoredToReplacementSwitch) {
  Rig rig(cfg4());
  rig.fabric.run_for(50 * kMs);
  // Populate state.
  for (int k = 0; k < 10; ++k) {
    rig.fabric.sw(0).inject(udp(static_cast<std::uint16_t>(200 + k),
                                static_cast<std::uint16_t>(1000 + k)));
  }
  rig.fabric.run_for(100 * kMs);

  rig.fabric.kill_switch(1);
  rig.fabric.run_for(100 * kMs);  // failover completes

  SwitchId recovered = kInvalidNode;
  rig.fabric.controller().on_recovery_complete = [&](SwitchId id, TimeNs) { recovered = id; };
  rig.fabric.revive_switch(1);
  rig.fabric.run_for(500 * kMs);

  EXPECT_EQ(recovered, rig.fabric.sw(1).id());
  // Replacement has the full state, transferred via the snapshot stream.
  for (int k = 0; k < 10; ++k) {
    EXPECT_EQ(rig.fabric.runtime(1).sro_space(kSpace)->read(k).value(), 200u + k);
  }
  // And it rejoined as chain tail.
  EXPECT_EQ(rig.fabric.controller().placement(kSpace)->members.back(), rig.fabric.sw(1).id());
  EXPECT_GT(rig.fabric.metrics_snapshot().values.at("shm.sw2.recovery_chunks_applied").count,
            0u);
}

TEST(Recovery, WritesDuringRecoveryReachReplacement) {
  FabricConfig cfg = cfg4();
  cfg.controller.mgmt_latency = 2 * kMs;
  Rig rig(cfg);
  rig.fabric.run_for(50 * kMs);
  for (int k = 0; k < 20; ++k) {
    rig.fabric.sw(0).inject(udp(static_cast<std::uint16_t>(100 + k),
                                static_cast<std::uint16_t>(1000 + k)));
  }
  rig.fabric.run_for(100 * kMs);
  rig.fabric.kill_switch(2);
  rig.fabric.run_for(100 * kMs);
  rig.fabric.revive_switch(2);
  // Concurrent writes while the snapshot streams.
  for (int k = 20; k < 30; ++k) {
    rig.fabric.sw(0).inject(udp(static_cast<std::uint16_t>(100 + k),
                                static_cast<std::uint16_t>(1000 + k)));
  }
  rig.fabric.run_for(1 * kSec);
  for (int k = 0; k < 30; ++k) {
    EXPECT_EQ(rig.fabric.runtime(2).sro_space(kSpace)->read(k).value(), 100u + k)
        << "key " << k;
  }
}

TEST(Recovery, SnapshotStreamSurvivesLoss) {
  FabricConfig cfg = cfg4();
  cfg.link.loss_probability = 0.3;
  Rig rig(cfg);
  rig.fabric.run_for(50 * kMs);
  for (int k = 0; k < 15; ++k) {
    rig.fabric.sw(0).inject(udp(static_cast<std::uint16_t>(70 + k),
                                static_cast<std::uint16_t>(1000 + k)));
  }
  rig.fabric.run_for(500 * kMs);
  rig.fabric.kill_switch(3);
  rig.fabric.run_for(200 * kMs);
  rig.fabric.revive_switch(3);
  rig.fabric.run_for(3 * kSec);  // stop-and-wait with retransmissions
  for (int k = 0; k < 15; ++k) {
    EXPECT_EQ(rig.fabric.runtime(3).sro_space(kSpace)->read(k).value(), 70u + k);
  }
}

TEST(Recovery, EwoReplacementRefilledByPeriodicSync) {
  FabricConfig cfg = cfg4();
  cfg.runtime.sync_period = 2 * kMs;
  Rig rig(cfg);
  rig.fabric.run_for(50 * kMs);
  for (int i = 0; i < 9; ++i) rig.fabric.sw(i % 4).inject(udp(0, 3005));
  rig.fabric.run_for(50 * kMs);
  rig.fabric.kill_switch(0);
  rig.fabric.run_for(100 * kMs);
  rig.fabric.revive_switch(0);
  EXPECT_EQ(read_value(rig.fabric.runtime(0), kCtr, 5), 0u);  // boots empty
  rig.fabric.run_for(300 * kMs);
  // Gossip restored everything, including switch 0's own pre-crash slot.
  EXPECT_EQ(read_value(rig.fabric.runtime(0), kCtr, 5), 9u);
}

TEST(Recovery, ErasedConnectionsStayErasedThroughSnapshotStream) {
  // Table-backed connection state: closing a connection erases its entry.
  // Tombstones must ride the snapshot stream (frozen image for pre-stream
  // erases, live tap for erases during the drain) so the replacement never
  // resurrects a closed connection its survivors already dropped.
  FabricConfig cfg = cfg4();
  cfg.controller.mgmt_latency = 2 * kMs;
  Fabric fabric(cfg);
  SpaceConfig sp;
  sp.id = kSpace;
  sp.name = "conn";
  sp.cls = ConsistencyClass::kSRO;
  sp.size = 256;
  sp.table_backed = true;
  fabric.add_space(sp);
  fabric.install(nullptr);
  fabric.start();
  auto write = [&](std::uint64_t key, std::uint64_t value) {
    fabric.runtime(0).write({{kSpace, key, value}}, pkt::Packet{}, nullptr);
  };

  fabric.run_for(50 * kMs);
  // Enough connections for several stop-and-wait snapshot chunks.
  for (std::uint64_t k = 0; k < 40; ++k) write(0x1000 + k, 7000 + k);
  fabric.run_for(100 * kMs);
  // One connection closes while everyone is healthy: its tombstone can only
  // reach the replacement inside the frozen snapshot image.
  write(0x1000 + 39, kTombstone);
  fabric.run_for(50 * kMs);

  fabric.kill_switch(2);
  fabric.run_for(100 * kMs);
  fabric.revive_switch(2);
  fabric.run_for(4 * kMs);
  // Connections closing while the stream drains: the snapshot carries the
  // live entries, the tap must carry the tombstones behind them.
  for (std::uint64_t k : {3u, 17u, 31u}) write(0x1000 + k, kTombstone);
  fabric.run_for(1 * kSec);

  for (std::size_t i = 0; i < 4; ++i) {
    auto* space = fabric.runtime(i).sro_space(kSpace);
    ASSERT_NE(space, nullptr) << "switch " << i;
    for (std::uint64_t k = 0; k < 40; ++k) {
      const bool closed = (k == 3 || k == 17 || k == 31 || k == 39);
      if (closed) {
        EXPECT_FALSE(space->read(0x1000 + k).has_value())
            << "switch " << i << " resurrected connection " << k;
      } else {
        ASSERT_TRUE(space->read(0x1000 + k).has_value())
            << "switch " << i << " lost connection " << k;
        EXPECT_EQ(space->read(0x1000 + k).value(), 7000 + k) << "switch " << i;
      }
    }
  }
}

TEST(Recovery, RecoveredSwitchServesStrongReadsOnlyAfterJoin) {
  Rig rig(cfg4());
  rig.fabric.run_for(50 * kMs);
  rig.fabric.sw(0).inject(udp(42, 1001));
  rig.fabric.run_for(100 * kMs);
  rig.fabric.kill_switch(1);
  rig.fabric.run_for(100 * kMs);
  rig.fabric.revive_switch(1);
  // Immediately after revival (not yet in chain) the runtime must not claim
  // chain membership.
  const auto joined_chain = [&rig]() {
    return std::ranges::count(rig.fabric.runtime(1).placement(kSpace).members,
                              rig.fabric.sw(1).id()) == 1;
  };
  EXPECT_FALSE(joined_chain());
  rig.fabric.run_for(500 * kMs);
  EXPECT_TRUE(joined_chain());
}

TEST(Failover, ReadmissionPlacementPolicy) {
  // One space per class: the rejoiner enters the EWO/OWN/kCON placements at
  // the readmit push, and the SRO chain only once the donor's snapshot stream
  // completes — both times appended last.
  FabricConfig cfg = cfg4();
  cfg.controller.mgmt_latency = 2 * kMs;
  Fabric fabric(cfg);
  constexpr std::uint32_t kOwn = 42;
  constexpr std::uint32_t kCon = 43;
  for (auto [id, cls] : {std::pair{kSpace, ConsistencyClass::kSRO},
                         std::pair{kCtr, ConsistencyClass::kEWO},
                         std::pair{kOwn, ConsistencyClass::kOWN},
                         std::pair{kCon, ConsistencyClass::kCON}}) {
    SpaceConfig sp;
    sp.id = id;
    sp.name = to_string(cls);
    sp.cls = cls;
    sp.size = 64;
    fabric.add_space(sp);
  }
  fabric.install(nullptr);
  fabric.start();
  for (std::uint64_t k = 0; k < 40; ++k) {
    fabric.runtime(0).write({{kSpace, k, 100 + k}}, pkt::Packet{}, nullptr);
  }
  fabric.run_for(50 * kMs);
  fabric.kill_switch(1);
  fabric.run_for(100 * kMs);

  const std::vector<SwitchId> without{1, 3, 4};
  const std::vector<SwitchId> last{1, 3, 4, 2};
  const Controller& ctl = fabric.controller();
  const std::uint32_t failover_epoch = ctl.placement(kSpace)->epoch;
  for (std::uint32_t space : {kSpace, kCtr, kOwn, kCon}) {
    EXPECT_EQ(ctl.placement(space)->members, without) << space;
  }

  bool recovered = false;
  fabric.controller().on_recovery_complete = [&](SwitchId, TimeNs) { recovered = true; };
  fabric.revive_switch(1);
  // The readmit push is stamped and sent at once; it lands one management
  // latency later. The stream starts as it lands, so the join push cannot
  // land before twice that.
  EXPECT_EQ(ctl.placement(kSpace)->members, without);
  fabric.run_for(3 * kMs);
  for (std::size_t i = 0; i < 4; ++i) {
    const ShmRuntime& rt = fabric.runtime(i);
    EXPECT_EQ(rt.placement(kSpace).members, without) << "switch " << i;
    EXPECT_EQ(rt.placement(kSpace).epoch, failover_epoch + 1) << "switch " << i;
    for (std::uint32_t space : {kCtr, kOwn, kCon}) {
      EXPECT_EQ(rt.placement(space).members, last) << "switch " << i << " space " << space;
      EXPECT_EQ(rt.placement(space).epoch, failover_epoch + 1) << "switch " << i;
    }
  }
  EXPECT_FALSE(recovered);

  fabric.run_for(200 * kMs);
  ASSERT_TRUE(recovered);
  for (std::size_t i = 0; i < 4; ++i) {
    const ShmRuntime& rt = fabric.runtime(i);
    for (std::uint32_t space : {kSpace, kCtr, kOwn, kCon}) {
      EXPECT_EQ(rt.placement(space).members, last) << "switch " << i << " space " << space;
      EXPECT_EQ(rt.placement(space).epoch, failover_epoch + 2) << "switch " << i;
    }
  }
  // The stream delivered the chain's state before the rejoiner became its tail.
  for (std::uint64_t k = 0; k < 40; ++k) {
    EXPECT_EQ(fabric.runtime(1).sro_space(kSpace)->read(k).value(), 100 + k) << k;
  }
}

TEST(Failover, ReviveBeforeDetectionRejoins) {
  // A revive wipes the switch's state even when it lands before the failure
  // is detected, or on the detection's own nanosecond (the revive runs
  // first). Either way the switch must end up back in every placement it
  // declares, with its SRO writes committing.
  constexpr std::size_t kVictim = 2;
  constexpr TimeNs kKillAt = 40 * kMs;
  for (MembershipProtocol membership :
       {MembershipProtocol::kHeartbeat, MembershipProtocol::kSwim}) {
    for (std::size_t shards : {1, 2}) {
      FabricConfig cfg = cfg4();
      cfg.controller.membership = membership;
      cfg.shards = shards;
      TimeNs detected_at = 0;
      {
        Rig probe(cfg);
        probe.fabric.controller().on_failure_detected = [&](SwitchId, TimeNs t) {
          detected_at = t;
        };
        probe.fabric.schedule_kill(kVictim, kKillAt);
        probe.fabric.run_for(300 * kMs);
      }
      ASSERT_GT(detected_at, kKillAt + 5 * kMs) << to_string(membership);

      for (TimeNs revive_at : {kKillAt + 5 * kMs, detected_at}) {
        SCOPED_TRACE(std::string(to_string(membership)) + ", " + std::to_string(shards) +
                     " shard(s), revive at " + std::to_string(revive_at) + " ns");
        Rig rig(cfg);
        rig.fabric.schedule_kill(kVictim, kKillAt);
        rig.fabric.schedule_revive(kVictim, revive_at);
        rig.fabric.run_for(revive_at + 500 * kMs);
        const SwitchId id = rig.fabric.sw(kVictim).id();
        for (std::uint32_t space : {kSpace, kCtr}) {
          EXPECT_EQ(std::ranges::count(rig.fabric.controller().placement(space)->members, id), 1)
              << "space " << space;
        }

        int committed = 0;
        Fabric* f = &rig.fabric;
        sim::Simulator& sim = rig.fabric.simulator_for(kVictim);
        sim.schedule_at(sim.now() + 1 * kMs, [f, &committed]() {
          for (std::uint64_t k = 0; k < 8; ++k) {
            f->runtime(kVictim).write({{kSpace, k, 500 + k}}, pkt::Packet{},
                                      [&committed](pkt::Packet&&) { ++committed; });
          }
        });
        rig.fabric.run_for(200 * kMs);
        EXPECT_EQ(committed, 8);
        EXPECT_EQ(rig.fabric.metrics_snapshot()
                      .values.at("shm.sw" + std::to_string(id) + ".sro.writes_failed")
                      .count,
                  0u);
      }
    }
  }
}

}  // namespace
}  // namespace swish::shm
