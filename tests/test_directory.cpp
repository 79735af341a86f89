// Tests for the §9 extension: partitioned spaces managed by the controller's
// directory service — per-space chains, remote access from non-replicas, and
// live migration of a space between replica groups.
#include <gtest/gtest.h>

#include "swishmem/fabric.hpp"
#include "workload/stamp.hpp"

namespace swish::shm {
namespace {

constexpr std::uint32_t kPart = 50;

/// port 1000+k: SRO write key k (value = src_port); port 2000+k: SRO read.
class Driver : public NfApp {
 public:
  void process(pisa::PacketContext& ctx, ShmRuntime& rt) override {
    if (!ctx.parsed || !ctx.parsed->udp) return;
    const std::uint16_t port = ctx.parsed->udp->dst_port;
    pisa::Switch* sw = &ctx.sw;
    if (port >= 1000 && port < 2000) {
      rt.write({{kPart, static_cast<std::uint64_t>(port - 1000),
                 ctx.parsed->udp->src_port}},
               std::move(ctx.packet), [sw](pkt::Packet&& p) { sw->deliver(std::move(p)); });
    } else if (port >= 2000 && port < 3000) {
      std::uint64_t value = 0;
      const auto st = rt.read(&ctx, kPart, port - 2000, value);
      if (st == ReadStatus::kOk) {
        last_read = value;
        ++reads_ok;
        ctx.sw.deliver(std::move(ctx.packet));
      } else if (st == ReadStatus::kRedirected) {
        ++reads_redirected;
      }
    }
  }
  std::uint64_t last_read = 0;
  int reads_ok = 0;
  int reads_redirected = 0;
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
  Fabric fabric;
  std::vector<Driver*> drivers;
  std::uint64_t delivered = 0;

  explicit Rig(std::vector<SwitchId> replicas, std::size_t switches = 4)
      : fabric(make_cfg(switches)) {
    SpaceConfig sp;
    sp.id = kPart;
    sp.name = "part";
    sp.cls = ConsistencyClass::kSRO;
    sp.size = 64;
    fabric.add_space(sp, std::move(replicas));
    fabric.install([this]() {
      auto d = std::make_unique<Driver>();
      drivers.push_back(d.get());
      return d;
    });
    fabric.start();
    fabric.set_delivery_sink([this](const pkt::Packet&) { ++delivered; });
  }
  static FabricConfig make_cfg(std::size_t n) {
    FabricConfig c;
    c.num_switches = n;
    return c;
  }
};

TEST(Directory, StorageOnlyOnReplicas) {
  Rig rig({1, 2});  // switches with node ids 1, 2 (indices 0, 1)
  EXPECT_TRUE(rig.fabric.runtime(0).hosts_space(kPart));
  EXPECT_TRUE(rig.fabric.runtime(1).hosts_space(kPart));
  EXPECT_FALSE(rig.fabric.runtime(2).hosts_space(kPart));
  EXPECT_FALSE(rig.fabric.runtime(3).hosts_space(kPart));
  // Non-replicas carry no register arrays for the space.
  EXPECT_LT(rig.fabric.sw(2).memory_bytes(), rig.fabric.sw(0).memory_bytes());
}

TEST(Directory, SpaceChainInstalledEverywhere) {
  Fabric fabric(Rig::make_cfg(4));
  SpaceConfig part;
  part.id = kPart;
  part.name = "part";
  part.cls = ConsistencyClass::kSRO;
  part.size = 64;
  fabric.add_space(part, {1, 2});
  SpaceConfig whole = part;
  whole.id = kPart + 1;
  whole.name = "whole";
  fabric.add_space(whole);
  fabric.install(nullptr);
  fabric.start();
  for (std::size_t i = 0; i < 4; ++i) {
    const auto& chain = fabric.runtime(i).placement(kPart).members;
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain.front(), 1u);
    EXPECT_EQ(chain.back(), 2u);
  }
  // A space declared without a replica set still spans all four switches.
  EXPECT_EQ(fabric.runtime(0).placement(kPart + 1).members.size(), 4u);
}

TEST(Directory, WriteFromReplicaCommitsOnReplicaGroupOnly) {
  Rig rig({1, 2});
  rig.fabric.sw(0).inject(udp(77, 1005));
  rig.fabric.run_for(100 * kMs);
  EXPECT_EQ(rig.fabric.runtime(0).sro_space(kPart)->read(5).value(), 77u);
  EXPECT_EQ(rig.fabric.runtime(1).sro_space(kPart)->read(5).value(), 77u);
  EXPECT_EQ(rig.fabric.runtime(2).sro_space(kPart), nullptr);
  EXPECT_EQ(rig.delivered, 1u);
}

TEST(Directory, WriteFromNonReplicaRoutedToSpaceChain) {
  Rig rig({1, 2});
  rig.fabric.sw(3).inject(udp(88, 1009));  // switch id 4: not a replica
  rig.fabric.run_for(100 * kMs);
  EXPECT_EQ(rig.fabric.metrics_snapshot().values.at("shm.sw4.sro.writes_committed").count, 1u);
  EXPECT_EQ(rig.fabric.runtime(0).sro_space(kPart)->read(9).value(), 88u);
  EXPECT_EQ(rig.delivered, 1u);
}

TEST(Directory, ReadFromNonReplicaRedirectsToSpaceTail) {
  Rig rig({1, 2});
  rig.fabric.sw(0).inject(udp(42, 1003));
  rig.fabric.run_for(100 * kMs);
  rig.fabric.sw(2).inject(udp(0, 2003));  // non-replica read
  rig.fabric.run_for(100 * kMs);
  EXPECT_EQ(rig.drivers[2]->reads_redirected, 1);
  // Served at the space tail (switch id 2 = index 1).
  EXPECT_EQ(rig.fabric.metrics_snapshot().values.at("shm.sw2.redirects_processed").count, 1u);
  EXPECT_EQ(rig.drivers[1]->last_read, 42u);
}

TEST(Directory, ReplicaReadsStayLocal) {
  Rig rig({1, 2});
  rig.fabric.sw(0).inject(udp(11, 1001));
  rig.fabric.run_for(100 * kMs);
  rig.fabric.sw(1).inject(udp(0, 2001));  // tail replica reads locally
  rig.fabric.run_for(50 * kMs);
  EXPECT_EQ(rig.drivers[1]->reads_ok, 1);
  EXPECT_EQ(rig.drivers[1]->reads_redirected, 0);
}

TEST(Directory, MigrationTransfersStateToNewReplicas) {
  Rig rig({1, 2});
  // Populate.
  for (int k = 0; k < 20; ++k) {
    rig.fabric.sw(k % 2).inject(
        udp(static_cast<std::uint16_t>(100 + k), static_cast<std::uint16_t>(1000 + k)));
  }
  rig.fabric.run_for(200 * kMs);

  TimeNs migrated_at = -1;
  rig.fabric.controller().migrate_space(kPart, {3, 4}, [&](TimeNs t) { migrated_at = t; });
  rig.fabric.run_for(500 * kMs);

  ASSERT_GT(migrated_at, 0);
  // New replicas hold the full state.
  for (int k = 0; k < 20; ++k) {
    ASSERT_NE(rig.fabric.runtime(2).sro_space(kPart), nullptr);
    EXPECT_EQ(rig.fabric.runtime(2).sro_space(kPart)->read(k).value(), 100u + k) << k;
    EXPECT_EQ(rig.fabric.runtime(3).sro_space(kPart)->read(k).value(), 100u + k) << k;
  }
  // The directory and every switch's space chain now point at {3, 4}.
  ASSERT_NE(rig.fabric.controller().space_replicas(kPart), nullptr);
  EXPECT_EQ(*rig.fabric.controller().space_replicas(kPart), (std::vector<SwitchId>{3, 4}));
  EXPECT_EQ(rig.fabric.runtime(0).placement(kPart).members, (std::vector<SwitchId>{3, 4}));
}

TEST(Directory, WritesWorkAfterMigration) {
  Rig rig({1, 2});
  rig.fabric.sw(0).inject(udp(1, 1000));
  rig.fabric.run_for(100 * kMs);
  rig.fabric.controller().migrate_space(kPart, {3, 4});
  rig.fabric.run_for(300 * kMs);
  // A write from an old replica now routes through the new chain.
  rig.fabric.sw(0).inject(udp(2, 1001));
  rig.fabric.run_for(100 * kMs);
  EXPECT_EQ(rig.fabric.runtime(2).sro_space(kPart)->read(1).value(), 2u);
  EXPECT_EQ(rig.fabric.runtime(3).sro_space(kPart)->read(1).value(), 2u);
  EXPECT_EQ(rig.fabric.metrics_snapshot().values.at("shm.sw1.sro.writes_committed").count, 2u);
}

TEST(Directory, MigrationUnderLossStillCompletes) {
  FabricConfig cfg;
  cfg.num_switches = 4;
  cfg.link.loss_probability = 0.25;
  // Heartbeats cross the same lossy links; give the detector enough margin
  // that 25% loss does not produce false failures during the run.
  cfg.runtime.heartbeat_period = 5 * kMs;
  cfg.controller.heartbeat_timeout = 100 * kMs;
  Fabric fabric(cfg);
  SpaceConfig sp;
  sp.id = kPart;
  sp.name = "part";
  sp.cls = ConsistencyClass::kSRO;
  sp.size = 64;
  fabric.add_space(sp, {1, 2});
  fabric.install(nullptr);
  fabric.start();
  for (int k = 0; k < 10; ++k) {
    fabric.runtime(0).write({{kPart, static_cast<std::uint64_t>(k),
                              static_cast<std::uint64_t>(k + 500)}},
                            pkt::Packet{}, nullptr);
  }
  fabric.run_for(1 * kSec);
  TimeNs migrated_at = -1;
  fabric.controller().migrate_space(kPart, {2, 3, 4}, [&](TimeNs t) { migrated_at = t; });
  fabric.run_for(3 * kSec);
  ASSERT_GT(migrated_at, 0);
  for (int k = 0; k < 10; ++k) {
    EXPECT_EQ(fabric.runtime(2).sro_space(kPart)->read(k).value(), 500u + k) << k;
    EXPECT_EQ(fabric.runtime(3).sro_space(kPart)->read(k).value(), 500u + k) << k;
  }
}

TEST(Directory, ShrinkMigrationNeedsNoStream) {
  Rig rig({1, 2, 3});
  rig.fabric.sw(0).inject(udp(9, 1000));
  rig.fabric.run_for(100 * kMs);
  TimeNs migrated_at = -1;
  rig.fabric.controller().migrate_space(kPart, {1, 2}, [&](TimeNs t) { migrated_at = t; });
  rig.fabric.run_for(200 * kMs);
  ASSERT_GT(migrated_at, 0);
  EXPECT_EQ(rig.fabric.runtime(0).placement(kPart).members, (std::vector<SwitchId>{1, 2}));
  // Writes still work against the shrunk chain.
  rig.fabric.sw(0).inject(udp(10, 1001));
  rig.fabric.run_for(100 * kMs);
  EXPECT_EQ(rig.fabric.runtime(1).sro_space(kPart)->read(1).value(), 10u);
}

TEST(Directory, FailureOfSpaceReplicaRepairsSpaceChain) {
  FabricConfig cfg;
  cfg.num_switches = 4;
  cfg.runtime.heartbeat_period = 5 * kMs;
  cfg.controller.heartbeat_timeout = 20 * kMs;
  cfg.controller.check_period = 5 * kMs;
  Fabric fabric(cfg);
  SpaceConfig sp;
  sp.id = kPart;
  sp.name = "part";
  sp.cls = ConsistencyClass::kSRO;
  sp.size = 64;
  fabric.add_space(sp, {1, 2, 3});
  fabric.install(nullptr);
  fabric.start();
  fabric.run_for(50 * kMs);
  fabric.kill_switch(1);  // space replica (id 2) dies
  fabric.run_for(100 * kMs);
  EXPECT_EQ(fabric.runtime(0).placement(kPart).members, (std::vector<SwitchId>{1, 3}));
  // Writes to the space still commit on the surviving replicas.
  bool committed = false;
  fabric.runtime(3).write({{kPart, 7, 99}}, pkt::Packet{},
                          [&](pkt::Packet&&) { committed = true; });
  fabric.run_for(300 * kMs);
  EXPECT_TRUE(committed);
  EXPECT_EQ(fabric.runtime(0).sro_space(kPart)->read(7).value(), 99u);
  EXPECT_EQ(fabric.runtime(2).sro_space(kPart)->read(7).value(), 99u);
}

TEST(Directory, MigrationRefusesClassesThatSpanEverySwitch) {
  // Only chain classes have a remote-access path, so only they may live on a
  // subset; the directory refuses to migrate anything else, as
  // add_remote_space refuses it at install.
  Fabric fabric(Rig::make_cfg(4));
  for (auto [id, cls] : {std::pair{std::uint32_t{60}, ConsistencyClass::kEWO},
                         std::pair{std::uint32_t{61}, ConsistencyClass::kOWN},
                         std::pair{std::uint32_t{62}, ConsistencyClass::kCON}}) {
    SpaceConfig sp;
    sp.id = id;
    sp.name = to_string(cls);
    sp.cls = cls;
    sp.size = 16;
    fabric.add_space(sp);
  }
  fabric.install(nullptr);
  fabric.start();
  for (std::uint32_t space : {60u, 61u, 62u, 99u}) {
    EXPECT_THROW(fabric.controller().migrate_space(space, {1, 2}), std::invalid_argument)
        << space;
    if (space != 99u) {
      EXPECT_EQ(fabric.controller().placement(space)->members,
                (std::vector<SwitchId>{1, 2, 3, 4}));
    }
  }
}

TEST(Directory, RevivedReplicaRejoinsPartitionedSpaceWithState) {
  // A revived replica of a partitioned space receives the space's state from
  // the space's own live tail and rejoins its chain as the new tail — at any
  // shard count, and through a later unrelated failover.
  for (std::size_t shards : {1u, 2u}) {
    FabricConfig cfg = Rig::make_cfg(4);
    cfg.shards = shards;
    cfg.runtime.heartbeat_period = 5 * kMs;
    cfg.controller.heartbeat_timeout = 20 * kMs;
    cfg.controller.check_period = 5 * kMs;
    Fabric fabric(cfg);
    SpaceConfig sp;
    sp.id = kPart;
    sp.name = "part";
    sp.cls = ConsistencyClass::kSRO;
    sp.size = 64;
    fabric.add_space(sp, {1, 2, 3});
    fabric.install(nullptr);
    fabric.start();
    for (std::uint64_t k = 0; k < 10; ++k) {
      fabric.runtime(0).write({{kPart, k, 100 + k}}, pkt::Packet{}, nullptr);
    }
    fabric.run_for(50 * kMs);
    fabric.schedule_kill(1, fabric.simulator().now());  // replica id 2 dies
    fabric.run_for(100 * kMs);
    fabric.schedule_revive(1, fabric.simulator().now());
    fabric.run_for(100 * kMs);
    fabric.schedule_kill(3, fabric.simulator().now());  // unrelated switch id 4
    fabric.run_for(100 * kMs);
    for (std::size_t i : {0u, 1u, 2u}) {
      EXPECT_EQ(fabric.runtime(i).placement(kPart).members, (std::vector<SwitchId>{1, 3, 2}))
          << "switch " << i << ", " << shards << " shards";
    }

    bool own_committed = false;
    bool existing_committed = false;
    fabric.runtime(1).write({{kPart, 20, 7}}, pkt::Packet{},
                            [&](pkt::Packet&&) { own_committed = true; });
    fabric.runtime(0).write({{kPart, 3, 555}}, pkt::Packet{},
                            [&](pkt::Packet&&) { existing_committed = true; });
    fabric.run_for(300 * kMs);
    EXPECT_TRUE(own_committed) << shards << " shards";
    EXPECT_TRUE(existing_committed) << shards << " shards";
    const SroSpaceState* rejoined = fabric.runtime(1).sro_space(kPart);
    ASSERT_NE(rejoined, nullptr);
    for (std::uint64_t k = 0; k < 10; ++k) {
      EXPECT_EQ(rejoined->read(k).value_or(0), k == 3 ? 555u : 100 + k)
          << "key " << k << ", " << shards << " shards";
    }
    EXPECT_EQ(rejoined->read(20).value_or(0), 7u) << shards << " shards";
    const auto snap = fabric.metrics_snapshot();
    EXPECT_EQ(snap.values.at("shm.sw1.sro.writes_failed").count, 0u) << shards << " shards";
    EXPECT_EQ(snap.values.at("shm.sw2.sro.writes_failed").count, 0u) << shards << " shards";
  }
}

}  // namespace
}  // namespace swish::shm
