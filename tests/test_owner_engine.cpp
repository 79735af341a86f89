// OWN protocol tests: ownership migration, revocation, idempotent retries
// under packet loss, home-directory healing after owner failure, and the
// linearizable fetch-add that motivates the class (§6.3's NAT port pool).
#include <gtest/gtest.h>

#include <set>

#include "swishmem/fabric.hpp"
#include "swishmem/protocols/owner_engine.hpp"

namespace swish::shm {
namespace {

constexpr std::uint32_t kSpace = 30;

/// Driver NF: UDP dst port selects an action on the OWN space.
///  port 1000+k : write value=src_port to key k, deliver output on release
///  port 3000+k : update key k by +1 (records the new value)
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
      rt.update(kSpace, port - 3000, +1,
                [this](std::uint64_t v) { update_results.push_back(v); });
    }
  }
  std::vector<std::uint64_t> update_results;
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
  std::vector<Driver*> drivers;
  std::uint64_t delivered = 0;

  explicit Rig(FabricConfig cfg) : fabric(cfg) {
    SpaceConfig sp;
    sp.id = kSpace;
    sp.name = "own";
    sp.cls = ConsistencyClass::kOWN;
    sp.size = 64;
    fabric.add_space(sp);
    fabric.install([this]() {
      auto d = std::make_unique<Driver>();
      drivers.push_back(d.get());
      return d;
    });
    fabric.start();
    fabric.set_delivery_sink([this](const pkt::Packet&) { ++delivered; });
  }

  [[nodiscard]] const OwnerEngine* engine(std::size_t i) {
    return dynamic_cast<const OwnerEngine*>(fabric.runtime(i).engine_for_space(kSpace));
  }

  /// Index of the switch currently owning `key` (-1 when unowned everywhere).
  [[nodiscard]] int owner_of(std::uint64_t key) {
    for (std::size_t i = 0; i < fabric.size(); ++i) {
      if (engine(i) != nullptr && engine(i)->owns(kSpace, key)) return static_cast<int>(i);
    }
    return -1;
  }
};

FabricConfig cfg4() {
  FabricConfig c;
  c.num_switches = 4;
  return c;
}

TEST(Own, FirstWriteAcquiresOwnership) {
  Rig rig(cfg4());
  rig.fabric.sw(1).inject(udp(10, 1005));
  rig.fabric.run_for(50 * kMs);
  EXPECT_EQ(rig.owner_of(5), 1);
  EXPECT_EQ(rig.delivered, 1u);
  EXPECT_EQ(rig.fabric.runtime(1).own_space(kSpace)->value(5), 10u);
}

TEST(Own, OwnershipMigratesToNewWriter) {
  Rig rig(cfg4());
  rig.fabric.sw(1).inject(udp(10, 1005));
  rig.fabric.run_for(50 * kMs);
  ASSERT_EQ(rig.owner_of(5), 1);
  // A write from another switch revokes and migrates the key.
  rig.fabric.sw(3).inject(udp(20, 1005));
  rig.fabric.run_for(50 * kMs);
  EXPECT_EQ(rig.owner_of(5), 3);
  EXPECT_FALSE(rig.engine(1)->owns(kSpace, 5));
  EXPECT_EQ(rig.fabric.runtime(3).own_space(kSpace)->value(5), 20u);
  EXPECT_EQ(rig.delivered, 2u);
  const auto snap = rig.fabric.metrics_snapshot();
  EXPECT_GE(snap.values.at("shm.sw2.own.revokes_served").count, 1u);
  EXPECT_GE(snap.values.at("shm.sw4.own.acquisitions_completed").count, 1u);
}

TEST(Own, PingPongMigrationPreservesEveryWrite) {
  // Alternate writers on one key: each migration must carry the latest value
  // (version-checked grants), so the final value is the last write.
  Rig rig(cfg4());
  for (int n = 0; n < 6; ++n) {
    rig.fabric.sw(n % 2 == 0 ? 0 : 2).inject(
        udp(static_cast<std::uint16_t>(100 + n), 1009));
    rig.fabric.run_for(50 * kMs);
  }
  EXPECT_EQ(rig.owner_of(9), 2);  // last writer
  EXPECT_EQ(rig.fabric.runtime(2).own_space(kSpace)->value(9), 105u);
  EXPECT_EQ(rig.delivered, 6u);
}

TEST(Own, ConcurrentAcquisitionsBothEventuallyApply) {
  // Two switches race for the same unowned key. The home grants FCFS; the
  // loser's retry revokes the winner, so both writes apply and exactly one
  // switch ends up owning.
  Rig rig(cfg4());
  rig.fabric.sw(0).inject(udp(1, 1012));
  rig.fabric.sw(3).inject(udp(2, 1012));
  rig.fabric.run_for(500 * kMs);
  EXPECT_EQ(rig.delivered, 2u);
  const int owner = rig.owner_of(12);
  ASSERT_TRUE(owner == 0 || owner == 3);
  // The final value is whichever write applied last; both values are possible
  // but the owner's copy must reflect its own applied write history.
  const auto v = rig.fabric.runtime(static_cast<std::size_t>(owner))
                     .own_space(kSpace)->value(12);
  EXPECT_TRUE(v == 1 || v == 2);
}

TEST(Own, MigrationSurvivesPacketLoss) {
  // Every OWN hop (request, revoke, grant relay, install) can be dropped;
  // same-req_id retries must still complete every migration and apply every
  // write exactly once.
  FabricConfig cfg = cfg4();
  cfg.link.loss_probability = 0.25;
  Rig rig(cfg);
  for (int n = 0; n < 8; ++n) {
    rig.fabric.sw(n % 4).inject(udp(static_cast<std::uint16_t>(50 + n),
                                    static_cast<std::uint16_t>(1000 + n)));
  }
  rig.fabric.run_for(3 * kSec);
  EXPECT_EQ(rig.delivered, 8u);
  for (int k = 0; k < 8; ++k) {
    const int owner = rig.owner_of(k);
    ASSERT_EQ(owner, k % 4) << "key " << k;
    EXPECT_EQ(rig.fabric.runtime(static_cast<std::size_t>(owner))
                  .own_space(kSpace)->value(k),
              50u + k);
  }
  const auto snap = rig.fabric.metrics_snapshot();
  std::uint64_t retries = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    retries += snap.values.at("shm.sw" + std::to_string(i + 1) + ".own.acquisition_retries").count;
  }
  EXPECT_GT(retries, 0u) << "loss was configured but no retry fired";
}

TEST(Own, OwnerFailureRecoversFromHomeBackup) {
  // The owner dies after its dirty keys were backed up (1ms flush << 50ms
  // settle). Once the controller shrinks the group, a new writer's request
  // reaches the (possibly re-homed) directory, which grants from backup.
  Rig rig(cfg4());
  rig.fabric.sw(1).inject(udp(33, 1020));
  rig.fabric.run_for(50 * kMs);
  ASSERT_EQ(rig.owner_of(20), 1);
  rig.fabric.kill_switch(1);
  rig.fabric.run_for(200 * kMs);  // failure detection + group push
  rig.fabric.sw(2).inject(udp(0, 3020));  // fetch-add on the orphaned key
  rig.fabric.run_for(500 * kMs);
  // The dead switch's frozen state still claims ownership locally; what
  // matters is that the live fabric re-granted the key to switch 2.
  EXPECT_TRUE(rig.engine(2)->owns(kSpace, 20));
  // The backup preserved the dead owner's last flushed value: 33 + 1.
  ASSERT_EQ(rig.drivers[2]->update_results.size(), 1u);
  EXPECT_EQ(rig.drivers[2]->update_results[0], 34u);
}

TEST(Own, UpdateReturnsValueOnlyWhenAppliedBeforeReturn) {
  Rig rig(cfg4());
  ShmRuntime& rt = rig.fabric.runtime(0);
  std::uint64_t key = 0;
  while (rig.engine(0)->home_of(kSpace, key) == rt.self()) ++key;
  std::vector<std::uint64_t> done_values;
  const auto record = [&](std::uint64_t v) { done_values.push_back(v); };
  // Homed elsewhere and unowned: the update queues behind the acquisition.
  EXPECT_EQ(rt.update(kSpace, key, 1, record), std::nullopt);
  EXPECT_TRUE(done_values.empty());
  rig.fabric.run_for(50 * kMs);  // the grant installs and drains the queue
  EXPECT_EQ(done_values, (std::vector<std::uint64_t>{1}));
  // Owned now: applied before returning, `done` included.
  EXPECT_EQ(rt.update(kSpace, key, 1, record), 2u);
  EXPECT_EQ(done_values, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(rt.update(kSpace + 1, 0, 1), std::nullopt);  // unknown space
}

TEST(Own, FetchAddAllocationsAreUnique) {
  // The NAT port-pool pattern: every switch fetch-adds the same counter key.
  // Linearizability per key means all returned values are distinct — the
  // fabric never hands out a duplicate.
  Rig rig(cfg4());
  for (int n = 0; n < 24; ++n) {
    rig.fabric.sw(n % 4).inject(udp(0, 3000));
    rig.fabric.run_for(5 * kMs);
  }
  rig.fabric.run_for(500 * kMs);
  std::set<std::uint64_t> seen;
  std::size_t total = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    for (const auto v : rig.drivers[i]->update_results) {
      EXPECT_TRUE(seen.insert(v).second) << "duplicate allocation " << v;
      ++total;
    }
  }
  EXPECT_EQ(total, 24u);
  EXPECT_EQ(*seen.rbegin(), 24u);  // dense: 1..24, no gaps
}

TEST(Own, FetchAddUniqueUnderLoss) {
  FabricConfig cfg = cfg4();
  cfg.link.loss_probability = 0.2;
  Rig rig(cfg);
  for (int n = 0; n < 16; ++n) {
    rig.fabric.sw(n % 4).inject(udp(0, 3000));
    rig.fabric.run_for(20 * kMs);
  }
  rig.fabric.run_for(2 * kSec);
  std::set<std::uint64_t> seen;
  std::size_t total = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    for (const auto v : rig.drivers[i]->update_results) {
      EXPECT_TRUE(seen.insert(v).second) << "duplicate allocation " << v;
      ++total;
    }
  }
  EXPECT_EQ(total, 16u);
}

TEST(Own, StatsRowsExposeProtocolCounters) {
  Rig rig(cfg4());
  rig.fabric.sw(0).inject(udp(5, 1001));
  rig.fabric.sw(2).inject(udp(6, 1001));
  rig.fabric.run_for(100 * kMs);
  // The engine's protocol counters are registry cells under shm.sw<id>.own.*.
  const auto snap = rig.fabric.metrics_snapshot();
  std::uint64_t acquisitions = 0;
  std::uint64_t own_writes = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string own = "shm.sw" + std::to_string(i + 1) + ".own.";
    acquisitions += snap.values.at(own + "acquisitions_completed").count;
    own_writes += snap.values.at(own + "local_writes").count;
  }
  EXPECT_GT(acquisitions, 0u);
  EXPECT_EQ(own_writes, 2u);
}

}  // namespace
}  // namespace swish::shm
