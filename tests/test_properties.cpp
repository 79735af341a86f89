// Property tests on protocol invariants:
//  - G-set CRDT semantics (order independence, monotonicity) and the shared
//    IPS blocklist built on it
//  - LWW version monotonicity under same-instant writes (regression)
//  - SRO atomic-register semantics (a linearizability check with serialized
//    unique writes and concurrent reads, under heavy loss)
//  - chaos: random switch kills/revives with concurrent SRO + EWO traffic,
//    asserting replica agreement and durability of committed writes
#include <gtest/gtest.h>

#include <map>

#include "nf/ips.hpp"
#include "swishmem/fabric.hpp"
#include "workload/stamp.hpp"

#include "read_value.hpp"

namespace swish::shm {
namespace {

// ---------------------------------------------------------------------------
// G-set
// ---------------------------------------------------------------------------

SpaceConfig gset_cfg() {
  SpaceConfig c;
  c.id = 3;
  c.name = "gs";
  c.cls = ConsistencyClass::kEWO;
  c.merge = MergePolicy::kGSet;
  c.size = 16;
  return c;
}

struct SpaceRig {
  sim::ShardSet shards{1};
  sim::Simulator& sim = shards.sim(0);
  net::Network net{shards, 3};
  pisa::Switch sw{sim, net, 1, {}};
  SpaceRig() { net.attach(sw); }
};

const std::vector<SwitchId> kReplicas{1, 2, 3};

TEST(GSet, AddAndMergeAreBitwiseOr) {
  SpaceRig rig;
  EwoSpaceState sp(rig.sw, gset_cfg(), kReplicas, 1);
  EXPECT_EQ(sp.set_add_local(0, 0b0101), 0b0101u);
  EXPECT_EQ(sp.set_add_local(0, 0b0011), 0b0111u);
  EXPECT_TRUE(sp.merge({3, 0, 0, 0b1000}));
  EXPECT_EQ(sp.read(0), 0b1111u);
  EXPECT_FALSE(sp.merge({3, 0, 0, 0b1000}));  // idempotent
}

TEST(GSet, MergeOrderIndependent) {
  std::vector<pkt::EwoEntry> entries{{3, 0, 0, 1}, {3, 0, 0, 6}, {3, 1, 0, 8}, {3, 0, 0, 1}};
  SpaceRig r1, r2;
  EwoSpaceState a(r1.sw, gset_cfg(), kReplicas, 1);
  EwoSpaceState b(r2.sw, gset_cfg(), kReplicas, 1);
  for (const auto& e : entries) a.merge(e);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) b.merge(*it);
  EXPECT_EQ(a.read(0), b.read(0));
  EXPECT_EQ(a.read(1), b.read(1));
}

TEST(GSet, SyncGossipsBitmaps) {
  SpaceRig rig;
  EwoSpaceState sp(rig.sw, gset_cfg(), kReplicas, 1);
  sp.set_add_local(2, 1);
  std::vector<pkt::EwoEntry> out;
  sp.collect_sync_entries(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, 2u);
  EXPECT_EQ(out[0].value, 1u);
}

TEST(GSet, WrongApiThrows) {
  SpaceRig rig;
  EwoSpaceState sp(rig.sw, gset_cfg(), kReplicas, 1);
  EXPECT_THROW(sp.add_local(0, 1), std::logic_error);
  EXPECT_THROW(sp.write_local(0, 1, 1), std::logic_error);
  SpaceRig rig2;
  SpaceConfig ctr = gset_cfg();
  ctr.merge = MergePolicy::kGCounter;
  EwoSpaceState c(rig2.sw, ctr, kReplicas, 1);
  EXPECT_THROW(c.set_add_local(0, 1), std::logic_error);
}

TEST(GSet, RuntimePropagatesAcrossFabric) {
  FabricConfig cfg;
  cfg.num_switches = 3;
  Fabric fabric(cfg);
  fabric.add_space(gset_cfg());
  fabric.install(nullptr);
  fabric.start();
  fabric.runtime(0).write({{3, 5, 0b01}}, pkt::Packet{}, nullptr);
  fabric.runtime(2).write({{3, 5, 0b10}}, pkt::Packet{}, nullptr);
  fabric.run_for(50 * kMs);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(read_value(fabric.runtime(i), 3, 5), 0b11u) << "switch " << i;
  }
  // A G-set write joins rather than replaces: repeating 0b01 keeps 0b10.
  fabric.runtime(0).write({{3, 5, 0b01}}, pkt::Packet{}, nullptr);
  EXPECT_EQ(read_value(fabric.runtime(0), 3, 5), 0b11u);
  fabric.run_for(50 * kMs);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(read_value(fabric.runtime(i), 3, 5), 0b11u) << "switch " << i;
  }
}

TEST(Ips, SharedBlocklistBlocksEverywhere) {
  FabricConfig cfg;
  cfg.num_switches = 3;
  cfg.runtime.sync_period = 1 * kMs;
  Fabric fabric(cfg);
  fabric.add_space(nf::IpsApp::space());
  fabric.add_space(nf::IpsApp::blocklist_space());
  std::vector<nf::IpsApp*> apps;
  nf::IpsApp::Config icfg;
  icfg.shared_blocklist = true;
  icfg.block_threshold = 2;
  fabric.install([&]() {
    auto app = std::make_unique<nf::IpsApp>(icfg);
    apps.push_back(app.get());
    return app;
  });
  fabric.start();
  std::uint64_t delivered = 0;
  fabric.set_delivery_sink([&](const pkt::Packet&) { ++delivered; });

  const std::vector<std::uint8_t> evil{0x66, 0x66};
  apps[0]->install_signature(fabric.runtime(0), nf::IpsApp::signature_of(evil));
  fabric.run_for(100 * kMs);

  auto evil_packet = [&](pkt::Ipv4Addr src) {
    pkt::PacketSpec spec;
    spec.ip_src = src;
    spec.ip_dst = pkt::Ipv4Addr(8, 8, 8, 8);
    spec.protocol = pkt::kProtoUdp;
    spec.src_port = 1;
    spec.dst_port = 2;
    spec.payload = evil;
    return pkt::build_packet(spec);
  };
  const pkt::Ipv4Addr attacker{66, 1, 2, 3};
  // Trip the threshold entirely at switch 0.
  for (int i = 0; i < 3; ++i) fabric.sw(0).inject(evil_packet(attacker));
  fabric.run_for(50 * kMs);
  // Clean traffic from the attacker is now dropped at *other* switches too.
  pkt::PacketSpec clean;
  clean.ip_src = attacker;
  clean.ip_dst = pkt::Ipv4Addr(8, 8, 8, 8);
  clean.protocol = pkt::kProtoUdp;
  clean.src_port = 1;
  clean.dst_port = 2;
  clean.payload = {0, 0};
  fabric.sw(1).inject(pkt::build_packet(clean));
  fabric.sw(2).inject(pkt::build_packet(clean));
  fabric.run_for(50 * kMs);
  EXPECT_EQ(delivered, 0u);
  EXPECT_GT(apps[1]->stats().dropped_blocked + apps[2]->stats().dropped_blocked, 0u);
}

// ---------------------------------------------------------------------------
// LWW monotone clock regression
// ---------------------------------------------------------------------------

TEST(Lww, SameInstantWritesStillConverge) {
  FabricConfig cfg;
  cfg.num_switches = 3;
  cfg.runtime.sync_period = 1 * kMs;
  Fabric fabric(cfg);
  SpaceConfig sp;
  sp.id = 4;
  sp.name = "lww";
  sp.cls = ConsistencyClass::kEWO;
  sp.merge = MergePolicy::kLww;
  sp.size = 4;
  fabric.add_space(sp);
  fabric.install(nullptr);
  fabric.start();
  // Burst of writes at one switch within a single simulated instant: versions
  // must stay strictly increasing so the final value propagates.
  for (std::uint64_t i = 1; i <= 50; ++i) {
    fabric.runtime(0).write({{4, 0, i}}, pkt::Packet{}, nullptr);
  }
  fabric.run_for(100 * kMs);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(read_value(fabric.runtime(i), 4, 0), 50u) << "switch " << i;
  }
}

// ---------------------------------------------------------------------------
// SRO atomic-register semantics under loss
// ---------------------------------------------------------------------------

constexpr std::uint32_t kRegSpace = 5;

struct ReadRecord {
  TimeNs invoked = 0;
  TimeNs completed = -1;
  std::uint64_t value = 0;
};

/// NF that serves stamped reads of register (space kRegSpace, key 0) and logs
/// completion time + value, including reads completed at the tail.
class LinDriver : public NfApp {
 public:
  explicit LinDriver(std::map<std::uint64_t, ReadRecord>* log) : log_(log) {}

  void process(pisa::PacketContext& ctx, ShmRuntime& rt) override {
    if (!ctx.parsed || !ctx.parsed->udp || ctx.parsed->udp->dst_port != 7777) return;
    auto stamp = workload::Stamp::decode(ctx.packet.l4_payload(*ctx.parsed));
    if (!stamp) return;
    std::uint64_t value = 0;
    const auto st = rt.read(&ctx, kRegSpace, 0, value);
    if (st == ReadStatus::kRedirected) return;  // completes at the tail
    auto& rec = (*log_)[stamp->flow_id];
    rec.completed = ctx.sw.simulator().now();
    rec.value = value;
  }

 private:
  std::map<std::uint64_t, ReadRecord>* log_;
};

TEST(SroLinearizability, ReadsReturnAtomicRegisterValues) {
  FabricConfig cfg;
  cfg.num_switches = 4;
  cfg.link.loss_probability = 0.15;
  cfg.link.propagation_delay = 200 * kUs;  // wide pending windows
  cfg.runtime.write_retry_timeout = 2 * kMs;
  Fabric fabric(cfg);
  SpaceConfig sp;
  sp.id = kRegSpace;
  sp.name = "lin";
  sp.cls = ConsistencyClass::kSRO;
  sp.size = 4;
  fabric.add_space(sp);
  std::map<std::uint64_t, ReadRecord> reads;
  fabric.install([&]() { return std::make_unique<LinDriver>(&reads); });
  fabric.start();

  // Serialized unique writes: value k's interval is [inv_k, resp_k]; the next
  // write starts only after the previous ack.
  std::vector<std::pair<TimeNs, TimeNs>> write_intervals;  // [invoke, response]
  std::function<void(std::uint64_t)> issue_write = [&](std::uint64_t k) {
    if (k > 30) return;
    write_intervals.push_back({fabric.simulator().now(), -1});
    auto& rt = fabric.runtime(k % 4);
    rt.write({{kRegSpace, 0, k}}, pkt::Packet{}, [&, k](pkt::Packet&&) {
      write_intervals[k - 1].second = fabric.simulator().now();
      fabric.simulator().schedule_after(500 * kUs, [&, k]() { issue_write(k + 1); });
    });
  };
  fabric.simulator().schedule_after(1 * kMs, [&]() { issue_write(1); });

  // Concurrent stamped reads from random switches every 300 us.
  Rng rng(99);
  std::uint64_t next_read = 0;
  fabric.simulator().schedule_periodic(300 * kUs, [&]() {
    const std::uint64_t id = next_read++;
    pkt::PacketSpec spec;
    spec.ip_src = pkt::Ipv4Addr(1, 1, 1, 1);
    spec.ip_dst = pkt::Ipv4Addr(2, 2, 2, 2);
    spec.protocol = pkt::kProtoUdp;
    spec.src_port = 1;
    spec.dst_port = 7777;
    spec.payload = workload::Stamp{id, 0, 0}.encode();
    reads[id].invoked = fabric.simulator().now();
    fabric.sw(rng.next_below(4)).inject(pkt::build_packet(spec));
  });

  fabric.run_for(3 * kSec);
  ASSERT_EQ(write_intervals.size(), 30u);
  for (const auto& [inv, resp] : write_intervals) ASSERT_GT(resp, inv);  // all committed

  std::size_t checked = 0;
  for (const auto& [id, rec] : reads) {
    if (rec.completed < 0) continue;  // read lost to packet loss: no response
    ++checked;
    // Atomic-register condition with serialized writes: the value must be at
    // least the last write completed before the read began, and at most the
    // last write invoked before the read completed (0 = initial value).
    std::uint64_t min_value = 0, max_value = 0;
    for (std::size_t k = 0; k < write_intervals.size(); ++k) {
      if (write_intervals[k].second <= rec.invoked) min_value = k + 1;
      if (write_intervals[k].first < rec.completed) max_value = k + 1;
    }
    EXPECT_GE(rec.value, min_value) << "stale read " << id;
    EXPECT_LE(rec.value, max_value) << "read from the future " << id;
  }
  EXPECT_GT(checked, 100u);  // the property was actually exercised
}

// ---------------------------------------------------------------------------
// Chaos: random failures with concurrent traffic
// ---------------------------------------------------------------------------

TEST(Chaos, RandomKillsPreserveAgreementAndCommittedWrites) {
  FabricConfig cfg;
  cfg.num_switches = 4;
  cfg.link.loss_probability = 0.05;
  cfg.runtime.heartbeat_period = 5 * kMs;
  cfg.controller.heartbeat_timeout = 20 * kMs;
  cfg.controller.check_period = 5 * kMs;
  cfg.runtime.write_retry_timeout = 2 * kMs;
  cfg.runtime.sync_period = 2 * kMs;
  Fabric fabric(cfg);
  SpaceConfig reg;
  reg.id = 6;
  reg.name = "chaos.reg";
  reg.cls = ConsistencyClass::kSRO;
  reg.size = 512;
  fabric.add_space(reg);
  SpaceConfig ctr;
  ctr.id = 7;
  ctr.name = "chaos.ctr";
  ctr.cls = ConsistencyClass::kEWO;
  ctr.merge = MergePolicy::kGCounter;
  ctr.size = 8;
  fabric.add_space(ctr);
  fabric.install(nullptr);
  fabric.start();
  fabric.run_for(50 * kMs);

  Rng rng(2024);
  std::map<std::uint64_t, std::uint64_t> committed;  // key -> value
  std::uint64_t ctr_increments_by_survivors = 0;
  std::uint64_t ctr_increments_total = 0;

  // Switch 2 is the chaos victim: killed and revived twice during the run.
  for (TimeNs kill_at : {100 * kMs, 400 * kMs}) {
    fabric.simulator().schedule_at(kill_at, [&fabric]() { fabric.kill_switch(2); });
    fabric.simulator().schedule_at(kill_at + 150 * kMs,
                                   [&fabric]() { fabric.revive_switch(2); });
  }

  // Writers on the always-alive switches issue unique-key writes; every
  // switch (including the victim while alive) bumps EWO counters.
  std::uint64_t next_key = 0;
  auto writer = fabric.simulator().schedule_periodic(3 * kMs, [&]() {
    const std::size_t w = rng.next_below(4);
    if (!fabric.sw(w).alive()) return;
    // SRO write with a unique key; record commitment on ack.
    const std::uint64_t key = next_key++;
    const std::uint64_t value = key * 7 + 1;
    fabric.runtime(w).write({{6, key, value}}, pkt::Packet{},
                            [&committed, key, value](pkt::Packet&&) {
                              committed[key] = value;
                            });
    // EWO increment.
    fabric.runtime(w).update(7, 0, 1);
    ++ctr_increments_total;
    if (w != 2) ++ctr_increments_by_survivors;
  });

  fabric.run_for(700 * kMs);  // chaos phase
  writer.cancel();
  fabric.run_for(2 * kSec);  // quiesce: retries drain, sync converges

  ASSERT_GT(committed.size(), 100u);

  // Invariant 1: every committed write is present on every live replica.
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(fabric.sw(i).alive());
    for (const auto& [key, value] : committed) {
      EXPECT_EQ(fabric.runtime(i).sro_space(6)->read(key).value_or(0), value)
          << "switch " << i << " key " << key;
    }
  }
  // Invariant 2: all replicas agree on the counter, bounded by ground truth.
  const auto v0 = read_value(fabric.runtime(0), 7, 0);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(read_value(fabric.runtime(i), 7, 0), v0) << "switch " << i;
  }
  EXPECT_GE(v0, ctr_increments_by_survivors);  // survivors' counts never lost
  EXPECT_LE(v0, ctr_increments_total);
}

}  // namespace
}  // namespace swish::shm
