// Protocol tests: the SRO/ERO chain — commit semantics, read redirection,
// pending bits, loss recovery via retries, epochs, guard sharing ablation.
#include <gtest/gtest.h>

#include <map>

#include "swishmem/fabric.hpp"

namespace swish::shm {
namespace {

constexpr std::uint32_t kSpace = 20;

/// Driver NF: UDP dst port selects an action.
///  port 1000+k : SRO write value=src_port to key k, deliver output on commit
///  port 2000+k : SRO read key k; deliver packet if read Ok (records value)
///  port 3000+k : SRO write kTombstone to key k (erases it from a table)
class Driver : public NfApp {
 public:
  void process(pisa::PacketContext& ctx, ShmRuntime& rt) override {
    if (!ctx.parsed || !ctx.parsed->udp) return;
    const std::uint16_t port = ctx.parsed->udp->dst_port;
    pisa::Switch* sw = &ctx.sw;
    if ((port >= 1000 && port < 2000) || port >= 3000) {
      const bool erase = port >= 3000;
      std::vector<pkt::WriteOp> ops{
          {kSpace, static_cast<std::uint64_t>(port - (erase ? 3000 : 1000)),
           erase ? kTombstone : ctx.parsed->udp->src_port}};
      rt.write(std::move(ops), std::move(ctx.packet),
               [sw](pkt::Packet&& p) { sw->deliver(std::move(p)); });
    } else if (port >= 2000 && port < 3000) {
      std::uint64_t value = 0;
      const auto st = rt.read(&ctx, kSpace, port - 2000, value);
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
  shm::Fabric fabric;
  std::vector<Driver*> drivers;
  std::uint64_t delivered = 0;

  /// A non-zero `table_size` makes the space table-backed with that capacity.
  explicit Rig(FabricConfig cfg, ConsistencyClass cls = ConsistencyClass::kSRO,
               std::size_t guard_slots = 0, std::size_t table_size = 0) : fabric(cfg) {
    SpaceConfig sp;
    sp.id = kSpace;
    sp.name = "drv";
    sp.cls = cls;
    sp.size = table_size != 0 ? table_size : 256;
    sp.table_backed = table_size != 0;
    sp.guard_slots = guard_slots;
    fabric.add_space(sp);
    fabric.install([this]() {
      auto d = std::make_unique<Driver>();
      drivers.push_back(d.get());
      return d;
    });
    fabric.start();
    fabric.set_delivery_sink([this](const pkt::Packet&) { ++delivered; });
  }
};

FabricConfig cfg4() {
  FabricConfig c;
  c.num_switches = 4;
  return c;
}

TEST(Sro, WriteVisibleOnAllReplicas) {
  Rig rig(cfg4());
  rig.fabric.sw(1).inject(udp(111, 1005));
  rig.fabric.run_for(50 * kMs);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rig.fabric.runtime(i).sro_space(kSpace)->read(5).value(), 111u);
  }
  EXPECT_EQ(rig.delivered, 1u);
}

TEST(Sro, OutputHeldUntilCommit) {
  Rig rig(cfg4());
  rig.fabric.sw(0).inject(udp(42, 1001));
  // Before any propagation can complete, nothing is delivered.
  rig.fabric.run_for(1 * kUs);
  EXPECT_EQ(rig.delivered, 0u);
  rig.fabric.run_for(100 * kMs);
  EXPECT_EQ(rig.delivered, 1u);
  // Writer-observed commit latency is recorded.
  const auto snap = rig.fabric.metrics_snapshot();
  const Histogram& latency = snap.values.at("shm.sw1.sro.write_latency_ns").hist;
  EXPECT_EQ(latency.count(), 1u);
  EXPECT_GT(latency.mean(), 0.0);
}

TEST(Sro, ConcurrentWritesSameKeyLastSequencedWins) {
  Rig rig(cfg4());
  rig.fabric.sw(0).inject(udp(1, 1007));
  rig.fabric.sw(3).inject(udp(2, 1007));
  rig.fabric.run_for(100 * kMs);
  // Whatever the head sequenced last must be the value everywhere.
  const auto v0 = rig.fabric.runtime(0).sro_space(kSpace)->read(7).value();
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(rig.fabric.runtime(i).sro_space(kSpace)->read(7).value(), v0);
  }
  EXPECT_EQ(rig.delivered, 2u);
}

TEST(Sro, ReadsLocalWhenNoPendingWrite) {
  Rig rig(cfg4());
  rig.fabric.sw(0).inject(udp(55, 1003));
  rig.fabric.run_for(50 * kMs);
  rig.fabric.sw(2).inject(udp(0, 2003));
  rig.fabric.run_for(10 * kMs);
  EXPECT_EQ(rig.drivers[2]->reads_ok, 1);
  EXPECT_EQ(rig.drivers[2]->reads_redirected, 0);
  EXPECT_EQ(rig.drivers[2]->last_read, 55u);
}

TEST(Sro, ReadDuringPendingWriteRedirectsToTail) {
  FabricConfig cfg = cfg4();
  // Slow the chain down so the pending window is observable.
  cfg.link.propagation_delay = 5 * kMs;
  Rig rig(cfg);
  // Write enters at the head switch (index 0 = head, per registration order).
  rig.fabric.sw(0).inject(udp(77, 1009));
  // Let the head sequence the write but not complete the chain.
  rig.fabric.run_for(12 * kMs);
  // Read at the head: pending bit set -> redirect to tail.
  rig.fabric.sw(0).inject(udp(0, 2009));
  rig.fabric.run_for(200 * kMs);
  EXPECT_EQ(rig.drivers[0]->reads_redirected, 1);
  // The tail (switch id 4) served the redirected read (reentry) with
  // committed data.
  EXPECT_EQ(rig.fabric.metrics_snapshot().values.at("shm.sw4.redirects_processed").count, 1u);
  // The read produced a delivery from the tail with the new value.
  EXPECT_EQ(rig.drivers[3]->last_read, 77u);
}

TEST(Ero, ReadsNeverRedirectEvenWhenPending) {
  FabricConfig cfg = cfg4();
  cfg.link.propagation_delay = 5 * kMs;
  Rig rig(cfg, ConsistencyClass::kERO);
  rig.fabric.sw(0).inject(udp(88, 1009));
  rig.fabric.run_for(12 * kMs);
  rig.fabric.sw(0).inject(udp(0, 2009));
  rig.fabric.run_for(200 * kMs);
  EXPECT_EQ(rig.drivers[0]->reads_redirected, 0);
  EXPECT_GE(rig.drivers[0]->reads_ok, 1);
}

TEST(Ero, UsesLessGuardMemoryThanSro) {
  Rig sro(cfg4(), ConsistencyClass::kSRO);
  Rig ero(cfg4(), ConsistencyClass::kERO);
  EXPECT_LT(ero.fabric.sw(0).memory_bytes(), sro.fabric.sw(0).memory_bytes());
}

TEST(Sro, LossRecoveredByRetry) {
  FabricConfig cfg = cfg4();
  cfg.link.loss_probability = 0.3;  // heavy loss on every link
  cfg.runtime.write_retry_timeout = 2 * kMs;
  Rig rig(cfg);
  for (int k = 0; k < 20; ++k) {
    rig.fabric.sw(k % 4).inject(udp(static_cast<std::uint16_t>(100 + k),
                                    static_cast<std::uint16_t>(1000 + k)));
  }
  rig.fabric.run_for(2 * kSec);
  // Every write eventually committed on every replica despite 30% loss.
  const auto snap = rig.fabric.metrics_snapshot();
  std::uint64_t committed = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string writer = "shm.sw" + std::to_string(i + 1);
    committed += snap.values.at(writer + ".sro.writes_committed").count;
    for (int k = 0; k < 20; ++k) {
      EXPECT_EQ(rig.fabric.runtime(i).sro_space(kSpace)->read(k).value(), 100u + k)
          << "switch " << i << " key " << k;
    }
  }
  EXPECT_EQ(committed, 20u);
  EXPECT_EQ(rig.delivered, 20u);
}

TEST(Sro, RetriesAreCounted) {
  FabricConfig cfg = cfg4();
  cfg.link.loss_probability = 0.5;
  cfg.runtime.write_retry_timeout = 1 * kMs;
  Rig rig(cfg);
  for (int k = 0; k < 10; ++k) {
    rig.fabric.sw(1).inject(udp(7, static_cast<std::uint16_t>(1000 + k)));
  }
  rig.fabric.run_for(2 * kSec);
  EXPECT_GT(rig.fabric.metrics_snapshot().values.at("shm.sw2.sro.write_retries").count, 0u);
}

TEST(Sro, DuplicateDeliveryIsIdempotent) {
  // With retries and loss, a request can traverse the chain twice; the value
  // and delivery count must not double.
  FabricConfig cfg = cfg4();
  cfg.link.loss_probability = 0.4;
  cfg.runtime.write_retry_timeout = 500 * kUs;  // aggressive: forces duplicates
  Rig rig(cfg);
  rig.fabric.sw(2).inject(udp(5, 1004));
  rig.fabric.run_for(2 * kSec);
  EXPECT_EQ(rig.delivered, 1u);
  EXPECT_EQ(rig.fabric.metrics_snapshot().values.at("shm.sw3.sro.writes_committed").count, 1u);
  EXPECT_EQ(rig.fabric.runtime(0).sro_space(kSpace)->read(4).value(), 5u);
}

TEST(Sro, SharedGuardSlotsFalsePendingRedirects) {
  // With one guard slot, any in-flight write marks every key pending.
  FabricConfig cfg = cfg4();
  cfg.link.propagation_delay = 5 * kMs;
  Rig rig(cfg, ConsistencyClass::kSRO, /*guard_slots=*/1);
  rig.fabric.sw(0).inject(udp(1, 1001));  // write key 1
  rig.fabric.run_for(12 * kMs);
  rig.fabric.sw(0).inject(udp(0, 2050));  // read unrelated key 50
  rig.fabric.run_for(300 * kMs);
  EXPECT_EQ(rig.drivers[0]->reads_redirected, 1);  // false sharing
}

TEST(Sro, WriterOnHeadCommits) {
  Rig rig(cfg4());
  rig.fabric.sw(0).inject(udp(9, 1000));  // switch 0 is the head
  rig.fabric.run_for(50 * kMs);
  EXPECT_EQ(rig.fabric.metrics_snapshot().values.at("shm.sw1.sro.writes_committed").count, 1u);
}

TEST(Sro, WriterOnTailCommits) {
  Rig rig(cfg4());
  rig.fabric.sw(3).inject(udp(9, 1000));  // switch 3 is the tail
  rig.fabric.run_for(50 * kMs);
  EXPECT_EQ(rig.fabric.metrics_snapshot().values.at("shm.sw4.sro.writes_committed").count, 1u);
}

TEST(Sro, SingleSwitchChainDegeneratesGracefully) {
  FabricConfig cfg;
  cfg.num_switches = 1;
  Rig rig(cfg);
  rig.fabric.sw(0).inject(udp(3, 1002));
  rig.fabric.run_for(50 * kMs);
  EXPECT_EQ(rig.fabric.runtime(0).sro_space(kSpace)->read(2).value(), 3u);
  EXPECT_EQ(rig.delivered, 1u);
}

TEST(Sro, TwoSwitchChain) {
  FabricConfig cfg;
  cfg.num_switches = 2;
  Rig rig(cfg);
  rig.fabric.sw(1).inject(udp(4, 1002));
  rig.fabric.run_for(50 * kMs);
  EXPECT_EQ(rig.fabric.runtime(0).sro_space(kSpace)->read(2).value(), 4u);
  EXPECT_EQ(rig.fabric.runtime(1).sro_space(kSpace)->read(2).value(), 4u);
}

class ChainLengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChainLengthSweep, CommitsAcrossAllLengths) {
  FabricConfig cfg;
  cfg.num_switches = GetParam();
  Rig rig(cfg);
  rig.fabric.sw(GetParam() - 1).inject(udp(21, 1011));
  rig.fabric.run_for(100 * kMs);
  for (std::size_t i = 0; i < GetParam(); ++i) {
    EXPECT_EQ(rig.fabric.runtime(i).sro_space(kSpace)->read(11).value(), 21u);
  }
  EXPECT_EQ(rig.delivered, 1u);
}

INSTANTIATE_TEST_SUITE_P(Lengths, ChainLengthSweep, ::testing::Values(1, 2, 3, 5, 8));

// A write whose new key a full table refuses still commits and releases its
// output (the protocol acks it), so every replica reports the loss as one
// table_full drop naming the space, and the keys already stored stay readable.
class TableFull : public ::testing::TestWithParam<ConsistencyClass> {};

TEST_P(TableFull, RefusedKeyIsReportedOnEveryReplica) {
  Rig rig(cfg4(), GetParam(), /*guard_slots=*/0, /*table_size=*/4);
  for (std::uint16_t k = 0; k < 5; ++k) {
    rig.fabric.sw(1).inject(udp(static_cast<std::uint16_t>(100 + k),
                                static_cast<std::uint16_t>(1000 + k)));
    rig.fabric.run_for(50 * kMs);
  }
  EXPECT_EQ(rig.delivered, 5u);

  std::map<NodeId, int> table_full;
  for (const telemetry::DropRecord& rec : rig.fabric.all_records().drops) {
    if (rec.reason != telemetry::DropReason::kTableFull) continue;
    EXPECT_EQ(rec.detail, kSpace);
    ++table_full[rec.node];
  }
  EXPECT_EQ(table_full.size(), 4u);
  for (const auto& [node, records] : table_full) EXPECT_EQ(records, 1) << "node " << node;

  for (std::size_t i = 0; i < 4; ++i) {
    ShmRuntime& rt = rig.fabric.runtime(i);
    const SroSpaceState* sp =
        GetParam() == ConsistencyClass::kCON ? rt.con_space(kSpace) : rt.sro_space(kSpace);
    ASSERT_NE(sp, nullptr);
    for (std::uint64_t k = 0; k < 4; ++k) EXPECT_EQ(sp->read(k), 100 + k) << "switch " << i;
    EXPECT_FALSE(sp->read(4).has_value()) << "switch " << i;
  }
}

// A refused write of a key this replica erased earlier stores nothing, so
// the key is still absent here and every snapshot keeps streaming its
// tombstone (a recovered replica must not keep a stale copy of it).
TEST_P(TableFull, RefusedReinsertKeepsTombstoneInSnapshot) {
  Rig rig(cfg4(), GetParam(), /*guard_slots=*/0, /*table_size=*/4);
  const auto inject = [&rig](std::uint16_t src_port, std::uint16_t dst_port) {
    rig.fabric.sw(1).inject(udp(src_port, dst_port));
    rig.fabric.run_for(50 * kMs);
  };
  for (std::uint16_t k = 0; k < 4; ++k) {
    inject(static_cast<std::uint16_t>(100 + k), static_cast<std::uint16_t>(1000 + k));
  }
  inject(0, 3000);    // erase key 0
  inject(104, 1004);  // key 4 fills the table again
  inject(200, 1000);  // re-insert key 0: refused
  EXPECT_EQ(rig.delivered, 7u);

  std::map<NodeId, int> table_full;
  for (const telemetry::DropRecord& rec : rig.fabric.all_records().drops) {
    if (rec.reason == telemetry::DropReason::kTableFull) ++table_full[rec.node];
  }
  EXPECT_EQ(table_full.size(), 4u);
  for (const auto& [node, records] : table_full) EXPECT_EQ(records, 1) << "node " << node;

  for (std::size_t i = 0; i < 4; ++i) {
    ShmRuntime& rt = rig.fabric.runtime(i);
    const SroSpaceState* sp =
        GetParam() == ConsistencyClass::kCON ? rt.con_space(kSpace) : rt.sro_space(kSpace);
    ASSERT_NE(sp, nullptr);
    EXPECT_FALSE(sp->read(0).has_value()) << "switch " << i;
    std::map<std::uint64_t, std::uint64_t> snap;
    for (const SnapshotOp& e : sp->snapshot()) snap[e.op.key] = e.op.value;
    const std::map<std::uint64_t, std::uint64_t> want{
        {0, kTombstone}, {1, 101}, {2, 102}, {3, 103}, {4, 104}};
    EXPECT_EQ(snap, want) << "switch " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Classes, TableFull,
                         ::testing::Values(ConsistencyClass::kSRO, ConsistencyClass::kCON));

}  // namespace
}  // namespace swish::shm
