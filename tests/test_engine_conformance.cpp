// Engine conformance: the same workload, assertions, and failover drills run
// against every consistency class through the uniform runtime API
// (read/write/update). What "replicated" means differs per class — SRO/ERO
// and EWO converge on every replica, OWN keeps the value at the owner plus a
// periodically-flushed backup at the key's home — so the per-contract helper
// encodes exactly the guarantee each engine advertises, and nothing more.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "swishmem/fabric.hpp"
#include "swishmem/protocols/owner_engine.hpp"

namespace swish::shm {
namespace {

constexpr std::uint32_t kSpace = 20;

/// Driver NF on the uniform API: UDP dst port selects an action.
///  port 1000+k : write value=src_port to key k, deliver output on release
///  port 2000+k : read key k; deliver packet if Ok (records value)
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
    } else if (port >= 3000 && port < 4000) {
      rt.update(kSpace, port - 3000, +1, [this](std::uint64_t v) { update_results.push_back(v); });
    }
  }
  std::uint64_t last_read = 0;
  int reads_ok = 0;
  int reads_redirected = 0;
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

/// One conformance variant: a consistency class over either storage layout.
/// Sparse runs the same contract drills on the ordered CoW index.
struct Variant {
  ConsistencyClass cls;
  SpaceKind kind = SpaceKind::kDense;
};

struct Rig {
  shm::Fabric fabric;
  std::vector<Driver*> drivers;
  std::uint64_t delivered = 0;

  explicit Rig(FabricConfig cfg, Variant v, MergePolicy merge = MergePolicy::kLww)
      : fabric(cfg) {
    SpaceConfig sp;
    sp.id = kSpace;
    sp.name = "drv";
    sp.cls = v.cls;
    sp.kind = v.kind;
    sp.size = 256;
    sp.merge = merge;
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

/// The stored value for `key` on switch `i`, through whichever state type the
/// class uses (nullopt when the switch has no copy).
std::optional<std::uint64_t> stored(ShmRuntime& rt, ConsistencyClass cls, std::uint64_t key) {
  switch (cls) {
    case ConsistencyClass::kSRO:
    case ConsistencyClass::kERO: {
      const auto* st = rt.sro_space(kSpace);
      return st ? st->read(key) : std::nullopt;
    }
    case ConsistencyClass::kEWO: {
      const auto* st = rt.ewo_space(kSpace);
      if (!st) return std::nullopt;
      return st->read(key);
    }
    case ConsistencyClass::kOWN: {
      const auto* st = rt.own_space(kSpace);
      if (!st) return std::nullopt;
      return st->value(key);
    }
    case ConsistencyClass::kCON: {
      const auto* st = rt.con_space(kSpace);
      return st ? st->read(key) : std::nullopt;
    }
  }
  return std::nullopt;
}

/// Asserts `key == value` everywhere the class's replication contract
/// promises a copy: every live replica for SRO/ERO/EWO; the writer (owner)
/// and the key's home backup for OWN.
void expect_replicated(Rig& rig, ConsistencyClass cls, std::size_t writer, std::uint64_t key,
                       std::uint64_t value, const std::vector<std::size_t>& dead = {}) {
  const auto is_dead = [&](std::size_t i) {
    return std::find(dead.begin(), dead.end(), i) != dead.end();
  };
  if (cls == ConsistencyClass::kOWN) {
    auto& wrt = rig.fabric.runtime(writer);
    EXPECT_EQ(stored(wrt, cls, key).value_or(~0ull), value) << "owner copy, switch " << writer;
    const auto* engine = dynamic_cast<const OwnerEngine*>(wrt.engine_for_space(kSpace));
    ASSERT_NE(engine, nullptr);
    const SwitchId home = engine->home_of(kSpace, key);
    for (std::size_t i = 0; i < rig.fabric.size(); ++i) {
      if (rig.fabric.sw(i).id() == home && !is_dead(i)) {
        EXPECT_EQ(stored(rig.fabric.runtime(i), cls, key).value_or(~0ull), value)
            << "home backup, switch " << i;
      }
    }
    return;
  }
  for (std::size_t i = 0; i < rig.fabric.size(); ++i) {
    if (is_dead(i)) continue;
    EXPECT_EQ(stored(rig.fabric.runtime(i), cls, key).value_or(~0ull), value)
        << "replica " << i;
  }
}

FabricConfig cfg4() {
  FabricConfig c;
  c.num_switches = 4;
  return c;
}

class EngineConformance : public ::testing::TestWithParam<Variant> {};

TEST_P(EngineConformance, WriteReleasesOutputAndAppliesLocally) {
  Rig rig(cfg4(), GetParam());
  rig.fabric.sw(1).inject(udp(111, 1005));
  rig.fabric.run_for(50 * kMs);
  EXPECT_EQ(rig.delivered, 1u);
  EXPECT_EQ(stored(rig.fabric.runtime(1), GetParam().cls, 5).value_or(~0ull), 111u);
}

TEST_P(EngineConformance, ReplicationMatchesClassContract) {
  Rig rig(cfg4(), GetParam());
  rig.fabric.sw(1).inject(udp(222, 1007));
  rig.fabric.run_for(50 * kMs);  // covers chain commit, EWO mirror, OWN backup flush
  expect_replicated(rig, GetParam().cls, /*writer=*/1, /*key=*/7, /*value=*/222);
}

TEST_P(EngineConformance, ReadOnWriterIsFresh) {
  Rig rig(cfg4(), GetParam());
  rig.fabric.sw(2).inject(udp(77, 1003));
  rig.fabric.run_for(50 * kMs);
  rig.fabric.sw(2).inject(udp(0, 2003));
  rig.fabric.run_for(10 * kMs);
  EXPECT_EQ(rig.drivers[2]->reads_ok, 1);
  EXPECT_EQ(rig.drivers[2]->last_read, 77u);
}

TEST_P(EngineConformance, UpdateSupportMatchesClassContract) {
  // Atomic fetch-add is an EWO/OWN capability; the chain classes reject it
  // (multi-op chain writes are the SRO/ERO mutation primitive).
  const bool expect_supported = GetParam().cls == ConsistencyClass::kEWO ||
                                GetParam().cls == ConsistencyClass::kOWN;
  if (GetParam().kind == SpaceKind::kSparse && GetParam().cls == ConsistencyClass::kEWO) {
    // Counter CRDTs keep per-replica vectors in dense registers; the sparse
    // layout supports LWW and G-set merges only, and says so loudly.
    EXPECT_THROW(Rig(cfg4(), GetParam(), MergePolicy::kPNCounter), std::invalid_argument);
    return;
  }
  // EWO counters require a counter merge policy (kLww spaces reject add).
  Rig rig(cfg4(), GetParam(), MergePolicy::kPNCounter);
  for (int n = 0; n < 3; ++n) rig.fabric.sw(0).inject(udp(0, 3009));
  rig.fabric.run_for(50 * kMs);
  if (expect_supported) {
    EXPECT_EQ(rig.drivers[0]->update_results, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(stored(rig.fabric.runtime(0), GetParam().cls, 9).value_or(~0ull), 3u);
  } else {
    // No read-modify-write: `done` never fires and the key is never set.
    EXPECT_TRUE(rig.drivers[0]->update_results.empty());
    EXPECT_EQ(stored(rig.fabric.runtime(0), GetParam().cls, 9).value_or(0), 0u);
  }
}

TEST_P(EngineConformance, WritesStillCommitAfterReplicaFailure) {
  Rig rig(cfg4(), GetParam());
  rig.fabric.run_for(50 * kMs);  // warm: heartbeats flowing
  rig.fabric.kill_switch(3);
  rig.fabric.run_for(150 * kMs);  // detection + chain repair / group push
  rig.fabric.sw(1).inject(udp(42, 1012));
  rig.fabric.run_for(100 * kMs);
  EXPECT_EQ(rig.delivered, 1u);
  expect_replicated(rig, GetParam().cls, /*writer=*/1, /*key=*/12, /*value=*/42, /*dead=*/{3});
}

TEST_P(EngineConformance, RevivedSwitchServesNewWrites) {
  Rig rig(cfg4(), GetParam());
  rig.fabric.run_for(50 * kMs);
  rig.fabric.kill_switch(2);
  rig.fabric.run_for(150 * kMs);
  rig.fabric.revive_switch(2);
  rig.fabric.run_for(300 * kMs);  // readmission + recovery stream
  rig.fabric.sw(0).inject(udp(55, 1014));
  rig.fabric.run_for(100 * kMs);
  EXPECT_EQ(rig.delivered, 1u);
  expect_replicated(rig, GetParam().cls, /*writer=*/0, /*key=*/14, /*value=*/55);
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, EngineConformance,
    ::testing::Values(Variant{ConsistencyClass::kSRO}, Variant{ConsistencyClass::kERO},
                      Variant{ConsistencyClass::kEWO}, Variant{ConsistencyClass::kOWN},
                      Variant{ConsistencyClass::kCON},
                      Variant{ConsistencyClass::kSRO, SpaceKind::kSparse},
                      Variant{ConsistencyClass::kERO, SpaceKind::kSparse},
                      Variant{ConsistencyClass::kEWO, SpaceKind::kSparse},
                      Variant{ConsistencyClass::kOWN, SpaceKind::kSparse},
                      Variant{ConsistencyClass::kCON, SpaceKind::kSparse}),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return std::string(to_string(info.param.cls)) + "_" + to_string(info.param.kind);
    });

// -- Bandwidth reconciliation (per-message-class accounting) -------------------

TEST(BandwidthAccounting, PerClassBytesSumToTotal) {
  // Mixed traffic across three engines, with loss-driven retries and a
  // failover thrown in: every byte a switch sends must land in exactly one
  // per-class counter.
  FabricConfig cfg = cfg4();
  cfg.link.loss_probability = 0.05;
  Rig sro(cfg, {ConsistencyClass::kSRO});
  Rig ewo(cfg, {ConsistencyClass::kEWO});
  Rig own(cfg, {ConsistencyClass::kOWN});
  Rig con(cfg, {ConsistencyClass::kCON});
  for (Rig* rig : {&sro, &ewo, &own, &con}) {
    for (int k = 0; k < 10; ++k) {
      rig->fabric.sw(k % 4).inject(udp(static_cast<std::uint16_t>(100 + k),
                                       static_cast<std::uint16_t>(1000 + k)));
    }
    rig->fabric.run_for(100 * kMs);
    rig->fabric.kill_switch(3);
    rig->fabric.run_for(200 * kMs);
    rig->fabric.sw(0).inject(udp(7, 1011));
    rig->fabric.run_for(100 * kMs);
    // Each rig runs one engine; the other classes' cells are absent (zero).
    const telemetry::MetricsSnapshot snap = rig->fabric.metrics_snapshot();
    auto count = [&snap](const std::string& name) -> std::uint64_t {
      auto it = snap.values.find(name);
      return it == snap.values.end() ? 0 : it->second.count;
    };
    for (std::size_t i = 0; i < rig->fabric.size(); ++i) {
      const std::string p = "shm.sw" + std::to_string(i + 1) + ".";
      EXPECT_EQ(count(p + "sro.bytes_write") + count(p + "sro.bytes_redirect") +
                    count(p + "ero.bytes_write") + count(p + "ero.bytes_redirect") +
                    count(p + "ewo.bytes") + count(p + "own.bytes") + count(p + "con.bytes") +
                    count(p + "bytes_recovery") + count(p + "bytes_control") +
                    count(p + "bytes_int"),
                count(p + "bytes_total"))
          << "switch " << i;
      EXPECT_GT(count(p + "bytes_total"), 0u) << "switch " << i;
    }
  }
}

}  // namespace
}  // namespace swish::shm
