// Regression tests for Controller::migrate_space callback lifetime: the
// sequential-stream driver holds only a weak self-reference, so once a
// migration completes (or collapses to a pure chain switch-over) nothing in
// the simulator retains the caller's done-callback. A strong self-capture
// would form an unreclaimable shared_ptr cycle and silently leak every
// capture of every migration — caught here via a sentinel's use_count.
#include <gtest/gtest.h>

#include <memory>

#include "swishmem/fabric.hpp"

#include "read_value.hpp"

namespace swish::shm {
namespace {

constexpr std::uint32_t kPart = 55;

/// Port 2000+k: reads key k of the space with the packet's context.
class Reader : public NfApp {
 public:
  void process(pisa::PacketContext& ctx, ShmRuntime& rt) override {
    if (!ctx.parsed || !ctx.parsed->udp) return;
    const std::uint16_t port = ctx.parsed->udp->dst_port;
    if (port < 2000 || port >= 3000) return;
    std::uint64_t value = 0;
    const ReadStatus st = rt.read(&ctx, kPart, port - 2000, value);
    if (st == ReadStatus::kOk) {
      last_read = value;
      ++reads_ok;
    } else if (st == ReadStatus::kRedirected) {
      ++reads_redirected;
    }
  }
  std::uint64_t last_read = 0;
  int reads_ok = 0;
  int reads_redirected = 0;
};

pkt::Packet read_packet(std::uint64_t key) {
  pkt::PacketSpec spec;
  spec.ip_src = pkt::Ipv4Addr(1, 2, 3, 4);
  spec.ip_dst = pkt::Ipv4Addr(9, 9, 9, 9);
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = 7;
  spec.dst_port = static_cast<std::uint16_t>(2000 + key);
  spec.payload = {0};
  return pkt::build_packet(spec);
}

struct Rig {
  Fabric fabric;
  std::vector<Reader*> readers;

  explicit Rig(std::vector<SwitchId> replicas, std::size_t switches = 4,
               std::size_t shards = 1, SpaceKind kind = SpaceKind::kDense,
               ConsistencyClass cls = ConsistencyClass::kSRO)
      : fabric(make_cfg(switches, shards)) {
    SpaceConfig sp;
    sp.id = kPart;
    sp.name = "mig";
    sp.cls = cls;
    sp.kind = kind;
    sp.size = 256;
    fabric.add_space(sp, std::move(replicas));
    fabric.install([this]() {
      auto r = std::make_unique<Reader>();
      readers.push_back(r.get());
      return r;
    });
    fabric.start();
  }
  static FabricConfig make_cfg(std::size_t n, std::size_t shards = 1) {
    FabricConfig c;
    c.num_switches = n;
    c.shards = shards;
    return c;
  }

  void write(std::size_t from, std::uint64_t key, std::uint64_t value) {
    fabric.runtime(from).write({{kPart, key, value}}, pkt::Packet{}, nullptr);
  }
};

TEST(ControllerMigrate, DoneCallbackReleasedAfterGrowMigration) {
  Rig rig({1, 2});
  for (std::uint64_t k = 0; k < 10; ++k) rig.write(0, k, 100 + k);
  rig.fabric.run_for(200 * kMs);

  auto sentinel = std::make_shared<int>(42);
  TimeNs migrated_at = -1;
  int fires = 0;
  rig.fabric.controller().migrate_space(
      kPart, {3, 4}, [&migrated_at, &fires, sentinel](TimeNs t) {
        migrated_at = t;
        ++fires;
      });
  // In flight: the migration machinery holds the callback (and sentinel).
  EXPECT_GT(sentinel.use_count(), 1);

  rig.fabric.run_for(2 * kSec);
  ASSERT_GT(migrated_at, 0);
  EXPECT_EQ(fires, 1);  // done fires exactly once
  // Completed: only our local copy remains — the recovery-stream driver's
  // self-reference must not keep the callback chain alive.
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(ControllerMigrate, DoneCallbackReleasedAfterShrinkMigration) {
  // Shrinks skip the streaming path entirely (no joiners); the finish
  // closure must still run and release everything it captured.
  Rig rig({1, 2, 3});
  rig.write(0, 5, 77);
  rig.fabric.run_for(100 * kMs);

  auto sentinel = std::make_shared<int>(7);
  int fires = 0;
  rig.fabric.controller().migrate_space(kPart, {1, 2},
                                        [&fires, sentinel](TimeNs) { ++fires; });
  rig.fabric.run_for(1 * kSec);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(ControllerMigrate, MultiJoinerMigrationStreamsSequentiallyAndReleases) {
  Rig rig({1});
  for (std::uint64_t k = 0; k < 20; ++k) rig.write(0, k, 500 + k);
  rig.fabric.run_for(200 * kMs);

  auto sentinel = std::make_shared<int>(1);
  int fires = 0;
  rig.fabric.controller().migrate_space(kPart, {2, 3, 4},
                                        [&fires, sentinel](TimeNs) { ++fires; });
  rig.fabric.run_for(3 * kSec);
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sentinel.use_count(), 1);
  // Every joiner received the streamed state.
  for (std::size_t i : {1u, 2u, 3u}) {
    ASSERT_NE(rig.fabric.runtime(i).sro_space(kPart), nullptr) << i;
    EXPECT_EQ(rig.fabric.runtime(i).sro_space(kPart)->read(3).value(), 503u) << i;
  }
}

TEST(ControllerMigrate, RejoinAfterShrinkStartsFromTheDonor) {
  // A switch migrated out of a chain space keeps that space's storage. When
  // a later migration brings it back, it must reuse that storage and start
  // empty, like a revived switch, so the donor's stream alone rebuilds it:
  // no second set of arrays, no value frozen at the shrink, and guards that
  // let the next write commit.
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(std::to_string(shards) + " shard(s)");
    Rig rig({1, 2, 3, 4}, /*switches=*/4, shards);
    rig.write(0, 5, 42);
    rig.fabric.run_for(200 * kMs);
    const std::size_t hosted_bytes = rig.fabric.sw(3).memory_bytes();

    int fires = 0;
    rig.fabric.controller().migrate_space(kPart, {1, 2, 3}, [&fires](TimeNs) { ++fires; });
    rig.fabric.run_for(200 * kMs);
    rig.write(0, 5, 0);
    rig.write(0, 6, 66);
    rig.fabric.run_for(200 * kMs);
    rig.fabric.controller().migrate_space(kPart, {1, 2, 3, 4}, [&fires](TimeNs) { ++fires; });
    rig.fabric.run_for(1 * kSec);
    ASSERT_EQ(fires, 2);
    EXPECT_EQ(rig.fabric.sw(3).memory_bytes(), hosted_bytes);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(read_value(rig.fabric.runtime(i), kPart, 5), 0u) << "switch " << i;
      EXPECT_EQ(read_value(rig.fabric.runtime(i), kPart, 6), 66u) << "switch " << i;
    }

    rig.write(0, 5, 7);
    rig.fabric.run_for(500 * kMs);
    EXPECT_EQ(rig.fabric.metrics_snapshot().values.at("shm.sw1.sro.writes_failed").count, 0u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(read_value(rig.fabric.runtime(i), kPart, 5), 7u) << "switch " << i;
    }
  }
}

TEST(ControllerMigrate, LeaverReadsFromTheTail) {
  // A switch migrated out of a chain space stops receiving its writes, so
  // it must stop serving its copy: like any non-replica, a read with a
  // packet context is redirected to the space's tail (for ERO too, whose
  // replicas read locally), and a read without one is a miss.
  for (ConsistencyClass cls : {ConsistencyClass::kSRO, ConsistencyClass::kERO}) {
    for (std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
      SCOPED_TRACE(std::string(to_string(cls)) + ", " + std::to_string(shards) + " shard(s)");
      Rig rig({1, 2, 3, 4}, /*switches=*/4, shards, SpaceKind::kDense, cls);
      rig.write(0, 5, 42);
      rig.fabric.run_for(200 * kMs);
      int fires = 0;
      rig.fabric.controller().migrate_space(kPart, {1, 2, 3}, [&fires](TimeNs) { ++fires; });
      rig.fabric.run_for(200 * kMs);
      ASSERT_EQ(fires, 1);
      rig.write(0, 5, 43);
      rig.fabric.run_for(200 * kMs);

      ShmRuntime& leaver = rig.fabric.runtime(3);  // switch id 4
      std::uint64_t value = 0;
      EXPECT_EQ(leaver.read(nullptr, kPart, 5, value), ReadStatus::kMiss);

      rig.fabric.sw(3).inject(read_packet(5));
      rig.fabric.run_for(100 * kMs);
      EXPECT_EQ(rig.readers[3]->reads_redirected, 1);
      EXPECT_EQ(rig.readers[3]->reads_ok, 0);
      // Answered at the new tail, switch id 3, with the write after the shrink.
      EXPECT_EQ(rig.readers[2]->reads_ok, 1);
      EXPECT_EQ(rig.readers[2]->last_read, 43u);
    }
  }
}

// -- Concurrent-migration consistency ------------------------------------------
//
// Writes that land while the donor streams its snapshot must reach the
// joiners exactly once — through the live tap, behind the frozen image —
// and the final state must match a run where no migration happened at all.
// Run at 1/2/4 shards: the parallel core must not reorder the boundary.

using StateVec = std::vector<std::array<std::uint64_t, 4>>;

StateVec collect(ShmRuntime& rt) {
  std::vector<SnapshotOp> snap;
  SnapshotSources sources;
  rt.engine_for_space(kPart)->append_snapshot_sources(kPart, sources);
  for (const auto& source : sources) {
    while (source->next(64, snap)) {
    }
  }
  StateVec v;
  v.reserve(snap.size());
  for (const auto& s : snap) v.push_back({s.op.space, s.op.key, s.op.value, s.seq});
  return v;
}

StateVec run_scenario(std::size_t shards, bool migrate, SpaceKind kind) {
  Rig rig({1, 2}, /*switches=*/6, shards, kind);
  // Every run stops exactly on its deadline, so each harness write below
  // lands at the same virtual time at every shard count.
  TimeNs deadline = rig.fabric.simulator().now();
  const auto run_for = [&](TimeNs d) {
    deadline += d;
    rig.fabric.run_for(d);
    EXPECT_EQ(rig.fabric.simulator().now(), deadline) << "shards=" << shards;
  };
  for (std::uint64_t k = 0; k < 200; ++k) rig.write(0, k, 100 + k);
  run_for(300 * kMs);

  int fires = 0;
  if (migrate) {
    rig.fabric.controller().migrate_space(kPart, {3, 4}, [&fires](TimeNs) { ++fires; });
  }
  // Keep writing while the snapshot stream drains (and after it finishes —
  // the spread covers both sides of the freeze boundary).
  for (std::uint64_t i = 0; i < 40; ++i) {
    rig.write(0, 200 + i, 900 + i);
    run_for(2 * kMs);
  }
  run_for(2 * kSec);

  if (migrate) {
    EXPECT_EQ(fires, 1);
    // Both joiners converged on identical state.
    const StateVec a = collect(rig.fabric.runtime(2));  // switch id 3
    const StateVec b = collect(rig.fabric.runtime(3));  // switch id 4
    EXPECT_EQ(a, b);
    return a;
  }
  return collect(rig.fabric.runtime(0));  // switch id 1, the untouched replica
}

TEST(ControllerMigrate, ConcurrentWritesSurviveSparseMigrationIdentically) {
  const StateVec reference = run_scenario(1, /*migrate=*/false, SpaceKind::kSparse);
  EXPECT_EQ(reference.size(), 240u);
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(run_scenario(shards, /*migrate=*/true, SpaceKind::kSparse), reference)
        << "shards=" << shards;
  }
}

TEST(ControllerMigrate, ConcurrentWritesSurviveDenseMigrationIdentically) {
  const StateVec reference = run_scenario(1, /*migrate=*/false, SpaceKind::kDense);
  EXPECT_EQ(reference.size(), 240u);
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(run_scenario(shards, /*migrate=*/true, SpaceKind::kDense), reference)
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace swish::shm
