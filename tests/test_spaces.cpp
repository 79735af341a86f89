// Unit tests: SRO guard tables (seq/pending, slot sharing) and EWO storage
// (LWW merge, G-counter / PN-counter CRDT vectors, gossip collection).
#include <gtest/gtest.h>

#include <optional>
#include <utility>

#include "swishmem/spaces.hpp"
#include "swishmem/version.hpp"

namespace swish::shm {
namespace {

struct Rig {
  sim::ShardSet shards{1};
  sim::Simulator& sim = shards.sim(0);
  net::Network net{shards, 3};
  pisa::Switch sw{sim, net, 1, {}};
  Rig() { net.attach(sw); }
  pisa::CpToken token() { return sw.control_plane().token(); }
};

SpaceConfig sro_cfg(bool table_backed = false, std::size_t guard_slots = 0) {
  SpaceConfig c;
  c.id = 1;
  c.name = "t";
  c.cls = ConsistencyClass::kSRO;
  c.size = 64;
  c.table_backed = table_backed;
  c.guard_slots = guard_slots;
  return c;
}

TEST(Version, PackUnpack) {
  const RawVersion v = Version::pack(123456789, 7);
  EXPECT_EQ(Version::timestamp(v), 123456789);
  EXPECT_EQ(Version::switch_id(v), 7u);
}

TEST(Version, TimestampDominatesOrdering) {
  EXPECT_GT(Version::pack(100, 1), Version::pack(99, 255));
  // Tie on timestamp: switch id breaks it.
  EXPECT_GT(Version::pack(100, 2), Version::pack(100, 1));
}

TEST(SroSpace, RegisterBackedReadApply) {
  Rig rig;
  SroSpaceState sp(rig.sw, sro_cfg());
  EXPECT_EQ(sp.read(5).value(), 0u);
  sp.apply(5, 42, rig.token());
  EXPECT_EQ(sp.read(5).value(), 42u);
  EXPECT_FALSE(sp.read(999).has_value());  // out of range
}

TEST(SroSpace, TableBackedInsertEraseTombstone) {
  Rig rig;
  SroSpaceState sp(rig.sw, sro_cfg(/*table_backed=*/true));
  EXPECT_FALSE(sp.read(0xABCDEF).has_value());
  sp.apply(0xABCDEF, 7, rig.token());
  EXPECT_EQ(sp.read(0xABCDEF).value(), 7u);
  sp.apply(0xABCDEF, kTombstone, rig.token());
  EXPECT_FALSE(sp.read(0xABCDEF).has_value());
}

TEST(SroSpace, TableBackedSnapshotCarriesEraseTombstones) {
  // An erased connection leaves no table entry behind; the snapshot must
  // still carry the deletion so a replica with stale state drops it instead
  // of resurrecting the connection on recovery (§6.3).
  Rig rig;
  SroSpaceState sp(rig.sw, sro_cfg(/*table_backed=*/true));
  sp.apply(10, 100, rig.token());
  sp.apply(20, 200, rig.token());
  sp.apply(30, 300, rig.token());
  sp.apply(20, kTombstone, rig.token());

  // Deterministic layout: live entries key-ordered, then tombstones
  // key-ordered behind them.
  const auto snap = sp.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].op.key, 10u);
  EXPECT_EQ(snap[0].op.value, 100u);
  EXPECT_EQ(snap[1].op.key, 30u);
  EXPECT_EQ(snap[1].op.value, 300u);
  EXPECT_EQ(snap[2].op.key, 20u);
  EXPECT_EQ(snap[2].op.value, kTombstone);

  // Replaying the tombstone onto a replica that still holds the key erases it.
  SroSpaceState stale(rig.sw, sro_cfg(/*table_backed=*/true));
  stale.apply(20, 200, rig.token());
  stale.apply(snap[2].op.key, snap[2].op.value, rig.token());
  EXPECT_FALSE(stale.read(20).has_value());

  // Re-inserting the key clears the erased-key record: the next snapshot
  // carries the live value and no stale deletion.
  sp.apply(20, 222, rig.token());
  const auto snap2 = sp.snapshot();
  ASSERT_EQ(snap2.size(), 3u);
  for (const auto& e : snap2) EXPECT_NE(e.op.value, kTombstone) << "key " << e.op.key;
  EXPECT_EQ(snap2[1].op.key, 20u);
  EXPECT_EQ(snap2[1].op.value, 222u);
}

TEST(SroSpace, GuardSeqAndPending) {
  Rig rig;
  SroSpaceState sp(rig.sw, sro_cfg());
  EXPECT_EQ(sp.key_guard_seq(5), 0u);
  EXPECT_FALSE(sp.key_pending(5));
  sp.set_key_guard_seq(5, 3);
  sp.set_key_pending(5);
  EXPECT_TRUE(sp.key_pending(5));
  // Ack for an older write does not clear: a newer write is still in flight.
  sp.clear_key_pending_up_to(5, 2);
  EXPECT_TRUE(sp.key_pending(5));
  sp.clear_key_pending_up_to(5, 3);
  EXPECT_FALSE(sp.key_pending(5));
}

TEST(SroSpace, EroHasNoPendingBits) {
  Rig rig;
  SpaceConfig cfg = sro_cfg();
  cfg.cls = ConsistencyClass::kERO;
  SroSpaceState sp(rig.sw, cfg);
  sp.set_key_pending(1);  // no-op
  EXPECT_FALSE(sp.key_pending(1));
}

TEST(SroSpace, SharedGuardSlots) {
  Rig rig;
  SroSpaceState sp(rig.sw, sro_cfg(false, /*guard_slots=*/4));
  // All keys map into 4 slots.
  for (std::uint64_t k = 0; k < 64; ++k) EXPECT_LT(sp.slot(k), 4u);
  // Some distinct keys must share a slot.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> shared;
  for (std::uint64_t a = 0; a < 8 && !shared; ++a) {
    for (std::uint64_t b = a + 1; b < 8; ++b) {
      if (sp.slot(a) == sp.slot(b)) {
        shared = {a, b};
        break;
      }
    }
  }
  ASSERT_TRUE(shared);
  // Keys sharing a slot share its guard: the seq and the pending bit one
  // key sets are the other's too (§7's false-pending trade-off).
  const auto [a, b] = *shared;
  sp.set_key_guard_seq(a, 7);
  sp.set_key_pending(a);
  EXPECT_EQ(sp.key_guard_seq(b), 7u);
  EXPECT_TRUE(sp.key_pending(b));
  sp.clear_key_pending_up_to(b, 7);
  EXPECT_FALSE(sp.key_pending(a));
}

TEST(SroSpace, GuardMemorySmallerWithSharing) {
  Rig rig1, rig2;
  SroSpaceState full(rig1.sw, sro_cfg(false, 0));
  SroSpaceState shared(rig2.sw, sro_cfg(false, 8));
  EXPECT_LT(rig2.sw.memory_bytes(), rig1.sw.memory_bytes());
}

TEST(SroSpace, SnapshotSkipsZeroRegisters) {
  Rig rig;
  SroSpaceState sp(rig.sw, sro_cfg());
  sp.apply(3, 30, rig.token());
  sp.apply(9, 90, rig.token());
  sp.set_key_guard_seq(3, 5);
  auto snap = sp.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  for (const auto& e : snap) {
    EXPECT_TRUE((e.op.key == 3 && e.op.value == 30 && e.seq == 5) ||
                (e.op.key == 9 && e.op.value == 90));
  }
}

TEST(SroSpace, SnapshotCoversTableEntries) {
  Rig rig;
  SroSpaceState sp(rig.sw, sro_cfg(true));
  sp.apply(0xAAA, 1, rig.token());
  sp.apply(0xBBB, 2, rig.token());
  EXPECT_EQ(sp.snapshot().size(), 2u);
}

TEST(SroSpace, ResetClearsEverything) {
  Rig rig;
  SroSpaceState sp(rig.sw, sro_cfg());
  sp.apply(1, 10, rig.token());
  sp.set_key_guard_seq(1, 4);
  sp.set_key_pending(1);
  sp.reset(rig.token());
  EXPECT_EQ(sp.read(1).value(), 0u);
  EXPECT_EQ(sp.key_guard_seq(1), 0u);
  EXPECT_FALSE(sp.key_pending(1));
}

TEST(SroSpace, RejectsEwoClass) {
  Rig rig;
  SpaceConfig cfg = sro_cfg();
  cfg.cls = ConsistencyClass::kEWO;
  EXPECT_THROW(SroSpaceState(rig.sw, cfg), std::invalid_argument);
}

SpaceConfig ewo_cfg(MergePolicy merge) {
  SpaceConfig c;
  c.id = 2;
  c.name = "e";
  c.cls = ConsistencyClass::kEWO;
  c.size = 16;
  c.merge = merge;
  return c;
}

const std::vector<SwitchId> kReplicas{1, 2, 3};

TEST(EwoSpace, LwwLocalWriteAndRead) {
  Rig rig;
  EwoSpaceState sp(rig.sw, ewo_cfg(MergePolicy::kLww), kReplicas, 1);
  sp.write_local(4, 99, Version::pack(10, 1));
  EXPECT_EQ(sp.read(4), 99u);
}

TEST(EwoSpace, LwwMergeNewerWins) {
  Rig rig;
  EwoSpaceState sp(rig.sw, ewo_cfg(MergePolicy::kLww), kReplicas, 1);
  sp.write_local(4, 10, Version::pack(100, 1));
  EXPECT_FALSE(sp.merge({2, 4, Version::pack(50, 2), 777}));  // older: rejected
  EXPECT_EQ(sp.read(4), 10u);
  EXPECT_TRUE(sp.merge({2, 4, Version::pack(200, 2), 777}));  // newer: applied
  EXPECT_EQ(sp.read(4), 777u);
}

TEST(EwoSpace, LwwMergeIdempotent) {
  Rig rig;
  EwoSpaceState sp(rig.sw, ewo_cfg(MergePolicy::kLww), kReplicas, 1);
  const pkt::EwoEntry e{2, 4, Version::pack(100, 2), 5};
  EXPECT_TRUE(sp.merge(e));
  EXPECT_FALSE(sp.merge(e));  // same version: no change
}

TEST(EwoSpace, LwwTieBrokenBySwitchId) {
  Rig rig;
  EwoSpaceState sp(rig.sw, ewo_cfg(MergePolicy::kLww), kReplicas, 1);
  sp.write_local(0, 1, Version::pack(100, 1));
  EXPECT_TRUE(sp.merge({3, 0, Version::pack(100, 3), 3}));  // same ts, higher id
  EXPECT_EQ(sp.read(0), 3u);
}

TEST(EwoSpace, GCounterAggregatesAcrossSlots) {
  Rig rig;
  EwoSpaceState sp(rig.sw, ewo_cfg(MergePolicy::kGCounter), kReplicas, 1);
  sp.add_local(0, 5);
  sp.add_local(0, 5);
  EXPECT_EQ(sp.read(0), 10u);
  // Remote slot for switch 2: version = (owner << 1).
  EXPECT_TRUE(sp.merge({2, 0, static_cast<RawVersion>(2) << 1, 7}));
  EXPECT_EQ(sp.read(0), 17u);
}

TEST(EwoSpace, GCounterMergeIsMax) {
  Rig rig;
  EwoSpaceState sp(rig.sw, ewo_cfg(MergePolicy::kGCounter), kReplicas, 1);
  EXPECT_TRUE(sp.merge({2, 0, static_cast<RawVersion>(2) << 1, 10}));
  EXPECT_FALSE(sp.merge({2, 0, static_cast<RawVersion>(2) << 1, 4}));  // stale
  EXPECT_EQ(sp.read(0), 10u);
}

TEST(EwoSpace, GCounterRejectsNegativeDelta) {
  Rig rig;
  EwoSpaceState sp(rig.sw, ewo_cfg(MergePolicy::kGCounter), kReplicas, 1);
  EXPECT_THROW(sp.add_local(0, -1), std::logic_error);
}

TEST(EwoSpace, PnCounterSupportsDecrement) {
  Rig rig;
  EwoSpaceState sp(rig.sw, ewo_cfg(MergePolicy::kPNCounter), kReplicas, 1);
  sp.add_local(0, 10);
  sp.add_local(0, -3);
  EXPECT_EQ(sp.read(0), 7u);
  // Remote negative vector entry: version = (owner << 1) | 1.
  EXPECT_TRUE(sp.merge({2, 0, (static_cast<RawVersion>(2) << 1) | 1, 2}));
  EXPECT_EQ(sp.read(0), 5u);
}

TEST(EwoSpace, TableBackedNeedsSparse) {
  // Dense EWO indexes register arrays by raw key; a table-backed space keys
  // by 64-bit flow hashes, so only the sparse layout can hold it.
  Rig rig;
  SpaceConfig cfg = ewo_cfg(MergePolicy::kLww);
  cfg.table_backed = true;
  try {
    EwoSpaceState sp(rig.sw, cfg, kReplicas, 1);
    ADD_FAILURE() << "dense table-backed EWO space was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ewo:sparse"), std::string::npos) << e.what();
  }
  cfg.kind = SpaceKind::kSparse;
  EwoSpaceState sparse(rig.sw, cfg, kReplicas, 1);
  sparse.write_local(0xDEADBEEFCAFEull, 7, Version::pack(10, 1));
  EXPECT_EQ(sparse.read(0xDEADBEEFCAFEull), 7u);
}

TEST(EwoSpace, WrongApiThrows) {
  Rig rig;
  EwoSpaceState lww(rig.sw, ewo_cfg(MergePolicy::kLww), kReplicas, 1);
  EXPECT_THROW(lww.add_local(0, 1), std::logic_error);
  Rig rig2;
  EwoSpaceState ctr(rig2.sw, ewo_cfg(MergePolicy::kGCounter), kReplicas, 1);
  EXPECT_THROW(ctr.write_local(0, 1, 1), std::logic_error);
}

TEST(EwoSpace, UnknownOriginIgnored) {
  Rig rig;
  EwoSpaceState sp(rig.sw, ewo_cfg(MergePolicy::kGCounter), kReplicas, 1);
  EXPECT_FALSE(sp.merge({9, 0, static_cast<RawVersion>(9) << 1, 5}));
  EXPECT_EQ(sp.read(0), 0u);
}

TEST(EwoSpace, OwnEntriesCarryOwnSlot) {
  Rig rig;
  EwoSpaceState sp(rig.sw, ewo_cfg(MergePolicy::kGCounter), kReplicas, 1);
  sp.add_local(3, 5);
  std::vector<pkt::EwoEntry> out;
  sp.collect_own_entries(3, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].version >> 1, 1u);  // owner = self
  EXPECT_EQ(out[0].value, 5u);
}

TEST(EwoSpace, SyncEntriesGossipAllKnowledge) {
  Rig rig;
  EwoSpaceState sp(rig.sw, ewo_cfg(MergePolicy::kGCounter), kReplicas, 1);
  sp.add_local(0, 1);
  ASSERT_TRUE(sp.merge({2, 1, static_cast<RawVersion>(2) << 1, 9}));  // knowledge about 2
  std::vector<pkt::EwoEntry> out;
  sp.collect_sync_entries(out);
  // Gossip includes switch 2's slot, not only our own (EWO failover, §6.3).
  bool has_own = false, has_remote = false;
  for (const auto& e : out) {
    if ((e.version >> 1) == 1) has_own = true;
    if ((e.version >> 1) == 2) has_remote = true;
  }
  EXPECT_TRUE(has_own);
  EXPECT_TRUE(has_remote);
}

TEST(EwoSpace, SyncSkipsZeroes) {
  Rig rig;
  EwoSpaceState sp(rig.sw, ewo_cfg(MergePolicy::kGCounter), kReplicas, 1);
  std::vector<pkt::EwoEntry> out;
  sp.collect_sync_entries(out);
  EXPECT_TRUE(out.empty());
}

TEST(EwoSpace, SelfMustBeReplica) {
  Rig rig;
  EXPECT_THROW(EwoSpaceState(rig.sw, ewo_cfg(MergePolicy::kLww), {2, 3}, 1),
               std::invalid_argument);
}

TEST(EwoSpace, MergedStateConvergesRegardlessOfOrder) {
  // CRDT property check: applying the same entry set in different orders
  // yields identical state.
  std::vector<pkt::EwoEntry> entries;
  for (std::uint64_t k = 0; k < 8; ++k) {
    entries.push_back({2, k, static_cast<RawVersion>(2) << 1, k * 3 + 1});
    entries.push_back({3, k, static_cast<RawVersion>(3) << 1, k + 10});
    entries.push_back({2, k, static_cast<RawVersion>(2) << 1, k});  // stale dup
  }
  Rig rig1, rig2;
  EwoSpaceState fwd(rig1.sw, ewo_cfg(MergePolicy::kGCounter), kReplicas, 1);
  EwoSpaceState rev(rig2.sw, ewo_cfg(MergePolicy::kGCounter), kReplicas, 1);
  for (const auto& e : entries) fwd.merge(e);
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) rev.merge(*it);
  for (std::uint64_t k = 0; k < 8; ++k) EXPECT_EQ(fwd.read(k), rev.read(k));
}

}  // namespace
}  // namespace swish::shm
