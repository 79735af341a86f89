// Unit tests: the ordered CoW index under sparse spaces — iteration
// determinism, range/LPM edge cases, snapshot isolation under interleaved
// writes, and pin accounting (the ASan job turns the no-leak checks into
// hard failures).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "swishmem/store/ordered_index.hpp"

namespace swish::shm::store {
namespace {

std::vector<std::uint64_t> keys_of(const OrderedIndex& idx) {
  std::vector<std::uint64_t> keys;
  idx.for_each([&](const Entry& e) {
    keys.push_back(e.key);
    return true;
  });
  return keys;
}

TEST(StoreOrderedIndex, IterationIsKeyOrderedRegardlessOfInsertOrder) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; i < 500; ++i) keys.push_back(i * 0x9e3779b97f4a7c15ULL);

  OrderedIndex ascending;
  for (auto k : keys) ascending.upsert(k).value = k;

  std::mt19937_64 rng(7);
  std::shuffle(keys.begin(), keys.end(), rng);
  OrderedIndex shuffled;
  for (auto k : keys) shuffled.upsert(k).value = k;

  const auto a = keys_of(ascending);
  const auto b = keys_of(shuffled);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_EQ(a.size(), 500u);
}

TEST(StoreOrderedIndex, UpsertIsIdempotentOnEntryCount) {
  OrderedIndex idx;
  idx.upsert(42).value = 1;
  idx.upsert(42).value = 2;
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx.find(42)->value, 2u);
  EXPECT_EQ(idx.find(43), nullptr);  // missing key
}

TEST(StoreOrderedIndex, ScanReachesTheMaximumKey) {
  OrderedIndex idx;
  idx.upsert(0).value = 1;
  idx.upsert(~0ULL).value = 2;  // the largest key: scan's upper bound is inclusive
  auto snap = idx.snapshot();
  std::vector<std::uint64_t> seen;
  EXPECT_TRUE(snap.scan(0, [&](const Entry& e) {
    seen.push_back(e.key);
    return true;
  }));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, ~0ULL}));
}

TEST(StoreOrderedIndex, ScanResumesFromRejectedKey) {
  OrderedIndex idx;
  for (std::uint64_t k = 0; k < 100; ++k) idx.upsert(k * 3).value = k;
  auto snap = idx.snapshot();
  // Drain in budgeted batches the way the recovery stream does: stop the
  // walk when the batch fills, then re-scan from the rejected key.
  std::vector<std::uint64_t> drained;
  std::uint64_t cursor = 0;
  bool more = true;
  while (more) {
    std::size_t budget = 7;
    more = false;
    const bool completed = snap.scan(cursor, [&](const Entry& e) {
      if (budget == 0) {
        cursor = e.key;
        more = true;
        return false;
      }
      drained.push_back(e.key);
      --budget;
      return true;
    });
    EXPECT_EQ(completed, !more);
  }
  EXPECT_EQ(drained, keys_of(idx));
}

// -- LPM ---------------------------------------------------------------------

TEST(StoreLpm, LongestOfOverlappingPrefixesWins) {
  OrderedIndex idx;
  idx.upsert(lpm_pack(0x0A000000, 8, 32)).value = 8;    // 10.0.0.0/8
  idx.upsert(lpm_pack(0x0A010000, 16, 32)).value = 16;  // 10.1.0.0/16
  idx.upsert(lpm_pack(0x0A010200, 24, 32)).value = 24;  // 10.1.2.0/24

  EXPECT_EQ(idx.lookup_lpm(0x0A010203, 32)->value, 24u);  // 10.1.2.3
  EXPECT_EQ(idx.lookup_lpm(0x0A010303, 32)->value, 16u);  // 10.1.3.3
  EXPECT_EQ(idx.lookup_lpm(0x0A020303, 32)->value, 8u);   // 10.2.3.3
  EXPECT_EQ(idx.lookup_lpm(0x0B000001, 32), nullptr);     // 11.0.0.1: no match
}

TEST(StoreLpm, ZeroLengthPrefixIsTheDefaultRoute) {
  OrderedIndex idx;
  idx.upsert(lpm_pack(0, 0, 32)).value = 99;
  idx.upsert(lpm_pack(0x0A000000, 8, 32)).value = 8;
  EXPECT_EQ(idx.lookup_lpm(0x0A000001, 32)->value, 8u);
  EXPECT_EQ(idx.lookup_lpm(0xC0A80001, 32)->value, 99u);  // falls to /0
}

TEST(StoreLpm, TombstonedPrefixIsSkipped) {
  OrderedIndex idx;
  idx.upsert(lpm_pack(0x0A000000, 8, 32)).value = 8;
  idx.upsert(lpm_pack(0x0A010000, 16, 32)).value = kStoreTombstone;
  // The /16 exists as an entry but is erased: lookup falls through to the /8.
  EXPECT_EQ(idx.lookup_lpm(0x0A010203, 32)->value, 8u);
}

TEST(StoreLpm, PackRejectsOversizedInputs) {
  EXPECT_THROW(lpm_pack(0, 0, kMaxLpmKeyBits + 1), std::invalid_argument);
  EXPECT_THROW(lpm_pack(0, 33, 32), std::invalid_argument);
  // Host bits are masked off: both spellings name the same prefix.
  EXPECT_EQ(lpm_pack(0x0A0102FF, 24, 32), lpm_pack(0x0A010200, 24, 32));
}

// -- Snapshots ---------------------------------------------------------------

TEST(StoreSnapshot, IsolationUnderInterleavedWrites) {
  OrderedIndex idx;
  for (std::uint64_t k = 0; k < 200; ++k) idx.upsert(k).value = k;
  auto frozen = idx.snapshot();

  // Interleave overwrites, inserts, and a logical erase with snapshot reads.
  for (std::uint64_t k = 0; k < 200; ++k) {
    idx.upsert(k).value = k + 1000;
    idx.upsert(k + 500).value = 1;
    idx.upsert(7).value = kStoreTombstone;
    ASSERT_EQ(frozen.find(k)->value, k) << "snapshot leaked a later write";
    ASSERT_EQ(frozen.find(k + 500), nullptr);
  }
  EXPECT_EQ(frozen.size(), 200u);
  EXPECT_EQ(idx.size(), 400u);
  // A new snapshot sees the current state.
  auto fresh = idx.snapshot();
  EXPECT_EQ(fresh.find(0)->value, 1000u);
  EXPECT_EQ(fresh.find(7)->value, kStoreTombstone);
}

TEST(StoreSnapshot, ClearKeepsPinnedPagesAlive) {
  OrderedIndex idx;
  for (std::uint64_t k = 0; k < 100; ++k) idx.upsert(k).value = k;
  auto frozen = idx.snapshot();
  idx.clear();
  EXPECT_EQ(idx.size(), 0u);
  EXPECT_EQ(frozen.size(), 100u);
  EXPECT_EQ(frozen.find(42)->value, 42u);
}

TEST(StoreSnapshot, PinReleaseFreesCowPages) {
  OrderedIndex idx;
  for (std::uint64_t k = 0; k < 2000; ++k) idx.upsert(k).value = k;
  const std::size_t live_bytes = idx.memory_bytes();
  const std::size_t live_nodes = idx.counters().leaves + idx.counters().inners;

  std::size_t pinned_bytes = 0;
  {
    auto pin = idx.snapshot();
    EXPECT_EQ(idx.counters().pins, 1u);
    // Writes under the pin copy every shared node on the path.
    for (std::uint64_t k = 0; k < 2000; k += 10) idx.upsert(k).value = k + 1;
    EXPECT_GT(idx.counters().cow_copies, 0u);
    pinned_bytes = idx.memory_bytes();
    EXPECT_GT(pinned_bytes, live_bytes) << "frozen pages must be accounted";
  }
  // Pin released: the frozen pages free immediately and accounting returns
  // to roughly the live tree alone — "roughly" because preemptive splits
  // during the descent may have legitimately grown the live tree by a node
  // or two. ASan verifies the actual memory is freed.
  EXPECT_EQ(idx.counters().pins, 0u);
  EXPECT_LE(idx.counters().leaves + idx.counters().inners, live_nodes + 4);
  EXPECT_LT(idx.memory_bytes(), pinned_bytes);
  EXPECT_LE(idx.memory_bytes(), live_bytes + 4096);
}

TEST(StoreSnapshot, ReleaseIsIdempotentAndMoveSafe) {
  OrderedIndex idx;
  idx.upsert(1).value = 1;
  auto a = idx.snapshot();
  a.release();
  a.release();
  EXPECT_EQ(idx.counters().pins, 0u);
  auto b = idx.snapshot();
  auto c = std::move(b);
  EXPECT_EQ(idx.counters().pins, 1u);
  EXPECT_EQ(c.find(1)->value, 1u);
  c.release();
  EXPECT_EQ(idx.counters().pins, 0u);
}

TEST(StoreSnapshot, ManyConcurrentPinsStayConsistent) {
  OrderedIndex idx;
  std::vector<OrderedIndex::Snapshot> pins;
  for (std::uint64_t gen = 0; gen < 8; ++gen) {
    for (std::uint64_t k = 0; k < 64; ++k) idx.upsert(k).value = gen;
    pins.push_back(idx.snapshot());
  }
  for (std::uint64_t gen = 0; gen < 8; ++gen) {
    EXPECT_EQ(pins[gen].find(5)->value, gen) << "each pin holds its own generation";
  }
  pins.clear();
  EXPECT_EQ(idx.counters().pins, 0u);
}

TEST(StoreOrderedIndex, MemoryGrowsWithLiveEntriesOnly) {
  OrderedIndex idx;
  // Two far-apart keys cost two leaves at most — not the span between them.
  idx.upsert(0).value = 1;
  idx.upsert(~0ULL - 1).value = 1;
  EXPECT_LE(idx.counters().leaves, 2u);
  const std::size_t small = idx.memory_bytes();
  for (std::uint64_t k = 0; k < 10000; ++k) idx.upsert(k * 1000).value = k;
  const std::size_t large = idx.memory_bytes();
  EXPECT_GT(large, small);
  // Rough proportionality: bytes per entry stays within a small constant.
  EXPECT_LT(large / idx.size(), 200u);
}

}  // namespace
}  // namespace swish::shm::store
