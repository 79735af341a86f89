// Experiment C10 (§7): per-switch memory cost of each protocol class against
// the ~10 MB SRAM budget. Covers the paper's sizing claims: per-key guards
// ("over a million entries"), guard sharing ("multiple keys can share the
// same sequence number and in-progress bit"), ERO dropping pending bits, and
// EWO's per-replica register vectors ("large replica groups with a few tens
// of thousands of entries, or small replica groups with over a million").
#include <iostream>

#include "bench_util.hpp"

using namespace swish;

namespace {

std::size_t bytes_for(shm::SpaceConfig sp, std::size_t replicas) {
  sim::ShardSet shards{1};
  sim::Simulator& sim = shards.sim(0);
  net::Network net{shards, 1};
  pisa::Switch sw{sim, net, 1, {}};
  net.attach(sw);
  std::vector<SwitchId> group;
  for (std::size_t i = 0; i < replicas; ++i) group.push_back(static_cast<SwitchId>(i + 1));
  if (sp.cls == shm::ConsistencyClass::kEWO) {
    shm::EwoSpaceState state(sw, sp, group, 1);
    return sw.memory_bytes();
  }
  shm::SroSpaceState state(sw, sp);
  return sw.memory_bytes();
}

std::string pct_of_budget(std::size_t bytes) {
  return bench::fmt(100.0 * static_cast<double>(bytes) / (10.0 * 1024 * 1024), 2) + "%";
}

/// Bytes of a sparse (ordered CoW index) SRO space holding `live_keys`
/// entries: memory grows with the live set, not the keyspace.
std::size_t sparse_bytes_for(std::size_t live_keys) {
  sim::ShardSet shards{1};
  sim::Simulator& sim = shards.sim(0);
  net::Network net{shards, 1};
  pisa::Switch sw{sim, net, 1, {}};
  net.attach(sw);
  shm::SpaceConfig sp;
  sp.cls = shm::ConsistencyClass::kSRO;
  sp.kind = shm::SpaceKind::kSparse;
  sp.name = "m";
  shm::SroSpaceState state(sw, sp);
  const auto token = sw.control_plane().token();
  // Golden-ratio stride spreads keys over the full 64-bit space, the fill
  // pattern a hashed workload produces.
  std::uint64_t key = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < live_keys; ++i, key += 0x9e3779b97f4a7c15ULL) {
    state.apply(key, i + 1, token);
  }
  return sw.memory_bytes();
}

/// Bytes a single-switch (non-replicated) program would spend on the values
/// alone; everything above this is the replication protocol's overhead.
std::size_t value_bytes(const shm::SpaceConfig& sp) {
  return sp.size * sp.value_bits / 8;
}

void add_row(TextTable& table, const char* variant, const shm::SpaceConfig& sp,
             std::size_t replicas) {
  const std::size_t total = bytes_for(sp, replicas);
  const std::size_t values = value_bytes(sp);
  const std::size_t overhead = total - std::min(total, values);
  table.row({variant, std::to_string(sp.size), std::to_string(replicas),
             std::to_string(values), std::to_string(overhead), std::to_string(total),
             pct_of_budget(overhead)});
}

}  // namespace

int main() {
  TextTable table("C10: switch memory per protocol variant (value width 64b, 10 MB budget)");
  table.header({"variant", "keys", "replicas", "value bytes", "protocol overhead", "total",
                "overhead % of 10 MB"});

  for (std::size_t keys : {1024u, 65536u, 1048576u}) {
    shm::SpaceConfig sro;
    sro.cls = shm::ConsistencyClass::kSRO;
    sro.size = keys;
    sro.name = "m";
    add_row(table, "SRO, per-key guards", sro, 4);
  }
  {
    shm::SpaceConfig sro;
    sro.cls = shm::ConsistencyClass::kSRO;
    sro.size = 1048576;
    sro.guard_slots = 4096;  // §7: keys share seq numbers + pending bits
    sro.name = "m";
    add_row(table, "SRO, 4096 shared guards", sro, 4);
  }
  {
    shm::SpaceConfig ero;
    ero.cls = shm::ConsistencyClass::kERO;
    ero.size = 1048576;
    ero.name = "m";
    add_row(table, "ERO (no pending bits)", ero, 4);
  }
  for (std::size_t replicas : {4u, 16u, 64u}) {
    shm::SpaceConfig ewo;
    ewo.cls = shm::ConsistencyClass::kEWO;
    ewo.merge = shm::MergePolicy::kGCounter;
    ewo.size = 32768;
    ewo.name = "m";
    add_row(table, "EWO G-counter vector", ewo, replicas);
  }
  {
    shm::SpaceConfig ewo;
    ewo.cls = shm::ConsistencyClass::kEWO;
    ewo.merge = shm::MergePolicy::kGCounter;
    ewo.size = 1048576;
    ewo.name = "m";
    add_row(table, "EWO G-counter vector", ewo, 3);
  }
  {
    shm::SpaceConfig lww;
    lww.cls = shm::ConsistencyClass::kEWO;
    lww.merge = shm::MergePolicy::kLww;
    lww.size = 262144;
    lww.name = "m";
    add_row(table, "EWO LWW (value+version)", lww, 16);  // LWW: replica-independent
  }
  table.print(std::cout);

  // Dense arrays are provisioned for the whole keyspace up front; the sparse
  // ordered index pays per live key. The crossover is where the live set
  // approaches the provisioned size.
  TextTable sparse("C10b: dense vs sparse SRO layout (bytes per live key)");
  sparse.header({"layout", "live keys", "total bytes", "bytes/live key", "% of 10 MB"});
  for (std::size_t live : {std::size_t{1024}, std::size_t{102400}, std::size_t{1048576}}) {
    shm::SpaceConfig dense;
    dense.cls = shm::ConsistencyClass::kSRO;
    dense.size = live;
    dense.name = "m";
    const std::size_t dense_bytes = bytes_for(dense, 4);
    sparse.row({"dense, fully provisioned", std::to_string(live), std::to_string(dense_bytes),
                bench::fmt(static_cast<double>(dense_bytes) / static_cast<double>(live), 1),
                pct_of_budget(dense_bytes)});
    const std::size_t sparse_bytes = sparse_bytes_for(live);
    sparse.row({"sparse ordered index", std::to_string(live), std::to_string(sparse_bytes),
                bench::fmt(static_cast<double>(sparse_bytes) / static_cast<double>(live), 1),
                pct_of_budget(sparse_bytes)});
  }
  sparse.print(std::cout);

  bench::print_expectation(
      "SRO guard state is small (seq + 1 pending bit per slot) and shrinks further with "
      "shared guard slots — a million keys fit the budget (§7); EWO's per-replica vectors "
      "scale as keys x replicas: large groups cap out around tens of thousands of entries, "
      "small groups support over a million (§7). The sparse ordered index trades ~5x the "
      "per-entry bytes of a dense slot for population-proportional cost: it wins whenever "
      "the live set is well below the keyspace the dense array must provision for.");
  return 0;
}
