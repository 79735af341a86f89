// Microbenchmarks (google-benchmark) of the hot-path primitives every
// simulated packet touches: parsing, checksums, flow hashing, protocol
// message codec, register/sketch updates, and raw event throughput. These
// bound the simulator's own capacity and document the per-op costs of the
// data structures the protocols rely on.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "net/network.hpp"
#include "packet/flow.hpp"
#include "packet/swish_wire.hpp"
#include "pisa/control_plane.hpp"
#include "sim/simulator.hpp"
#include "swishmem/store/ordered_index.hpp"

namespace swish {
namespace {

pkt::Packet sample_packet() {
  pkt::PacketSpec spec;
  spec.ip_src = pkt::Ipv4Addr(192, 168, 1, 10);
  spec.ip_dst = pkt::Ipv4Addr(10, 0, 0, 1);
  spec.protocol = pkt::kProtoTcp;
  spec.src_port = 12345;
  spec.dst_port = 80;
  spec.payload.assign(64, 0xAB);
  return pkt::build_packet(spec);
}

void BM_PacketBuild(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_packet());
  }
}
BENCHMARK(BM_PacketBuild);

void BM_PacketParse(benchmark::State& state) {
  const pkt::Packet p = sample_packet();
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.parse());
  }
}
BENCHMARK(BM_PacketParse);

void BM_InternetChecksum(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkt::internet_checksum(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_InternetChecksum)->Arg(20)->Arg(256)->Arg(1500);

void BM_FlowKeyHash(benchmark::State& state) {
  pkt::FlowKey key{pkt::Ipv4Addr(1, 2, 3, 4), pkt::Ipv4Addr(5, 6, 7, 8), 1111, 80, 6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.hash());
    ++key.src_port;
  }
}
BENCHMARK(BM_FlowKeyHash);

void BM_WireEncodeWriteRequest(benchmark::State& state) {
  pkt::WriteRequest m;
  for (int i = 0; i < state.range(0); ++i) {
    m.ops.push_back({1, static_cast<std::uint64_t>(i), 42});
    m.seqs.push_back(static_cast<SeqNum>(i + 1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkt::encode_message(m));
  }
}
BENCHMARK(BM_WireEncodeWriteRequest)->Arg(1)->Arg(8)->Arg(64);

// A mirror flush's message: 16 entries is ewo_flood's mirror_batch.
void BM_WireEncodeEwoUpdate(benchmark::State& state) {
  pkt::EwoUpdate m;
  m.origin = 3;
  for (int i = 0; i < state.range(0); ++i) {
    m.entries.push_back({1, static_cast<std::uint64_t>(i), 7, 9});
  }
  const pkt::SwishMessage msg = m;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkt::encode_message(msg));
  }
}
BENCHMARK(BM_WireEncodeEwoUpdate)->Arg(1)->Arg(16);

void BM_WireDecodeEwoUpdate(benchmark::State& state) {
  pkt::EwoUpdate m;
  for (int i = 0; i < state.range(0); ++i) {
    m.entries.push_back({1, static_cast<std::uint64_t>(i), 7, 9});
  }
  const auto bytes = pkt::encode_message(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkt::decode_message(bytes));
  }
}
BENCHMARK(BM_WireDecodeEwoUpdate)->Arg(1)->Arg(64);

void BM_RegisterAdd(benchmark::State& state) {
  pisa::RegisterArray regs("r", 65536, 64);
  RegisterIndex i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(regs.add(i, 1));
    i = (i + 257) & 0xFFFF;
  }
}
BENCHMARK(BM_RegisterAdd);

void BM_ExactTableLookup(benchmark::State& state) {
  sim::Simulator sim;
  pisa::ControlPlane cp(sim, {});
  pisa::ExactTable table("t", 65536);
  for (std::uint64_t k = 0; k < 65536; ++k) table.insert(cp.token(), k * 2654435761u, k);
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(k * 2654435761u));
    k = (k + 1) & 0xFFFF;
  }
}
BENCHMARK(BM_ExactTableLookup);

// The exact-match table as table-backed SRO spaces use it. Each chain hop
// inserts a committed key into its own replica's table, and tables start
// empty, so nat_churn's shape is 16 tables filled round-robin, growth
// included. Keys step by a golden-ratio stride, which spreads them the way
// the hashed keys NFs write are spread.
constexpr std::uint64_t kStride = 0x9e3779b97f4a7c15ULL;

void BM_ExactTableInsertFromEmpty(benchmark::State& state) {
  sim::Simulator sim;
  pisa::ControlPlane cp(sim, {});
  const auto keys = static_cast<std::uint64_t>(state.range(0));
  constexpr std::size_t kTables = 16;
  for (auto _ : state) {
    std::vector<std::unique_ptr<pisa::ExactTable>> tables;
    for (std::size_t t = 0; t < kTables; ++t) {
      tables.push_back(std::make_unique<pisa::ExactTable>("t", 65536));
    }
    std::uint64_t key = kStride;
    for (std::uint64_t i = 0; i < keys; ++i, key += kStride) {
      for (const auto& table : tables) {
        benchmark::DoNotOptimize(table->insert(cp.token(), key, i));
      }
    }
    benchmark::DoNotOptimize(tables.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(keys * kTables));
}
BENCHMARK(BM_ExactTableInsertFromEmpty)->Arg(16000)->Unit(benchmark::kMillisecond);

void BM_ExactTableLookupMiss(benchmark::State& state) {
  sim::Simulator sim;
  pisa::ControlPlane cp(sim, {});
  pisa::ExactTable table("t", 65536);
  for (std::uint64_t k = 0; k < 65536; ++k) table.insert(cp.token(), k * 2654435761u, k);
  std::uint64_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(k * 2654435761u + 1));  // never inserted
    k = (k + 1) & 0xFFFF;
  }
}
BENCHMARK(BM_ExactTableLookupMiss);

/// One erase of the oldest key plus one insert of a new key per iteration,
/// at a steady occupancy of range(0) entries (the firewall's connection teardown).
void BM_ExactTableChurn(benchmark::State& state) {
  sim::Simulator sim;
  pisa::ControlPlane cp(sim, {});
  const auto live = static_cast<std::uint64_t>(state.range(0));
  pisa::ExactTable table("t", 65536);
  std::uint64_t oldest = kStride;
  std::uint64_t next = kStride;
  for (std::uint64_t i = 0; i < live; ++i, next += kStride) table.insert(cp.token(), next, i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.erase(cp.token(), oldest));
    benchmark::DoNotOptimize(table.insert(cp.token(), next, oldest));
    oldest += kStride;
    next += kStride;
  }
}
BENCHMARK(BM_ExactTableChurn)->Arg(16000);

// Sparse-store primitives: the ordered CoW index under sparse spaces. Keys
// use the golden-ratio stride so the tree sees the spread a hashed workload
// produces.

void fill_index(shm::store::OrderedIndex& idx, std::uint64_t n) {
  std::uint64_t key = kStride;
  for (std::uint64_t i = 0; i < n; ++i, key += kStride) {
    idx.upsert(key).value = i;
  }
}

void BM_StoreUpsert(benchmark::State& state) {
  shm::store::OrderedIndex idx;
  fill_index(idx, static_cast<std::uint64_t>(state.range(0)));
  std::uint64_t key = kStride;
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.upsert(key).value += 1);
    key += kStride;
  }
}
BENCHMARK(BM_StoreUpsert)->Arg(1024)->Arg(65536)->Arg(1048576);

void BM_StoreFind(benchmark::State& state) {
  shm::store::OrderedIndex idx;
  fill_index(idx, static_cast<std::uint64_t>(state.range(0)));
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.find((i + 1) * kStride));
    i = (i + 1) % n;
  }
}
BENCHMARK(BM_StoreFind)->Arg(1024)->Arg(65536)->Arg(1048576);

void BM_StoreLpmLookup(benchmark::State& state) {
  // /8 through /24 prefixes over a 32-bit keyspace; each lookup probes
  // longest-first until a hit.
  shm::store::OrderedIndex idx;
  for (std::uint64_t p = 0; p < 256; ++p) {
    idx.upsert(shm::store::lpm_pack(p << 24, 8, 32)).value = p + 1;
    idx.upsert(shm::store::lpm_pack((p << 24) | (p << 16), 24, 32)).value = p + 1000;
  }
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.lookup_lpm(addr & 0xffffffffu, 32));
    addr += kStride;
  }
}
BENCHMARK(BM_StoreLpmLookup);

void BM_StoreSnapshotPin(benchmark::State& state) {
  shm::store::OrderedIndex idx;
  fill_index(idx, static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    auto snap = idx.snapshot();
    benchmark::DoNotOptimize(snap);
  }
}
BENCHMARK(BM_StoreSnapshotPin)->Arg(65536)->Arg(1048576);

void BM_StoreCowWriteUnderPin(benchmark::State& state) {
  // Worst case for a write: a held snapshot forces path copies.
  shm::store::OrderedIndex idx;
  fill_index(idx, static_cast<std::uint64_t>(state.range(0)));
  std::uint64_t key = kStride;
  for (auto _ : state) {
    auto snap = idx.snapshot();
    benchmark::DoNotOptimize(idx.upsert(key).value += 1);
    key += kStride;
  }
}
BENCHMARK(BM_StoreCowWriteUnderPin)->Arg(65536)->Arg(1048576);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at(i, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

}  // namespace
}  // namespace swish

BENCHMARK_MAIN();
