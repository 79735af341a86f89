// Experiment C11 (§7, "Bandwidth overhead"): "Generating write requests for
// replication consumes available bandwidth which may be substantial
// especially in write-intensive workloads. Batching write requests may
// alleviate this issue at the expense of reduced availability and
// consistency."
//
// A fixed write-intensive counter workload runs at each mirror batch size;
// we report replication bytes on the wire (the bandwidth cost) and the
// staleness a remote replica observes mid-run (the consistency cost).
#include <iostream>

#include "bench_util.hpp"

using namespace swish;

int main() {
  TextTable table(
      "C11: EWO mirror batching, 20k increments at one switch over 100 ms (3 switches)");
  table.header({"batch size", "update packets", "replication bytes", "bytes/write",
                "mid-run remote staleness (increments)"});
  for (std::size_t batch : {1u, 4u, 16u, 64u, 256u}) {
    shm::FabricConfig cfg;
    cfg.num_switches = 3;
    cfg.runtime.sync_period = 50 * kMs;  // mirrors dominate
    cfg.runtime.mirror_flush_interval = 1 * kMs;
    bench::DriverRig rig(cfg, 1024, 0, batch);

    constexpr int kWrites = 20000;
    constexpr TimeNs kSpan = 100 * kMs;
    for (int i = 0; i < kWrites; ++i) {
      rig.fabric.simulator().schedule_at(i * (kSpan / kWrites) + 1, [&rig]() {
        rig.fabric.sw(0).inject(bench::op_packet(1, 3000));
      });
    }
    // Sample staleness halfway through the burst.
    std::uint64_t staleness = 0;
    rig.fabric.simulator().schedule_at(kSpan / 2, [&]() {
      const auto local = bench::read_value(rig.fabric.runtime(0), bench::kCtrSpace, 0);
      const auto remote = bench::read_value(rig.fabric.runtime(1), bench::kCtrSpace, 0);
      staleness = local - std::min(local, remote);
    });
    rig.fabric.run_for(kSpan + 100 * kMs);

    // The writer is runtime(0), switch id 1.
    const auto snap = rig.fabric.metrics_snapshot();
    const std::uint64_t bytes = snap.values.at("shm.sw1.ewo.bytes").count;
    table.row({std::to_string(batch),
               std::to_string(snap.values.at("shm.sw1.ewo.updates_sent").count),
               std::to_string(bytes), bench::fmt(static_cast<double>(bytes) / kWrites, 1),
               std::to_string(staleness)});
  }
  table.print(std::cout);
  bench::print_expectation(
      "bytes per write fall sharply with the batch size (shared packet headers amortize), "
      "while the remote replica's staleness grows — the availability/consistency cost of "
      "batching the paper calls out in §7.");
  return 0;
}
