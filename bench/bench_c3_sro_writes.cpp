// Experiment C3 (§6.1): SRO write cost. "Its write throughput is limited by
// the need to send packets through the control plane."
//
// Part A: commit latency vs chain length (writes are cheap to issue; latency
// grows linearly with the chain because the request visits every hop).
// Part B: achieved commit rate vs offered write rate with a bounded CP,
// locating the control-plane ceiling.
#include <iostream>

#include "bench_util.hpp"

using namespace swish;

int main() {
  {
    TextTable table("C3a: SRO write commit latency vs chain length (unloaded)");
    table.header({"chain length", "p50 (us)", "p99 (us)", "committed"});
    for (std::size_t n : {2, 3, 4, 6, 8}) {
      shm::FabricConfig cfg;
      cfg.num_switches = n;
      bench::DriverRig rig(cfg);
      for (int i = 0; i < 200; ++i) {
        rig.fabric.simulator().schedule_at(i * 100 * kUs + 1, [&rig, i]() {
          rig.fabric.sw(0).inject(
              bench::op_packet(7, static_cast<std::uint16_t>(1000 + i % 256)));
        });
      }
      rig.fabric.run_for(500 * kMs);
      // The writer is runtime(0), switch id 1.
      const auto snap = rig.fabric.metrics_snapshot();
      const Histogram& h = snap.values.at("shm.sw1.sro.write_latency_ns").hist;
      table.row({std::to_string(n), bench::fmt(h.p50() / 1000.0, 1),
                 bench::fmt(h.p99() / 1000.0, 1), std::to_string(h.count())});
    }
    table.print(std::cout);
  }

  {
    TextTable table("C3b: SRO commit rate vs offered writes (4-switch chain, 20 Kops/s CP)");
    table.header({"offered writes/s", "committed", "committed/s", "rejected (CP full)",
                  "p99 latency (us)"});
    for (double rate : {1e3, 5e3, 1e4, 2e4, 5e4, 1e5}) {
      shm::FabricConfig cfg;
      cfg.num_switches = 4;
      cfg.switch_config.control_plane.ops_per_sec = 20'000;
      cfg.switch_config.control_plane.max_queue = 128;
      cfg.runtime.cp_buffer_limit = 100'000;
      bench::DriverRig rig(cfg);
      const TimeNs duration = 100 * kMs;
      const auto gap = static_cast<TimeNs>(static_cast<double>(kSec) / rate);
      const auto total = static_cast<std::uint64_t>(rate * duration / kSec);
      for (std::uint64_t i = 0; i < total; ++i) {
        rig.fabric.simulator().schedule_at(static_cast<TimeNs>(i) * gap + 1, [&rig, i]() {
          rig.fabric.sw(0).inject(
              bench::op_packet(7, static_cast<std::uint16_t>(1000 + i % 256)));
        });
      }
      rig.fabric.run_for(duration + 400 * kMs);
      const auto snap = rig.fabric.metrics_snapshot();
      const std::uint64_t committed = snap.values.at("shm.sw1.sro.writes_committed").count;
      const Histogram& latency = snap.values.at("shm.sw1.sro.write_latency_ns").hist;
      table.row({bench::fmt(rate, 0), std::to_string(committed),
                 bench::fmt(static_cast<double>(committed) * kSec / duration, 0),
                 std::to_string(snap.values.at("shm.sw1.sro.writes_rejected").count),
                 bench::fmt(latency.p99() / 1000.0, 1)});
    }
    table.print(std::cout);
  }

  bench::print_expectation(
      "commit latency grows roughly linearly with chain length (one traversal plus the ack); "
      "commit throughput plateaus near the control-plane service rate — the paper's stated "
      "SRO bottleneck — with overload surfacing as rejections and latency blow-up.");
  return 0;
}
