// Experiment C6 (§6.2): EWO convergence and merge semantics under loss.
//
// Part A: after a burst of counter increments, how long until every replica
// reads the exact total, as a function of loss rate and sync period (the
// periodic sync is what bounds convergence when mirrors are lost).
// Part B: LWW vs G-counter correctness — concurrent increments through LWW
// registers lose updates (last writer clobbers), while the CRDT counter is
// exact; both converge to *agreement*, only the CRDT converges to the truth.
#include <iostream>

#include "bench_util.hpp"

using namespace swish;

namespace {

/// Runs a 3-switch burst of 300 increments and polls for convergence.
TimeNs convergence_time(double loss, TimeNs sync_period) {
  shm::FabricConfig cfg;
  cfg.num_switches = 3;
  cfg.link.loss_probability = loss;
  cfg.runtime.sync_period = sync_period;
  bench::DriverRig rig(cfg);
  for (int i = 0; i < 300; ++i) {
    rig.fabric.sw(i % 3).inject(bench::op_packet(1, 3000));
  }
  const TimeNs burst_end = rig.fabric.simulator().now();
  for (TimeNs t = 0; t < 5 * kSec; t += 100 * kUs) {
    rig.fabric.run_for(100 * kUs);
    bool done = true;
    for (std::size_t i = 0; i < 3; ++i) {
      if (bench::read_value(rig.fabric.runtime(i), bench::kCtrSpace, 0) != 300) done = false;
    }
    if (done) return rig.fabric.simulator().now() - burst_end;
  }
  return -1;
}

}  // namespace

int main() {
  {
    TextTable table("C6a: EWO convergence time after a 300-increment burst (3 switches)");
    table.header({"loss", "sync 0.5 ms", "sync 2 ms", "sync 10 ms"});
    for (double loss : {0.0, 0.05, 0.2, 0.4}) {
      std::vector<std::string> row{bench::fmt(100 * loss, 0) + "%"};
      for (TimeNs period : {500 * kUs, 2 * kMs, 10 * kMs}) {
        const TimeNs t = convergence_time(loss, period);
        row.push_back(t < 0 ? "never" : bench::fmt(t / 1e6, 2) + " ms");
      }
      table.row(row);
    }
    table.print(std::cout);
  }

  {
    TextTable table("C6b: merge semantics under concurrent counting (900 increments, 3 switches)");
    table.header({"merge policy", "replicas agree", "final value", "true value", "error"});
    for (bool crdt : {true, false}) {
      shm::FabricConfig cfg;
      cfg.num_switches = 3;
      cfg.runtime.sync_period = 1 * kMs;
      shm::Fabric fabric(cfg);
      shm::SpaceConfig sp;
      sp.id = 1;
      sp.name = "c6";
      sp.cls = shm::ConsistencyClass::kEWO;
      sp.merge = crdt ? shm::MergePolicy::kGCounter : shm::MergePolicy::kLww;
      sp.size = 4;
      fabric.add_space(sp);
      fabric.install(nullptr);
      fabric.start();
      // Concurrent increments at all three switches. LWW must emulate a
      // counter via read-modify-write of a plain register — the broken idiom
      // the paper's CRDT discussion warns about.
      for (int i = 0; i < 900; ++i) {
        auto& rt = fabric.runtime(i % 3);
        if (crdt) {
          rt.update(1, 0, 1);
        } else {
          rt.write({{1, 0, bench::read_value(rt, 1, 0) + 1}}, pkt::Packet{}, nullptr);
        }
        if (i % 10 == 9) fabric.run_for(200 * kUs);  // interleave with replication
      }
      fabric.run_for(500 * kMs);
      const auto v0 = bench::read_value(fabric.runtime(0), 1, 0);
      bool agree = true;
      for (std::size_t i = 1; i < 3; ++i) {
        if (bench::read_value(fabric.runtime(i), 1, 0) != v0) agree = false;
      }
      table.row({crdt ? "G-counter (CRDT)" : "LWW register", agree ? "yes" : "no",
                 std::to_string(v0), "900",
                 bench::fmt(100.0 * (900.0 - static_cast<double>(v0)) / 900.0, 1) + "%"});
    }
    table.print(std::cout);
  }

  bench::print_expectation(
      "convergence time is bounded by a few sync periods and degrades gracefully with loss "
      "(gossip retries); the CRDT counter is exact under concurrency while LWW, though it "
      "converges to agreement, silently loses concurrent increments — why counters get a "
      "vector CRDT (§6.2).");
  return 0;
}
