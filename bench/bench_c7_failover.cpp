// Experiment C7 (§6.3, SRO): failover and recovery.
//
// Part A: timeline of one tail failure — detection delay, write-availability
// gap (writes stall until the chain is repaired and retries land), and the
// commit latency of writes issued during the outage.
// Part B: recovery cost vs state size — snapshot-stream chunks, bytes, and
// time until the replacement switch has the full state and rejoins as tail.
#include <cstring>
#include <iostream>

#include "bench_util.hpp"

using namespace swish;

int main(int argc, char** argv) {
  std::string out;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) out = argv[++i];
  }
  bench::JsonArtifact artifact("c7_sro_failover");
  {
    TextTable table("C7a: SRO failover timeline (4-switch chain, tail killed; times in ms)");
    table.header({"heartbeat timeout", "detected after", "repaired after",
                  "in-flight write committed after", "writes lost"});
    for (TimeNs hb_timeout : {10 * kMs, 20 * kMs, 50 * kMs}) {
      shm::FabricConfig cfg;
      cfg.num_switches = 4;
      cfg.runtime.heartbeat_period = hb_timeout / 4;
      cfg.controller.heartbeat_timeout = hb_timeout;
      cfg.controller.check_period = hb_timeout / 4;
      cfg.runtime.write_retry_timeout = 2 * kMs;
      // The retry budget must outlast the detection window, or writes in
      // flight at the failure die before the chain is repaired.
      cfg.runtime.max_write_retries = 60;
      bench::DriverRig rig(cfg);

      TimeNs killed_at = 0, detected_at = 0, repaired_at = 0;
      rig.fabric.controller().on_failure_detected = [&](SwitchId, TimeNs t) { detected_at = t; };
      rig.fabric.controller().on_failover_complete = [&](SwitchId, TimeNs t) { repaired_at = t; };
      rig.fabric.run_for(100 * kMs);  // warm heartbeats

      killed_at = rig.fabric.simulator().now();
      rig.fabric.kill_switch(3);  // the tail
      // A write issued right after the kill: it must survive via retry.
      rig.fabric.sw(1).inject(bench::op_packet(9, 1005));
      rig.fabric.run_for(2 * kSec);

      // The writer is runtime(1), switch id 2.
      const auto snap = rig.fabric.metrics_snapshot();
      const Histogram& latency = snap.values.at("shm.sw2.sro.write_latency_ns").hist;
      const std::uint64_t writes_lost = snap.values.at("shm.sw2.sro.writes_failed").count;
      const double commit_ms = latency.count() ? latency.max() / 1e6 : -1.0;
      table.row({bench::fmt(hb_timeout / 1e6, 0), bench::fmt((detected_at - killed_at) / 1e6, 1),
                 bench::fmt((repaired_at - killed_at) / 1e6, 1), bench::fmt(commit_ms, 1),
                 std::to_string(writes_lost)});

      // Detection and repair reported separately: wall-clock from the hooks,
      // protocol-measured staleness/repair time from the controller's
      // failover.detection_ns / failover.repair_ns histograms.
      double detection_hist_ms = 0, repair_hist_ms = 0;
      for (const auto& [name, value] : snap.values) {
        if (name == "failover.detection_ns") detection_hist_ms = value.hist.p50() / 1e6;
        if (name == "failover.repair_ns") repair_hist_ms = value.hist.p50() / 1e6;
      }
      artifact.row()
          .str("part", "a_timeline")
          .num("hb_timeout_ms", hb_timeout / 1e6, 0)
          .num("detection_ms", (detected_at - killed_at) / 1e6)
          .num("repair_ms", (repaired_at - detected_at) / 1e6)
          .num("failover_ms", (repaired_at - killed_at) / 1e6)
          .num("detection_hist_p50_ms", detection_hist_ms)
          .num("repair_hist_p50_ms", repair_hist_ms)
          .num("commit_ms", commit_ms)
          .num("writes_lost", writes_lost);
    }
    table.print(std::cout);
  }

  {
    TextTable table("C7b: SRO recovery cost vs state size (replacement switch rejoins)");
    table.header({"populated keys", "stream chunks", "write-path bytes (donor)",
                  "recovery time (ms)"});
    for (std::size_t keys : {50u, 200u, 800u}) {
      shm::FabricConfig cfg;
      cfg.num_switches = 4;
      cfg.runtime.heartbeat_period = 5 * kMs;
      cfg.controller.heartbeat_timeout = 20 * kMs;
      cfg.controller.check_period = 5 * kMs;
      bench::DriverRig rig(cfg);
      rig.fabric.run_for(50 * kMs);
      for (std::size_t k = 0; k < keys; ++k) {
        rig.fabric.sw(k % 4).inject(
            bench::op_packet(static_cast<std::uint16_t>(k), static_cast<std::uint16_t>(1000 + k % 1000)));
        if (k % 50 == 49) rig.fabric.run_for(5 * kMs);
      }
      rig.fabric.run_for(200 * kMs);

      rig.fabric.kill_switch(1);
      rig.fabric.run_for(100 * kMs);

      TimeNs recovered_at = -1;
      rig.fabric.controller().on_recovery_complete = [&](SwitchId, TimeNs t) { recovered_at = t; };
      const auto before = rig.fabric.metrics_snapshot();
      const TimeNs revive_at = rig.fabric.simulator().now();
      rig.fabric.revive_switch(1);
      rig.fabric.run_for(2 * kSec);

      // Donor is the current tail (switch index 3, id 4). Its write-path
      // bytes are the chain WriteRequest/WriteAck frames plus the recovery
      // stream, which reuses them.
      const auto delta = telemetry::MetricsSnapshot::diff(rig.fabric.metrics_snapshot(), before);
      const auto count = [&delta](const char* name) { return delta.values.at(name).count; };
      const std::uint64_t chunks = count("shm.sw4.recovery_chunks_sent");
      const std::uint64_t bytes = count("shm.sw4.sro.bytes_write") +
                                  count("shm.sw4.ero.bytes_write") +
                                  count("shm.sw4.bytes_recovery");
      table.row({std::to_string(keys), std::to_string(chunks), std::to_string(bytes),
                 recovered_at < 0 ? "never" : bench::fmt((recovered_at - revive_at) / 1e6, 1)});
      artifact.row()
          .str("part", "b_recovery")
          .num("keys", static_cast<std::uint64_t>(keys))
          .num("stream_chunks", chunks)
          .num("donor_bytes", bytes)
          .num("recovery_ms", recovered_at < 0 ? -1.0 : (recovered_at - revive_at) / 1e6);
    }
    table.print(std::cout);
  }
  if (!out.empty()) artifact.write_file(out);

  bench::print_expectation(
      "failover time is dominated by the heartbeat timeout; in-flight writes dropped by the "
      "failure are re-sent by the writer's control plane and commit once the chain is repaired "
      "(no writes lost). Recovery cost scales linearly with live state, transferred as "
      "seq-guarded writes through the normal protocol (§6.3).");
  return 0;
}
