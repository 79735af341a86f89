// Distributed NAT with a fabric-wide shared port pool on the OWN engine.
//
//   $ ./nat_owner_pool
//
// The sharded pool of distributed_nat needs no shared state but statically
// splits the port range: a switch carrying most of the ingress traffic can
// exhaust its shard while the others sit idle. This example instead allocates
// every public port from ONE global counter replicated with the kOWN class:
// per-key single-writer ownership. The first switch to allocate pulls
// ownership of the counter key to itself and then allocates at data-plane
// speed with purely local fetch-adds; when the ingress shifts, ownership
// migrates once and the new switch allocates locally. Allocation stays
// linearizable — the fabric can never hand the same public port to two
// different connections.
#include <iostream>
#include <set>

#include "common/table.hpp"
#include "nf/nat.hpp"
#include "swishmem/fabric.hpp"
#include "swishmem/protocols/owner_engine.hpp"
#include "workload/traffic.hpp"

using namespace swish;

int main() {
  shm::FabricConfig cfg;
  cfg.num_switches = 4;

  shm::Fabric fabric(cfg);
  fabric.add_space(nf::NatApp::space());
  fabric.add_space(nf::NatApp::port_pool_space());

  nf::NatApp::Config nat_cfg;
  nat_cfg.shared_port_pool = true;

  std::vector<nf::NatApp*> apps;
  fabric.install([&] {
    auto app = std::make_unique<nf::NatApp>(nat_cfg);
    apps.push_back(app.get());
    return app;
  });
  fabric.start();

  workload::MeasuringSink sink(fabric.simulator());
  fabric.set_delivery_sink(sink.callback());

  workload::TrafficConfig traffic;
  traffic.flows_per_sec = 2000;
  traffic.mean_packets_per_flow = 8;
  traffic.reroute_probability = 0.3;  // aggressive multipath
  traffic.server_ip = pkt::Ipv4Addr(8, 8, 8, 8);  // external destination
  workload::TrafficGenerator gen(fabric, traffic);
  gen.start(500 * kMs);
  fabric.run_for(2 * kSec);

  TextTable table("Distributed NAT, shared kOWN port pool, 30% re-routing");
  table.header({"switch", "pool allocations", "translated out", "owns counter",
                "own acquisitions", "own revokes"});
  std::uint64_t total_allocs = 0;
  std::set<std::uint64_t> owners;
  const auto snap = fabric.metrics_snapshot();
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const auto& st = apps[i]->stats();
    const std::string own = "shm.sw" + std::to_string(fabric.sw(i).id()) + ".own.";
    const auto* engine = dynamic_cast<const shm::OwnerEngine*>(
        fabric.runtime(i).engine_for_space(nf::kNatPortPoolSpace));
    const bool owns = engine != nullptr && engine->owns(nf::kNatPortPoolSpace, 0);
    if (owns) owners.insert(i);
    total_allocs += st.pool_allocations;
    table.row({std::to_string(i), std::to_string(st.pool_allocations),
               std::to_string(st.translated_out), owns ? "yes" : "no",
               std::to_string(snap.values.at(own + "acquisitions_completed").count),
               std::to_string(snap.values.at(own + "revokes_served").count)});
  }
  table.print(std::cout);

  std::cout << "\nflows: " << gen.stats().flows_started
            << ", reroutes: " << gen.stats().reroutes << ", delivered: " << sink.delivered()
            << '\n';
  std::cout << "pool allocations (all switches): " << total_allocs
            << ", switches owning the counter now: " << owners.size() << '\n';
  std::cout << "p50 latency: " << sink.latency().p50() / 1000.0
            << " us, p99: " << sink.latency().p99() / 1000.0 << " us\n";
  std::cout << "\nOne logical port counter, at most one owner at a time: every\n"
               "allocation is a local fetch-add on whichever switch holds the key.\n";
  return 0;
}
