// Fabric: the top-level SwiShmem deployment — simulator, network topology,
// switches, per-switch runtimes, and the central controller, assembled from
// one config. This is the library's main entry point:
//
//   shm::FabricConfig cfg;
//   cfg.num_switches = 4;
//   shm::Fabric fabric(cfg);
//   fabric.add_space({.id = 0, .name = "conn", .cls = shm::ConsistencyClass::kSRO,
//                     .size = 4096, .table_backed = true});
//   fabric.install([] { return std::make_unique<MyNf>(); });
//   fabric.start();
//   fabric.sw(0).inject(packet);
//   fabric.run_for(1 * swish::kSec);
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/topology.hpp"
#include "sim/shard.hpp"
#include "swishmem/controller.hpp"
#include "swishmem/protocols/engine.hpp"
#include "swishmem/runtime.hpp"

namespace swish::shm {

struct FabricConfig {
  std::size_t num_switches = 4;

  /// Logical processes for the parallel simulation core. The fabric's nodes
  /// are partitioned across this many shards (leaf switches in contiguous id
  /// blocks, spines round-robin, controller on shard 0), each with its own
  /// event queue and virtual clock, synchronized conservatively with the
  /// minimum inter-shard propagation delay as lookahead. 1 (the default) is
  /// the legacy single-threaded core — byte-identical output. Must be in
  /// [1, num_switches].
  std::size_t shards = 1;

  enum class Topology { kFullMesh, kChain, kLeafSpine } topology = Topology::kFullMesh;
  std::size_t spine_count = 2;  ///< leaf-spine only (switches become leaves)

  net::LinkParams link;                 ///< inter-switch links
  /// Per-switch data/control plane, INT-MD sampling included: its switches
  /// (spines too) sample edge traffic and their runtimes protocol sends.
  pisa::Switch::Config switch_config;
  RuntimeConfig runtime;                ///< SwiShmem protocol tuning
  Controller::Config controller;
  std::uint64_t seed = 1;
};

class Fabric {
 public:
  explicit Fabric(FabricConfig config);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Declares a replicated register space, placed by the controller's
  /// directory: every switch is a replica by default; a `replicas` subset
  /// creates a partitioned space (§9) that other switches access remotely
  /// via its chain (SRO/ERO only). Call before install().
  void add_space(const SpaceConfig& space, std::vector<SwitchId> replicas = {});

  /// Instantiates the NF on every switch (one NfApp instance per switch) and
  /// wires runtimes + programs. Pass nullptr-producing factory for a
  /// protocol-only deployment.
  void install(const std::function<std::unique_ptr<NfApp>()>& nf_factory);

  /// Bootstraps configuration and starts heartbeats/sync/failure detection.
  void start();

  /// Runs the simulation clock forward (every shard, conservatively synced;
  /// one shard delegates straight to Simulator::run_until).
  void run_for(TimeNs duration) { shards_.run_until(shards_.now() + duration); }

  // -- Accessors ----------------------------------------------------------------

  /// Shard 0's simulator — the reference clock, and the exact legacy
  /// simulator when shards == 1.
  [[nodiscard]] sim::Simulator& simulator() noexcept { return shards_.sim(0); }
  [[nodiscard]] sim::ShardSet& shard_set() noexcept { return shards_; }
  [[nodiscard]] const sim::ShardSet& shard_set() const noexcept { return shards_; }
  /// The simulator executing switch i's events (== simulator() at one shard).
  [[nodiscard]] sim::Simulator& simulator_for(std::size_t i) {
    return shards_.sim_for(ids_.at(i));
  }
  [[nodiscard]] std::size_t shard_of_switch(std::size_t i) const {
    return shards_.shard_of(ids_.at(i));
  }
  [[nodiscard]] net::Network& network() noexcept { return net_; }
  [[nodiscard]] Controller& controller() noexcept { return *controller_; }
  [[nodiscard]] std::size_t size() const noexcept { return switches_.size(); }
  [[nodiscard]] pisa::Switch& sw(std::size_t i) { return *switches_.at(i); }
  [[nodiscard]] ShmRuntime& runtime(std::size_t i) { return *runtimes_.at(i); }
  [[nodiscard]] const std::vector<SwitchId>& switch_ids() const noexcept { return ids_; }
  [[nodiscard]] const FabricConfig& config() const noexcept { return config_; }

  /// Installs the same delivery sink on every switch.
  void set_delivery_sink(std::function<void(const pkt::Packet&)> sink);

  // -- Sharded experiment plumbing -----------------------------------------------
  // Harness entry points that work at any shard count; at one shard each is
  // exactly the legacy direct call.

  /// Edge ingress from the experiment harness. Shard-0 switches (and one-shard
  /// fabrics) take the direct sw(i).inject path; cross-shard switches receive
  /// the packet one lookahead ahead of shard 0's clock via the inbox lanes.
  /// Callable from shard 0's events or between runs.
  void inject(std::size_t i, pkt::Packet packet);

  /// Schedules a fail-stop kill at absolute virtual time `at`, on the
  /// switch's own shard (where its traffic executes).
  void schedule_kill(std::size_t i, TimeNs at);

  /// Schedules revival of a previously-killed switch at `at`: local recover +
  /// state reset on the switch's shard, controller re-admission on shard 0 —
  /// the sharded split of revive_switch(). Requires install().
  void schedule_revive(std::size_t i, TimeNs at);

  // -- Fabric-wide telemetry ------------------------------------------------------

  /// Metrics across all shards, merged deterministically (exactly the legacy
  /// snapshot at one shard).
  [[nodiscard]] telemetry::MetricsSnapshot metrics_snapshot() const {
    return shards_.merged_metrics_snapshot();
  }

  /// All recorded causal spans, concatenated in shard order.
  [[nodiscard]] std::vector<telemetry::Span> all_spans() const { return shards_.all_spans(); }

  /// Every shard's record log gathered: trace events, drop records and INT
  /// sink reports in canonical (time, node, seq) order, and drop tallies
  /// summed. Deterministic at every shard count (per-node logs and seqs).
  [[nodiscard]] telemetry::Records all_records() const;

  /// Traces the categories in `mask` on every shard's record log.
  void enable_trace(std::uint32_t mask);

  /// Enables span sampling on every shard's recorder.
  void enable_spans(std::uint64_t sample_every,
                    std::size_t max_spans = telemetry::SpanRecorder::kDefaultMaxSpans);

  /// Enables the consistency-lag observatory: the simulator's own at one
  /// shard; per-shard logs replayed into a fabric-wide master otherwise.
  void enable_observatory();

  /// Where lag measurements accumulate (pair with enable_observatory()).
  [[nodiscard]] telemetry::ConsistencyObservatory& observatory() noexcept {
    return shards_.observatory();
  }

  // -- Failure experiments (§6.3) --------------------------------------------------

  /// Fail-stop: the switch black-holes all traffic from now on.
  void kill_switch(std::size_t i) { switches_.at(i)->fail(); }

  /// Boots a replacement for a previously-killed switch: clears its state and
  /// asks the controller to re-admit it (EWO resync + SRO snapshot stream).
  void revive_switch(std::size_t i);

 private:
  FabricConfig config_;
  sim::ShardSet shards_;
  net::Network net_;
  std::vector<std::unique_ptr<pisa::Switch>> switches_;
  std::vector<std::unique_ptr<ShmRuntime>> runtimes_;
  std::unique_ptr<Controller> controller_;
  std::vector<SwitchId> ids_;
  std::vector<std::unique_ptr<pisa::Switch>> spines_;  // leaf-spine transit nodes
  std::vector<std::pair<SpaceConfig, std::vector<SwitchId>>> spaces_;
  bool installed_ = false;
};

}  // namespace swish::shm
