// Central controller (§6.3): detects fail-stop switch failures from missing
// heartbeats, repairs every space's placement, reprograms routing around
// failed switches, and orchestrates recovery of replacement switches via the
// tail's snapshot stream. Its directory (§9) is the one placement mechanism:
// it places every space — every switch by default, a subset for a
// partitioned space — and keeps each space's live members in chain order.
//
// Heartbeats arrive over the data network (lossy); placement pushes use
// an out-of-band management network modelled as a reliable RPC with fixed
// latency — standard practice for SDN controllers (Onix et al.).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>

#include "net/network.hpp"
#include "swishmem/membership/membership.hpp"
#include "swishmem/runtime.hpp"

namespace swish::shm {

class Controller : public net::Node {
 public:
  struct Config {
    /// Declare failure after this much heartbeat silence. Heartbeats ride the
    /// lossy data network, so keep several periods of margin: with 10 ms
    /// beats, 60 ms tolerates 5 consecutive losses before a false positive.
    TimeNs heartbeat_timeout = 60 * kMs;
    TimeNs check_period = 10 * kMs;   ///< failure-detector scan interval
    TimeNs mgmt_latency = 500 * kUs;  ///< management RPC one-way latency
    /// Failure-detection strategy: the central heartbeat scan above, or
    /// decentralized SWIM gossip between the switches (the controller then
    /// only consumes finished verdicts; the timing knobs live per switch in
    /// RuntimeConfig).
    MembershipProtocol membership = MembershipProtocol::kHeartbeat;

    /// Throws std::invalid_argument when the timing configuration is
    /// impossible (non-positive periods, or a timeout the scan could never
    /// observe). Public so front-ends (swish_sim) can validate flag
    /// combinations up front and exit cleanly instead of crashing on the
    /// constructor's throw.
    void validate() const;
  };

  /// The controller runs on shard 0 of `shards` and routes every
  /// member-object call through the set: placement pushes land on the
  /// member's shard, recovery-stream kickoffs run on the donor's shard, and
  /// stream-completion callbacks hop back to the controller's shard. Throws
  /// std::invalid_argument when the timing configuration is impossible
  /// (non-positive periods, or a timeout the scan could never observe).
  Controller(sim::ShardSet& shards, net::Network& network, NodeId id, Config config);

  /// Registers a switch and its runtime. Switch ids order the default
  /// placement (head first).
  void register_switch(pisa::Switch& sw, ShmRuntime& runtime);

  /// Installs epoch-1 routing and every space's placement on all switches,
  /// directly (models pre-provisioned configuration before traffic starts).
  void bootstrap();

  /// Starts the heartbeat-based failure detector.
  void start();

  void handle_packet(pkt::Packet packet, net::PortId ingress_port) override;

  /// Re-admits a recovered/replacement switch, appended last to every space
  /// declaring it: EWO/OWN/kCON placements take it at once (sync, backup
  /// flushes and repair restore its state, §6.3); an SRO/ERO placement takes
  /// it only after a snapshot stream from that space's live tail. A switch
  /// not yet declared failed is failed first.
  void readmit_switch(SwitchId id);

  // -- Directory service (§9) ---------------------------------------------------

  /// Registers a space replicated on `replicas`, head first — every
  /// registered switch, in id order, when empty. Call after the last
  /// register_switch() and before bootstrap().
  void register_space(const SpaceConfig& config, std::vector<SwitchId> replicas = {});

  /// Migrates an SRO/ERO space to a new replica set: new members receive the
  /// state through the tail's snapshot stream, then the space's placement —
  /// and only its placement — is re-pushed. `done` fires when the new chain
  /// is installed. Throws std::invalid_argument for an unregistered space or
  /// another class (their spaces span every switch).
  void migrate_space(std::uint32_t space, std::vector<SwitchId> new_replicas,
                     std::function<void(TimeNs)> done = nullptr);

  /// Declared replica set of a space (nullptr if unregistered).
  [[nodiscard]] const std::vector<SwitchId>* space_replicas(std::uint32_t space) const;

  /// The placement last pushed for a space (nullptr if unregistered).
  [[nodiscard]] const Placement* placement(std::uint32_t space) const;

  /// Immediately marks a switch failed (bypasses heartbeat timeout), for
  /// experiments that separate detection time from repair time.
  void declare_failed(SwitchId id);

  /// The failure-detection service feeding the repair machinery.
  [[nodiscard]] const MembershipService& membership() const noexcept { return *membership_; }

  // Experiment hooks.
  std::function<void(SwitchId, TimeNs)> on_failure_detected;
  std::function<void(SwitchId, TimeNs)> on_failover_complete;
  std::function<void(SwitchId, TimeNs)> on_recovery_complete;

 private:
  /// Repair path, driven by the membership service's faulty verdicts:
  /// `detection_ns` is the service-reported silence when the verdict landed.
  void handle_failure(SwitchId failed, TimeNs detection_ns);

  /// More than one shard: member calls and their callbacks must hop shards.
  /// (A one-shard run takes the direct paths, with no extra hop event.)
  [[nodiscard]] bool sharded() const noexcept { return shards_.count() > 1; }

  /// Runs `fn` after `delay` on the shard executing `node`'s events.
  void post_to_node(NodeId node, TimeNs delay, sim::EventFn fn);

  /// Wraps a callback that will fire on a member's shard so its body executes
  /// on the controller's shard (one lookahead later); identity when unsharded.
  /// std::function (not sim::EventFn) because stream-done callbacks are
  /// copyable handles held by the runtime.
  [[nodiscard]] std::function<void()> to_controller(std::function<void()> fn);

  /// Stamps the next epoch on every space's placement and installs them on
  /// all live switches over the management network (mgmt_latency;
  /// `immediate` bypasses it for bootstrap): routing first, then the
  /// placements, in one install per switch. With `only`, just that space's
  /// placement is re-pushed, without routing (a migration). Recovery streams
  /// to the `joined` switches retire with the install.
  void push(bool immediate, std::optional<std::uint32_t> only = std::nullopt,
            std::vector<SwitchId> joined = {});

  [[nodiscard]] std::vector<NodeId> failed_nodes() const;

  /// The usable registered switches of `replicas`, in order.
  [[nodiscard]] std::vector<SwitchId> live(const std::vector<SwitchId>& replicas) const;

  /// One snapshot stream (§6.3): `donor` sends `target` its state — one
  /// space's, or everything it holds.
  struct Stream {
    SwitchId donor = kInvalidNode;
    SwitchId target = kInvalidNode;
    std::optional<std::uint32_t> space;
  };

  /// Runs `streams` one after another, the first kicked off `delay` from now
  /// on its donor's shard and each next one as the previous completes; then
  /// runs `done` on the controller's shard.
  void run_streams(std::vector<Stream> streams, TimeNs delay, std::function<void()> done);

  struct SpaceEntry {
    SpaceConfig config;
    std::vector<SwitchId> replicas;  ///< declared replica set, head first
    Placement placement;             ///< live replicas in chain order, as last pushed
  };

  struct Member {
    pisa::Switch* sw = nullptr;
    ShmRuntime* runtime = nullptr;
  };

  /// Usable for placements and routing per the membership service.
  [[nodiscard]] bool usable(SwitchId id) const noexcept {
    return membership_->view().usable(id);
  }

  sim::ShardSet& shards_;
  sim::Simulator& sim_;  ///< shard 0's, where the controller runs
  net::Network& network_;
  Config config_;
  std::unique_ptr<MembershipService> membership_;
  std::map<SwitchId, Member> members_;  // ordered => deterministic chain order
  // Failure observability: detection (silence at verdict) and repair (verdict
  // to reconfiguration-applied) latencies, split per ROADMAP item 2.
  telemetry::Counter failures_detected_;
  telemetry::Histo detection_ns_;
  telemetry::Histo repair_ns_;
  /// Live switches in the order they joined: id order, then each rejoiner
  /// once its snapshot streams complete. Its last entry donates a rejoiner's
  /// snapshot.
  std::vector<SwitchId> joined_;
  std::map<std::uint32_t, SpaceEntry> directory_;  ///< every space (§9)
  std::uint32_t next_epoch_ = 1;  ///< one counter stamps every push
};

}  // namespace swish::shm
