// The PISA switch model (§2): a programmable parser + match-action pipeline
// with data-plane stateful objects, traffic-manager primitives
// (recirculation, node-level multicast, mirroring-by-construction), a packet
// generator for background tasks, and a finite-rate control-plane CPU.
//
// Packets are processed atomically — the single-threaded discrete-event
// simulator guarantees that a packet's multi-register write set is visible
// all-or-nothing to the next packet, the property SwiShmem's protocols lean
// on (§2, §3.3).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "net/routing.hpp"
#include "packet/packet.hpp"
#include "pisa/control_plane.hpp"
#include "pisa/objects.hpp"
#include "sim/simulator.hpp"

namespace swish::pisa {

class Switch;

/// Per-packet processing context handed to the installed pipeline program.
struct PacketContext {
  Switch& sw;
  pkt::Packet packet;
  /// Cached parse borrowed from the packet's shared buffer (null when the
  /// packet is unparseable). Stays valid across std::move(ctx.packet) —
  /// whoever received the packet keeps the buffer, and the parse, alive.
  const pkt::ParsedPacket* parsed = nullptr;
  net::PortId ingress_port = net::kInvalidPort;
  bool from_edge = false;     ///< injected at the cluster edge (vs fabric link)
  unsigned recirc_count = 0;
};

/// A "P4 program": processes each packet, reading/writing the switch's
/// stateful objects and invoking traffic-manager primitives on the switch.
class PipelineProgram {
 public:
  virtual ~PipelineProgram() = default;
  virtual void process(PacketContext& ctx) = 0;
};

class Switch : public net::Node {
 public:
  struct Config {
    TimeNs pipeline_latency = 1 * kUs;     ///< ingress-to-egress latency
    double dataplane_pps = 100e6;          ///< processing capacity
    std::size_t dataplane_queue = 16384;   ///< packets buffered before tail drop
    std::size_t memory_budget = 10 * 1024 * 1024;  ///< ~10 MB SRAM (§1)
    unsigned max_recirculations = 16;      ///< per-packet cap; 0 disables recirculation
    /// INT-MD sampling: tag 1-in-N edge-injected packets with a telemetry
    /// trailer (0 = off; unsampled traffic stays byte-identical).
    std::uint64_t int_sample_every = 0;
    unsigned int_hop_cap = 8;              ///< max on-wire hop records (1..255)
    ControlPlane::Config control_plane;
  };

  /// Registry-backed counters under `pisa.sw<id>.*`; this struct is a view
  /// over the simulator's MetricsRegistry cells (reads keep their historical
  /// uint64 semantics via the handles' implicit conversions).
  struct Stats {
    telemetry::Counter processed;
    telemetry::Counter dropped_capacity;
    telemetry::Counter dropped_recirc;  ///< recirculation-cap drops
    telemetry::Counter dropped_noroute;  ///< no route to destination node
    telemetry::Counter injected;
    telemetry::Counter delivered;
    telemetry::Counter recirculated;
    telemetry::Counter sent;
  };

  Switch(sim::Simulator& simulator, net::Network& network, NodeId id, Config config);

  // -- Program / object setup (done once, before traffic) -------------------

  RegisterArray& add_register_array(std::string name, std::size_t size, unsigned entry_bits = 64);
  ExactTable& add_exact_table(std::string name, std::size_t capacity, unsigned key_bits = 64,
                              unsigned value_bits = 64);

  /// Registers an externally-constructed stateful object (e.g. the sparse
  /// ordered store) so it participates in SRAM accounting like the typed
  /// objects above.
  template <typename T>
  T& add_object(std::unique_ptr<T> object) {
    T& ref = *object;
    objects_.push_back(std::move(object));
    return ref;
  }

  /// Total SRAM consumed by stateful objects; compare to config().memory_budget.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;
  [[nodiscard]] bool within_memory_budget() const noexcept {
    return memory_bytes() <= config_.memory_budget;
  }

  void install_program(std::unique_ptr<PipelineProgram> program) {
    program_ = std::move(program);
  }
  [[nodiscard]] PipelineProgram* program() const noexcept { return program_.get(); }

  void set_routing(net::RoutingTable routing) { routing_ = std::move(routing); }
  [[nodiscard]] const net::RoutingTable& routing() const noexcept { return routing_; }

  /// Sink invoked when a packet leaves the NF cluster toward its real
  /// destination (set by the experiment harness to count/measure traffic).
  void set_delivery_sink(std::function<void(const pkt::Packet&)> sink) {
    delivery_sink_ = std::move(sink);
  }

  // -- Ingress ---------------------------------------------------------------

  void handle_packet(pkt::Packet packet, net::PortId ingress_port) override;

  /// Edge ingress: a packet entering the NF cluster at this switch (from a
  /// host or upstream router the simulation does not model individually).
  void inject(pkt::Packet packet);

  // -- Traffic-manager primitives (callable during processing and from CP) ---

  /// Routes toward another fabric node via ECMP on flow_hash. `recirc_count`
  /// (threaded from PacketContext) matters only when dst == this switch, in
  /// which case the packet recirculates and the cap applies.
  void send_to_node(NodeId dst, pkt::Packet packet, std::uint64_t flow_hash = 0,
                    unsigned recirc_count = 0);

  void send_to_port(net::PortId port, pkt::Packet packet);

  /// The packet exits the NF cluster (reached its logical destination).
  void deliver(pkt::Packet packet);

  /// Re-enters the pipeline after one traversal latency with its
  /// recirculation count bumped. Pass the context's current recirc_count;
  /// packets past config().max_recirculations are dropped (dropped_recirc).
  void recirculate(pkt::Packet packet, unsigned recirc_count = 0);

  /// Replicates to each listed node (egress mirroring + multicast engine,
  /// §7); skips this switch's own id.
  void multicast_nodes(std::span<const SwitchId> nodes, const pkt::Packet& packet);

  // -- Telemetry ---------------------------------------------------------------

  /// Whether INT-MD sampling is on for this switch (trailer checks are gated
  /// on this so unsampled runs never scan packet tails).
  [[nodiscard]] bool int_enabled() const noexcept { return config_.int_sample_every > 0; }

  /// Sink-side INT extraction: if the packet carries an INT trailer, decodes
  /// its hop stack, appends this switch as the final hop (rule_hit = 0,
  /// i.e. terminated locally), and records an IntSinkReport. Returns true
  /// when a trailer was present (caller decides whether to strip it).
  bool record_int_sink(const pkt::Packet& packet);

  /// Mirror-on-drop: records a typed drop into this simulator's record log,
  /// carrying the packet's INT hop stack when it has one. `packet` may be
  /// null for packetless drops (e.g. protocol-level rejects).
  void report_drop(telemetry::DropReason reason, const pkt::Packet* packet,
                   std::uint64_t detail = 0);

  // -- Background tasks -------------------------------------------------------

  /// Data-plane packet generator: runs `fn` every `period` ns with no
  /// control-plane cost (§7 uses this for EWO periodic synchronization).
  sim::TimerHandle start_packet_generator(TimeNs period, std::function<void()> fn);

  // -- Accessors ---------------------------------------------------------------

  [[nodiscard]] ControlPlane& control_plane() noexcept { return control_plane_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] net::Network& network() noexcept { return network_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  void process(pkt::Packet packet, net::PortId ingress_port, bool from_edge,
               unsigned recirc_count);

  /// Enforces data-plane capacity; returns false when the packet is dropped.
  bool admit();

  /// Builds this switch's per-hop INT record for a packet egressing on
  /// `egress_port` (kInvalidPort = terminated locally).
  [[nodiscard]] telemetry::IntHop make_int_hop(net::PortId egress_port) const;

  sim::Simulator& sim_;
  net::Network& network_;
  Config config_;
  ControlPlane control_plane_;
  std::unique_ptr<PipelineProgram> program_;
  net::RoutingTable routing_;
  std::vector<std::unique_ptr<StatefulObject>> objects_;
  std::function<void(const pkt::Packet&)> delivery_sink_;
  telemetry::RecordLog& records_;
  Stats stats_;
  TimeNs dp_free_time_ = 0;
  // Hoisted out of the per-packet admit() path: service time per packet and
  // the backlog bound, both derived from config once at construction.
  TimeNs dp_per_packet_ = 0;
  TimeNs dp_backlog_limit_ = 0;
  std::uint64_t int_countdown_ = 0;  ///< 1-in-N sampling countdown (edge ingress)
};

}  // namespace swish::pisa
