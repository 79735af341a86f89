// Simulated network fabric: nodes joined by lossy, finite-bandwidth links.
//
// This models the paper's system assumptions directly (§5): packets can be
// dropped, delayed, and reordered; links and switches can fail. Every
// inter-switch protocol message crosses these links as real bytes, so the
// replication protocols are exercised against genuine loss and reordering.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "packet/packet.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace swish::net {

using PortId = std::uint32_t;
inline constexpr PortId kInvalidPort = std::numeric_limits<PortId>::max();

/// Anything attached to the fabric: a PISA switch, a host, or a controller.
class Node {
 public:
  explicit Node(NodeId id) : id_(id) {}
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return id_; }

  /// Invoked by the network when a packet arrives on `ingress_port`.
  virtual void handle_packet(pkt::Packet packet, PortId ingress_port) = 0;

  /// True while the node processes traffic; failed nodes drop everything.
  [[nodiscard]] bool alive() const noexcept { return alive_; }
  virtual void fail() { alive_ = false; }
  virtual void recover() { alive_ = true; }

 private:
  NodeId id_;
  bool alive_ = true;
};

/// Per-direction link properties.
struct LinkParams {
  TimeNs propagation_delay = 1 * kUs;  ///< one-way latency
  Bandwidth bandwidth = 100 * kGbps;   ///< 0 means infinite
  double loss_probability = 0.0;       ///< independent Bernoulli drop per packet
  TimeNs jitter = 0;                   ///< uniform extra delay in [0, jitter]; causes reordering
  TimeNs max_queue_delay = 1 * kMs;    ///< tail-drop threshold for the serialization queue
};

/// Per-direction link counters, read back from the telemetry registry (the
/// registry cells under `net.link.n<node>.p<port>.*` are the source of
/// truth; this struct is the plain-value view handed to callers).
/// Accounting invariants:
///  - packets_sent / bytes_sent count only packets that actually occupied the
///    wire (queue-dropped packets never transmit and are excluded);
///  - packets_dropped_loss ⊆ packets_sent (loss strikes mid-flight, after the
///    transmitter has spent the serialization time);
///  - packets_delivered counts packets handed to a live peer, so
///    packets_sent - packets_delivered is the precise on-wire + dead-peer
///    loss seen by benches;
///  - packets_dropped_dead counts packets that survived the wire but arrived
///    at a failed peer (black-holed); packets_dropped_loss +
///    packets_dropped_dead == packets_sent - packets_delivered.
struct LinkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped_loss = 0;
  std::uint64_t packets_dropped_queue = 0;
  std::uint64_t packets_dropped_dead = 0;
};

/// Registry of nodes and links; routes packets between them in virtual time.
///
/// Loss and jitter draw from a per-half-link Rng seeded from (fabric seed,
/// node, port): each link's drop/jitter sequence is a pure function of its
/// own traffic, independent of shard interleaving — a prerequisite for the
/// sharded core (two threads never share a generator, and the wire behaves
/// identically at every shard count).
class Network {
 public:
  /// Nodes live on the shard the set assigns them (ShardSet::assign before
  /// connect()); cross-shard links register their propagation delay as
  /// conservative lookahead, and deliveries hop shards through the set's
  /// inbox lanes. A one-shard set is the single-threaded run.
  Network(sim::ShardSet& shards, std::uint64_t seed) : shards_(shards), seed_(seed) {}

  /// Registers a node. The caller retains ownership; the node must outlive
  /// the network.
  void attach(Node& node);

  /// Connects two attached nodes with a bidirectional link; returns the port
  /// assigned on each side. Ports number consecutively per node.
  struct Connection {
    PortId port_a;
    PortId port_b;
  };
  Connection connect(NodeId a, NodeId b, const LinkParams& params);

  /// Transmits a packet out of (from, port). The packet experiences
  /// serialization (bandwidth), queueing (tail drop past max_queue_delay),
  /// propagation delay, jitter, and Bernoulli loss; survivors are delivered
  /// to the peer's handle_packet. `egress_delay` shifts the transmit start
  /// (and the queue-delay reference point) that many ns into the future —
  /// senders with a fixed pipeline latency pass it here instead of wrapping
  /// the packet in their own one-shot egress event; because the offset is
  /// constant per sender and a half-link has exactly one sender, the wire
  /// timeline is identical to the event-per-egress formulation.
  void send(NodeId from, PortId port, pkt::Packet packet, TimeNs egress_delay = 0);

  [[nodiscard]] std::size_t port_count(NodeId node) const;

  /// Peer node reached through (node, port); kInvalidNode if unconnected.
  [[nodiscard]] NodeId peer(NodeId node, PortId port) const;

  /// Rewrites the loss probability of the a<->b link, both directions (link
  /// degradation / partition / flapping experiments). No-op when the nodes
  /// are not directly connected. Mutates sender-shard-owned state, so in a
  /// sharded fabric call it only from the owning shards' events (or use one
  /// shard for link-fault scenarios, as the membership tests do).
  void set_link_loss(NodeId a, NodeId b, double loss_probability);

  [[nodiscard]] Node* node(NodeId id) const;

  /// Aggregate stats over all link directions.
  [[nodiscard]] LinkStats total_stats() const;

  /// Stats of the directed link out of (node, port). Returned by value: the
  /// numbers are materialized from the registry-backed counters.
  [[nodiscard]] LinkStats stats(NodeId node, PortId port) const;

  /// Adjacency view: for each attached node, its (port -> peer) vector.
  [[nodiscard]] std::unordered_map<NodeId, std::vector<NodeId>> adjacency() const;

  /// Mirror every transmitted packet to an observer (a fabric-wide monitor
  /// port): called with (from, to, packet, transmit time) for each send,
  /// including packets later lost on the wire. Used for pcap capture.
  void set_tap(std::function<void(NodeId, NodeId, const pkt::Packet&, TimeNs)> tap) {
    tap_ = std::move(tap);
  }

  /// The simulator executing `node`'s events.
  [[nodiscard]] sim::Simulator& sim_for(NodeId node) noexcept { return shards_.sim_for(node); }

 private:
  /// Registry-backed per-direction counters; see LinkStats for invariants.
  struct LinkCounters {
    telemetry::Counter packets_sent;
    telemetry::Counter bytes_sent;
    telemetry::Counter packets_delivered;
    telemetry::Counter packets_dropped_loss;
    telemetry::Counter packets_dropped_queue;
    telemetry::Counter packets_dropped_dead;  ///< receiver-shard cell, like packets_delivered
  };

  /// One direction of a link. Mutable fields (next_free_time, rng, counter
  /// cells) are touched only by the sending node's shard — the single-writer
  /// property the sharded core relies on. The one exception,
  /// packets_delivered, is incremented by the delivery event and therefore
  /// bound to the *receiving* node's shard registry (see make_counters).
  struct HalfLink {
    NodeId to = kInvalidNode;
    PortId to_port = kInvalidPort;
    LinkParams params;
    TimeNs next_free_time = 0;  ///< when the transmitter finishes the current packet
    LinkCounters stats;
    Rng rng{0};  ///< loss/jitter draws; seeded per (fabric seed, node, port)
  };

  HalfLink& half(NodeId node, PortId port);
  [[nodiscard]] const HalfLink& half(NodeId node, PortId port) const;
  [[nodiscard]] LinkCounters make_counters(NodeId node, PortId port, NodeId peer);

  sim::ShardSet& shards_;
  std::uint64_t seed_;
  std::unordered_map<NodeId, Node*> nodes_;
  std::unordered_map<NodeId, std::vector<HalfLink>> ports_;
  std::function<void(NodeId, NodeId, const pkt::Packet&, TimeNs)> tap_;
};

}  // namespace swish::net
