#include "net/network.hpp"

#include <stdexcept>
#include <utility>

#include "packet/int_md.hpp"

namespace swish::net {

namespace {
__extension__ using u128 = unsigned __int128;

std::string link_prefix(NodeId node, PortId port) {
  return "net.link.n" + std::to_string(node) + ".p" + std::to_string(port) + ".";
}

// SplitMix64 finalizer: full-avalanche 64-bit mix for per-link seeding.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t link_seed(std::uint64_t seed, NodeId node, PortId port) {
  return mix64(seed ^ mix64((static_cast<std::uint64_t>(node) << 32) | port));
}

// Mirror-on-drop forensics: if the packet carries an INT trailer, its hop
// stack rides along in the drop record so the collector can place the drop
// on the path. Wire drops are rare, so this always probes the trailer (the
// false-positive rate of the magic check is ~2^-40).
std::vector<telemetry::IntHop> int_hops_of(const pkt::Packet& packet) {
  if (std::optional<pkt::IntStack> stack = pkt::read_int_stack(packet)) {
    return std::move(stack->hops);
  }
  return {};
}

}  // namespace

void Network::attach(Node& node) {
  auto [it, inserted] = nodes_.emplace(node.id(), &node);
  if (!inserted) throw std::invalid_argument("Network::attach: duplicate node id");
  ports_.try_emplace(node.id());
}

Network::Connection Network::connect(NodeId a, NodeId b, const LinkParams& params) {
  if (!nodes_.contains(a) || !nodes_.contains(b)) {
    throw std::invalid_argument("Network::connect: unknown node");
  }
  auto& pa = ports_[a];
  auto& pb = ports_[b];
  const auto port_a = static_cast<PortId>(pa.size());
  const auto port_b = static_cast<PortId>(pb.size());
  pa.push_back(HalfLink{b, port_b, params, 0, make_counters(a, port_a, b),
                        Rng(link_seed(seed_, a, port_a))});
  pb.push_back(HalfLink{a, port_a, params, 0, make_counters(b, port_b, a),
                        Rng(link_seed(seed_, b, port_b))});
  if (shards_.shard_of(a) != shards_.shard_of(b)) {
    // The minimum cross-shard propagation delay funds the conservative
    // lookahead (throws on zero delay: that would stall the window engine).
    shards_.note_cross_link(params.propagation_delay);
  }
  return Connection{port_a, port_b};
}

Network::LinkCounters Network::make_counters(NodeId node, PortId port, NodeId peer) {
  telemetry::MetricsRegistry& reg = sim_for(node).metrics();
  const std::string prefix = link_prefix(node, port);
  LinkCounters c;
  c.packets_sent = reg.counter(prefix + "packets_sent");
  c.bytes_sent = reg.counter(prefix + "bytes_sent");
  // Delivery events execute on the receiving node's shard, so this one cell
  // lives in that shard's registry (same cell when both share a simulator);
  // the merged post-run snapshot reassembles the per-link counter set.
  c.packets_delivered = sim_for(peer).metrics().counter(prefix + "packets_delivered");
  c.packets_dropped_loss = reg.counter(prefix + "packets_dropped_loss");
  c.packets_dropped_queue = reg.counter(prefix + "packets_dropped_queue");
  // Dead-peer drops happen inside the delivery event on the receiving shard,
  // so (like packets_delivered) the cell lives in that shard's registry.
  c.packets_dropped_dead = sim_for(peer).metrics().counter(prefix + "packets_dropped_dead");
  return c;
}

Network::HalfLink& Network::half(NodeId node, PortId port) {
  auto it = ports_.find(node);
  if (it == ports_.end() || port >= it->second.size()) {
    throw std::out_of_range("Network: bad (node, port)");
  }
  return it->second[port];
}

const Network::HalfLink& Network::half(NodeId node, PortId port) const {
  auto it = ports_.find(node);
  if (it == ports_.end() || port >= it->second.size()) {
    throw std::out_of_range("Network: bad (node, port)");
  }
  return it->second[port];
}

void Network::send(NodeId from, PortId port, pkt::Packet packet, TimeNs egress_delay) {
  HalfLink& link = half(from, port);
  sim::Simulator& src_sim = sim_for(from);
  const TimeNs now = src_sim.now() + egress_delay;

  // Serialization / queueing on the transmit side. A queue-dropped packet
  // never occupies the wire: next_free_time stays put, no sent/bytes are
  // charged, and the tap (which observes transmissions) does not see it.
  TimeNs tx_start = std::max(now, link.next_free_time);
  if (tx_start - now > link.params.max_queue_delay) {
    ++link.stats.packets_dropped_queue;
    src_sim.records().drop(from, telemetry::DropReason::kLinkQueueOverflow, packet.size(),
                           link.to, int_hops_of(packet));
    return;
  }
  TimeNs tx_time = 0;
  if (link.params.bandwidth > 0) {
    tx_time = static_cast<TimeNs>((static_cast<u128>(packet.size()) * 8 * kSec) /
                                  link.params.bandwidth);
  }
  link.next_free_time = tx_start + tx_time;
  ++link.stats.packets_sent;
  link.stats.bytes_sent += packet.size();
  if (tap_) tap_(from, link.to, packet, tx_start);

  // Loss after transmission starts (models on-wire corruption/drop): the
  // transmitter has already paid the serialization time, so the wire stays
  // occupied and the packet stays counted in packets_sent.
  if (link.params.loss_probability > 0.0 && link.rng.chance(link.params.loss_probability)) {
    ++link.stats.packets_dropped_loss;
    src_sim.records().drop(from, telemetry::DropReason::kLinkLoss, packet.size(), link.to,
                           int_hops_of(packet));
    return;
  }

  TimeNs jitter =
      link.params.jitter > 0
          ? static_cast<TimeNs>(
                link.rng.next_below(static_cast<std::uint64_t>(link.params.jitter) + 1))
          : 0;
  const TimeNs delivery = link.next_free_time + link.params.propagation_delay + jitter;
  const NodeId to = link.to;
  const PortId to_port = link.to_port;
  const bool cross_shard = shards_.count() > 1 && shards_.shard_of(to) != shards_.shard_of(from);
  if (cross_shard) {
    // Warm the parse cache on the sending thread: the underlying buffer may
    // be shared with same-shard copies (multicast fan-out), and the cache
    // must not be written concurrently from two shards. After this, every
    // later parsed() on any shard is a read; the barrier between windows
    // publishes the cached result.
    (void)packet.parsed();
  }
  // Fire-and-forget delivery: no cancellation handle. The closure carries the
  // receiver-side counter cells rather than the HalfLink, which connect() may
  // reallocate before it fires and whose line the sender's shard keeps
  // writing — the receiving shard never reads sender-owned link state.
  auto deliver = [this, from, to, to_port, delivered = link.stats.packets_delivered,
                  dead = link.stats.packets_dropped_dead, p = std::move(packet)]() mutable {
    auto it = nodes_.find(to);
    if (it == nodes_.end()) return;
    Node* n = it->second;
    if (!n->alive()) {
      // Failed switches black-hole traffic — but not silently: the membership
      // layer's suspicion window shows up here as typed dead-node drops.
      sim::Simulator& dst_sim = sim_for(to);
      ++dead;
      dst_sim.records().drop(to, telemetry::DropReason::kDeadNode, p.size(), from,
                             int_hops_of(p));
      return;
    }
    ++delivered;
    n->handle_packet(std::move(p), to_port);
  };
  if (cross_shard) {
    shards_.post_at_node(to, delivery, std::move(deliver));
  } else {
    src_sim.post_at(delivery, std::move(deliver));
  }
}

std::size_t Network::port_count(NodeId node) const {
  auto it = ports_.find(node);
  return it == ports_.end() ? 0 : it->second.size();
}

NodeId Network::peer(NodeId node, PortId port) const { return half(node, port).to; }

void Network::set_link_loss(NodeId a, NodeId b, double loss_probability) {
  auto retune = [this, loss_probability](NodeId from, NodeId to) {
    auto it = ports_.find(from);
    if (it == ports_.end()) return;
    for (HalfLink& h : it->second) {
      if (h.to == to) h.params.loss_probability = loss_probability;
    }
  };
  retune(a, b);
  retune(b, a);
}

Node* Network::node(NodeId id) const {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second;
}

LinkStats Network::total_stats() const {
  LinkStats total;
  for (const auto& [id, halves] : ports_) {
    for (const auto& h : halves) {
      total.packets_sent += h.stats.packets_sent;
      total.bytes_sent += h.stats.bytes_sent;
      total.packets_delivered += h.stats.packets_delivered;
      total.packets_dropped_loss += h.stats.packets_dropped_loss;
      total.packets_dropped_queue += h.stats.packets_dropped_queue;
      total.packets_dropped_dead += h.stats.packets_dropped_dead;
    }
  }
  return total;
}

LinkStats Network::stats(NodeId node, PortId port) const {
  const LinkCounters& c = half(node, port).stats;
  return LinkStats{c.packets_sent,         c.bytes_sent,
                   c.packets_delivered,    c.packets_dropped_loss,
                   c.packets_dropped_queue, c.packets_dropped_dead};
}

std::unordered_map<NodeId, std::vector<NodeId>> Network::adjacency() const {
  std::unordered_map<NodeId, std::vector<NodeId>> adj;
  for (const auto& [id, halves] : ports_) {
    auto& peers = adj[id];
    peers.reserve(halves.size());
    for (const auto& h : halves) peers.push_back(h.to);
  }
  return adj;
}

}  // namespace swish::net
