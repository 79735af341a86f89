// Unit tests: links (delay, bandwidth, loss, queueing), routing, topologies.
#include <gtest/gtest.h>

#include "net/routing.hpp"
#include "net/topology.hpp"

namespace swish::net {
namespace {

class SinkNode : public Node {
 public:
  explicit SinkNode(NodeId id) : Node(id) {}
  void handle_packet(pkt::Packet packet, PortId ingress) override {
    arrivals.emplace_back(packet.size(), ingress);
  }
  std::vector<std::pair<std::size_t, PortId>> arrivals;
};

pkt::Packet packet_of_size(std::size_t payload) {
  pkt::PacketSpec spec;
  spec.ip_src = pkt::Ipv4Addr(1, 1, 1, 1);
  spec.ip_dst = pkt::Ipv4Addr(2, 2, 2, 2);
  spec.payload.assign(payload, 0x55);
  return pkt::build_packet(spec);
}

struct Rig {
  sim::ShardSet shards{1};
  sim::Simulator& sim = shards.sim(0);
  Network net{shards, 42};
  SinkNode a{1}, b{2};
  Rig() {
    net.attach(a);
    net.attach(b);
  }
};

TEST(Network, DeliversAfterPropagationDelay) {
  Rig rig;
  LinkParams params;
  params.propagation_delay = 5 * kUs;
  params.bandwidth = 0;  // infinite: isolate propagation
  rig.net.connect(1, 2, params);
  rig.net.send(1, 0, packet_of_size(10));
  rig.sim.run();
  ASSERT_EQ(rig.b.arrivals.size(), 1u);
  EXPECT_EQ(rig.sim.now(), 5 * kUs);
}

TEST(Network, SerializationDelayFromBandwidth) {
  Rig rig;
  LinkParams params;
  params.propagation_delay = 0;
  params.bandwidth = 8 * kKbps;  // 1 byte per ms
  rig.net.connect(1, 2, params);
  const auto size = packet_of_size(0).size();
  rig.net.send(1, 0, packet_of_size(0));
  rig.sim.run();
  EXPECT_EQ(rig.sim.now(), static_cast<TimeNs>(size) * kMs);
}

TEST(Network, BackToBackPacketsQueue) {
  Rig rig;
  LinkParams params;
  params.propagation_delay = 0;
  params.bandwidth = 8 * kMbps;  // 1 byte/us
  rig.net.connect(1, 2, params);
  const auto size = packet_of_size(0).size();
  rig.net.send(1, 0, packet_of_size(0));
  rig.net.send(1, 0, packet_of_size(0));  // same instant: serializes behind
  rig.sim.run();
  EXPECT_EQ(rig.sim.now(), static_cast<TimeNs>(2 * size) * kUs);
  EXPECT_EQ(rig.b.arrivals.size(), 2u);
}

TEST(Network, QueueOverflowTailDrops) {
  Rig rig;
  LinkParams params;
  params.propagation_delay = 0;
  params.bandwidth = 8 * kKbps;  // very slow
  params.max_queue_delay = 1 * kMs;
  rig.net.connect(1, 2, params);
  for (int i = 0; i < 100; ++i) rig.net.send(1, 0, packet_of_size(100));
  rig.sim.run();
  const auto& st = rig.net.stats(1, 0);
  EXPECT_GT(st.packets_dropped_queue, 0u);
  EXPECT_LT(rig.b.arrivals.size(), 100u);
  EXPECT_EQ(st.packets_sent + st.packets_dropped_queue, 100u);
}

TEST(Network, LossProbabilityDropsShare) {
  Rig rig;
  LinkParams params;
  params.loss_probability = 0.5;
  params.bandwidth = 0;
  rig.net.connect(1, 2, params);
  for (int i = 0; i < 2000; ++i) rig.net.send(1, 0, packet_of_size(1));
  rig.sim.run();
  EXPECT_NEAR(static_cast<double>(rig.b.arrivals.size()), 1000.0, 120.0);
  EXPECT_EQ(rig.net.stats(1, 0).packets_dropped_loss + rig.b.arrivals.size(), 2000u);
}

TEST(Network, ZeroLossDeliversAll) {
  Rig rig;
  rig.net.connect(1, 2, LinkParams{});
  for (int i = 0; i < 500; ++i) rig.net.send(1, 0, packet_of_size(1));
  rig.sim.run();
  EXPECT_EQ(rig.b.arrivals.size(), 500u);
}

TEST(Network, JitterCausesReordering) {
  Rig rig;
  LinkParams params;
  params.propagation_delay = 1 * kUs;
  params.jitter = 100 * kUs;
  params.bandwidth = 0;
  rig.net.connect(1, 2, params);
  std::vector<std::size_t> sizes;
  for (std::size_t i = 1; i <= 50; ++i) rig.net.send(1, 0, packet_of_size(i));
  rig.sim.run();
  ASSERT_EQ(rig.b.arrivals.size(), 50u);
  bool reordered = false;
  for (std::size_t i = 1; i < rig.b.arrivals.size(); ++i) {
    if (rig.b.arrivals[i].first < rig.b.arrivals[i - 1].first) reordered = true;
  }
  EXPECT_TRUE(reordered);
}

TEST(Network, IngressPortIdentifiesLink) {
  Rig rig;
  SinkNode c{3};
  rig.net.attach(c);
  auto conn_ab = rig.net.connect(1, 2, LinkParams{});
  auto conn_cb = rig.net.connect(3, 2, LinkParams{});
  rig.net.send(1, conn_ab.port_a, packet_of_size(1));
  rig.net.send(3, conn_cb.port_a, packet_of_size(2));
  rig.sim.run();
  ASSERT_EQ(rig.b.arrivals.size(), 2u);
  EXPECT_EQ(rig.b.arrivals[0].second, conn_ab.port_b);
  EXPECT_EQ(rig.b.arrivals[1].second, conn_cb.port_b);
}

TEST(Network, DeadNodeBlackHoles) {
  Rig rig;
  rig.net.connect(1, 2, LinkParams{});
  rig.b.fail();
  rig.net.send(1, 0, packet_of_size(1));
  rig.sim.run();
  EXPECT_TRUE(rig.b.arrivals.empty());
  rig.b.recover();
  rig.net.send(1, 0, packet_of_size(1));
  rig.sim.run();
  EXPECT_EQ(rig.b.arrivals.size(), 1u);
}

TEST(Network, DuplicateAttachThrows) {
  Rig rig;
  SinkNode dup{1};
  EXPECT_THROW(rig.net.attach(dup), std::invalid_argument);
}

TEST(Network, ConnectUnknownNodeThrows) {
  Rig rig;
  EXPECT_THROW(rig.net.connect(1, 99, LinkParams{}), std::invalid_argument);
}

TEST(Network, TotalStatsAggregates) {
  Rig rig;
  rig.net.connect(1, 2, LinkParams{});
  rig.net.send(1, 0, packet_of_size(10));
  rig.net.send(2, 0, packet_of_size(10));
  rig.sim.run();
  const auto total = rig.net.total_stats();
  EXPECT_EQ(total.packets_sent, 2u);
  EXPECT_GT(total.bytes_sent, 0u);
}

TEST(Network, DeliveredCountsOnlyArrivals) {
  // sent counts wire occupancy; delivered counts packets handed to a live
  // peer; on-wire loss is exactly sent - delivered.
  Rig rig;
  LinkParams params;
  params.loss_probability = 0.5;
  params.bandwidth = 0;
  rig.net.connect(1, 2, params);
  for (int i = 0; i < 1000; ++i) rig.net.send(1, 0, packet_of_size(1));
  rig.sim.run();
  const auto& st = rig.net.stats(1, 0);
  EXPECT_EQ(st.packets_sent, 1000u);
  EXPECT_EQ(st.packets_delivered, rig.b.arrivals.size());
  EXPECT_EQ(st.packets_sent - st.packets_delivered, st.packets_dropped_loss);
}

TEST(Network, QueueDropsNeverCountAsSentOrDelivered) {
  Rig rig;
  LinkParams params;
  params.propagation_delay = 0;
  params.bandwidth = 8 * kKbps;  // very slow: force tail drops
  params.max_queue_delay = 1 * kMs;
  rig.net.connect(1, 2, params);
  for (int i = 0; i < 100; ++i) rig.net.send(1, 0, packet_of_size(100));
  rig.sim.run();
  const auto& st = rig.net.stats(1, 0);
  EXPECT_GT(st.packets_dropped_queue, 0u);
  // Queue-dropped packets never occupied the wire; everything that did was
  // delivered (lossless link).
  EXPECT_EQ(st.packets_sent, st.packets_delivered);
  EXPECT_EQ(st.packets_sent + st.packets_dropped_queue, 100u);
}

TEST(Network, DeadPeerReceivesNothingButLinkStillSends) {
  Rig rig;
  rig.net.connect(1, 2, LinkParams{});
  rig.b.fail();
  rig.net.send(1, 0, packet_of_size(1));
  rig.sim.run();
  const auto& st = rig.net.stats(1, 0);
  EXPECT_EQ(st.packets_sent, 1u);
  EXPECT_EQ(st.packets_delivered, 0u);  // black-holed at the dead peer
  EXPECT_EQ(st.packets_dropped_loss, 0u);
}

TEST(Network, TotalStatsIncludesDelivered) {
  Rig rig;
  rig.net.connect(1, 2, LinkParams{});
  rig.net.send(1, 0, packet_of_size(10));
  rig.net.send(2, 0, packet_of_size(10));
  rig.sim.run();
  const auto total = rig.net.total_stats();
  EXPECT_EQ(total.packets_delivered, 2u);
}

TEST(Network, TapObservesAllTransmissions) {
  Rig rig;
  LinkParams params;
  params.loss_probability = 0.5;
  rig.net.connect(1, 2, params);
  std::uint64_t tapped = 0;
  NodeId last_from = 0, last_to = 0;
  rig.net.set_tap([&](NodeId from, NodeId to, const pkt::Packet&, TimeNs) {
    ++tapped;
    last_from = from;
    last_to = to;
  });
  for (int i = 0; i < 100; ++i) rig.net.send(1, 0, packet_of_size(1));
  rig.sim.run();
  // The tap sees every transmission, including packets lost on the wire.
  EXPECT_EQ(tapped, 100u);
  EXPECT_EQ(last_from, 1u);
  EXPECT_EQ(last_to, 2u);
  EXPECT_LT(rig.b.arrivals.size(), 100u);
}

TEST(Topology, NodeIpDeterministic) {
  EXPECT_EQ(node_ip(1).to_string(), "10.0.0.1");
  EXPECT_EQ(node_ip(0x010203).to_string(), "10.1.2.3");
}

struct TopoRig {
  sim::ShardSet shards{1};
  sim::Simulator& sim = shards.sim(0);
  Network net{shards, 1};
  std::vector<std::unique_ptr<SinkNode>> nodes;
  std::vector<NodeId> ids;
  explicit TopoRig(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<SinkNode>(static_cast<NodeId>(i + 1)));
      net.attach(*nodes.back());
      ids.push_back(static_cast<NodeId>(i + 1));
    }
  }
};

TEST(Topology, ChainHasLinearPorts) {
  TopoRig rig(4);
  connect_chain(rig.net, rig.ids, LinkParams{});
  EXPECT_EQ(rig.net.port_count(1), 1u);
  EXPECT_EQ(rig.net.port_count(2), 2u);
  EXPECT_EQ(rig.net.port_count(4), 1u);
}

TEST(Topology, FullMeshAllPairs) {
  TopoRig rig(5);
  connect_full_mesh(rig.net, rig.ids, LinkParams{});
  for (NodeId id : rig.ids) EXPECT_EQ(rig.net.port_count(id), 4u);
}

TEST(Routing, DirectNeighborSingleHop) {
  TopoRig rig(3);
  connect_chain(rig.net, rig.ids, LinkParams{});
  auto tables = compute_routes(rig.net);
  EXPECT_EQ(tables[1].ports_to(2).size(), 1u);
  EXPECT_EQ(rig.net.peer(1, tables[1].pick(2, 0)), 2u);
}

TEST(Routing, MultiHopFollowsChain) {
  TopoRig rig(4);
  connect_chain(rig.net, rig.ids, LinkParams{});
  auto tables = compute_routes(rig.net);
  // 1 -> 4 must leave via the port to 2.
  EXPECT_EQ(rig.net.peer(1, tables[1].pick(4, 99)), 2u);
  EXPECT_EQ(rig.net.peer(2, tables[2].pick(4, 99)), 3u);
}

TEST(Routing, EcmpFindsBothSpinePaths) {
  TopoRig rig(4);  // 1,2 leaves; 3,4 spines
  std::vector<NodeId> leaves{1, 2}, spines{3, 4};
  connect_leaf_spine(rig.net, leaves, spines, LinkParams{});
  auto tables = compute_routes(rig.net);
  EXPECT_EQ(tables[1].ports_to(2).size(), 2u);  // via either spine
  // Flow hash selects deterministically.
  EXPECT_EQ(tables[1].pick(2, 8), tables[1].pick(2, 8));
}

TEST(Routing, ExcludedNodeRoutedAround) {
  TopoRig rig(4);
  connect_full_mesh(rig.net, rig.ids, LinkParams{});
  auto tables = compute_routes(rig.net, {2});
  // 1 -> 3 must not go through 2; direct link exists.
  EXPECT_EQ(rig.net.peer(1, tables[1].pick(3, 0)), 3u);
  // No routes are computed *to* the excluded node.
  EXPECT_FALSE(tables[1].reachable(2));
}

TEST(Routing, NoTransitNodeNeverRelays) {
  // 1 - 2 - 3 chain, plus node 9 linked to everyone (like the controller).
  TopoRig rig(3);
  connect_chain(rig.net, rig.ids, LinkParams{});
  SinkNode hub{9};
  rig.net.attach(hub);
  for (NodeId id : rig.ids) rig.net.connect(9, id, LinkParams{});
  auto tables = compute_routes(rig.net, {}, /*no_transit=*/{9});
  // 3 -> 1 must go via 2, never via the hub (which would be equal-cost).
  const auto& ports = tables[3].ports_to(1);
  ASSERT_EQ(ports.size(), 1u);
  EXPECT_EQ(rig.net.peer(3, ports[0]), 2u);
  // But the hub is still reachable as a destination.
  EXPECT_TRUE(tables[3].reachable(9));
  EXPECT_EQ(rig.net.peer(3, tables[3].pick(9, 0)), 9u);
}

TEST(Routing, UnreachableIsEmpty) {
  TopoRig rig(3);
  rig.net.connect(1, 2, LinkParams{});  // 3 is isolated
  auto tables = compute_routes(rig.net);
  EXPECT_FALSE(tables[1].reachable(3));
  EXPECT_EQ(tables[1].pick(3, 0), kInvalidPort);
}

}  // namespace
}  // namespace swish::net
