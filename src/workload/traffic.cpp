#include "workload/traffic.hpp"

#include <algorithm>

namespace swish::workload {

TrafficGenerator::TrafficGenerator(shm::Fabric& fabric, TrafficConfig config)
    : fabric_(fabric),
      config_(config),
      rng_(config.seed),
      client_zipf_(std::max<std::size_t>(config.num_clients, 1), config.zipf_theta) {}

void TrafficGenerator::start(TimeNs duration) {
  schedule_next_arrival(fabric_.simulator().now() + duration);
}

void TrafficGenerator::schedule_next_arrival(TimeNs deadline) {
  const double gap_ns = rng_.exponential(static_cast<double>(kSec) / config_.flows_per_sec);
  const TimeNs at = fabric_.simulator().now() + static_cast<TimeNs>(gap_ns) + 1;
  if (at >= deadline) return;
  // Fire-and-forget: arrival events are never cancelled.
  fabric_.simulator().post_at(at, [this, deadline]() {
    start_flow(deadline);
    schedule_next_arrival(deadline);
  });
}

void TrafficGenerator::start_flow(TimeNs) {
  Flow flow;
  flow.id = next_flow_id_++;
  const std::uint64_t client_rank = client_zipf_.sample(rng_);
  flow.client = pkt::Ipv4Addr(config_.client_prefix.value() |
                              static_cast<std::uint32_t>(client_rank + 1));
  flow.src_port = next_port_++;
  if (next_port_ < 20000) next_port_ = 20000;  // keep clear of well-known ports
  // Bounded Pareto flow lengths: heavy-ish tail around the configured mean.
  const double len = rng_.bounded_pareto(2.0, std::max(4.0, config_.mean_packets_per_flow * 8),
                                         1.3);
  flow.packets_left = static_cast<std::uint32_t>(std::max(2.0, len));
  flow.ingress = pick_ingress(flow.id);
  ++stats_.flows_started;
  send_packet(std::move(flow));
}

std::size_t TrafficGenerator::pick_ingress(std::uint64_t flow_id) {
  return pick_alive(static_cast<std::size_t>(flow_id % fabric_.size()));
}

bool TrafficGenerator::ingress_alive(std::size_t i) const {
  return liveness_ ? liveness_(i) : fabric_.sw(i).alive();
}

std::size_t TrafficGenerator::pick_alive(std::size_t preferred) {
  // Edge routing steers flows away from failed switches (ECMP reconvergence).
  for (std::size_t i = 0; i < fabric_.size(); ++i) {
    const std::size_t candidate = (preferred + i) % fabric_.size();
    if (ingress_alive(candidate)) return candidate;
  }
  return preferred;
}

void TrafficGenerator::inject(const Flow& flow) {
  pkt::PacketSpec spec;
  spec.eth_src = pkt::MacAddr::for_node(0xfeed);
  spec.eth_dst = pkt::MacAddr::for_node(static_cast<NodeId>(flow.ingress + 1));
  spec.ip_src = flow.client;
  spec.ip_dst = config_.server_ip;
  spec.protocol = config_.tcp ? pkt::kProtoTcp : pkt::kProtoUdp;
  spec.src_port = flow.src_port;
  spec.dst_port = config_.server_port;
  if (config_.tcp) {
    if (flow.seq == 0) {
      spec.tcp_flags = pkt::TcpFlags::kSyn;
    } else if (flow.packets_left == 1) {
      spec.tcp_flags = pkt::TcpFlags::kFin | pkt::TcpFlags::kAck;
    } else {
      spec.tcp_flags = pkt::TcpFlags::kAck;
    }
    spec.tcp_seq = flow.seq;
  }
  Stamp stamp{flow.id, flow.seq, static_cast<std::uint64_t>(fabric_.simulator().now())};
  spec.payload = stamp.encode(std::max(config_.payload_bytes, Stamp::kSize));

  pkt::Packet packet = pkt::build_packet(spec);
  if (on_inject) on_inject(stamp, packet);
  fabric_.inject(flow.ingress, std::move(packet));
  ++stats_.packets_sent;
}

void TrafficGenerator::send_packet(Flow flow) {
  inject(flow);
  if (config_.gate_data_on_syn && config_.tcp && flow.seq == 0) {
    // Client behaviour: data follows only once the SYN makes it through the
    // NF (e.g. after the LB's mapping write commits). Retransmit until then.
    const std::uint64_t id = flow.id;
    awaiting_syn_.emplace(id, std::move(flow));
    arm_syn_retransmit(id, 1);
    return;
  }
  schedule_data_packet(std::move(flow));
}

void TrafficGenerator::schedule_data_packet(Flow flow) {
  ++flow.seq;
  if (--flow.packets_left == 0) {
    ++stats_.flows_finished;
    return;
  }
  // Mid-flow re-route (multipath / failure): next packet may enter elsewhere.
  if (config_.reroute_probability > 0 && rng_.chance(config_.reroute_probability)) {
    const std::size_t next = pick_alive(rng_.next_below(fabric_.size()));
    if (next != flow.ingress) {
      flow.ingress = next;
      ++stats_.reroutes;
    }
  } else if (!ingress_alive(flow.ingress)) {
    flow.ingress = pick_alive(flow.ingress);
    ++stats_.reroutes;
  }
  const double jitter = rng_.exponential(static_cast<double>(config_.packet_interval) * 0.1);
  fabric_.simulator().post_after(
      config_.packet_interval + static_cast<TimeNs>(jitter),
      [this, flow = std::move(flow)]() mutable { send_packet(std::move(flow)); });
}

void TrafficGenerator::notify_delivered(const Stamp& stamp) {
  if (stamp.seq != 0) return;
  auto it = awaiting_syn_.find(stamp.flow_id);
  if (it == awaiting_syn_.end()) return;
  Flow flow = std::move(it->second);
  awaiting_syn_.erase(it);
  schedule_data_packet(std::move(flow));
}

void TrafficGenerator::arm_syn_retransmit(std::uint64_t flow_id, unsigned attempt) {
  fabric_.simulator().post_after(config_.syn_retransmit_timeout, [this, flow_id, attempt]() {
    auto it = awaiting_syn_.find(flow_id);
    if (it == awaiting_syn_.end()) return;  // SYN delivered meanwhile
    if (attempt >= config_.max_syn_retries) {
      awaiting_syn_.erase(it);
      ++stats_.flows_abandoned;
      return;
    }
    ++stats_.syn_retransmits;
    it->second.ingress = pick_alive(it->second.ingress);
    inject(it->second);
    arm_syn_retransmit(flow_id, attempt + 1);
  });
}

void MeasuringSink::observe(const pkt::Packet& packet) {
  ++delivered_;
  const pkt::ParsedPacket* parsed = packet.parsed();
  if (!parsed) return;
  auto stamp = Stamp::decode(packet.l4_payload(*parsed));
  if (!stamp) return;
  const auto now = static_cast<std::uint64_t>(sim_.now());
  if (now >= stamp->send_time) latency_.add(now - stamp->send_time);
}

}  // namespace swish::workload
