#include "pisa/switch.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "packet/int_md.hpp"

namespace swish::pisa {

namespace {

std::string switch_prefix(NodeId id) { return "pisa.sw" + std::to_string(id) + "."; }

}  // namespace

Switch::Switch(sim::Simulator& simulator, net::Network& network, NodeId id, Config config)
    : net::Node(id),
      sim_(simulator),
      network_(network),
      config_(config),
      control_plane_(simulator, config.control_plane, switch_prefix(id) + "cp."),
      records_(simulator.records()) {
  telemetry::MetricsRegistry& reg = simulator.metrics();
  const std::string prefix = switch_prefix(id);
  stats_.processed = reg.counter(prefix + "processed");
  stats_.dropped_capacity = reg.counter(prefix + "dropped_capacity");
  stats_.dropped_recirc = reg.counter(prefix + "dropped_recirc");
  stats_.dropped_noroute = reg.counter(prefix + "dropped_noroute");
  stats_.injected = reg.counter(prefix + "injected");
  stats_.delivered = reg.counter(prefix + "delivered");
  stats_.recirculated = reg.counter(prefix + "recirculated");
  stats_.sent = reg.counter(prefix + "sent");
  control_plane_.set_gate([this]() { return alive(); });
  dp_per_packet_ = static_cast<TimeNs>(static_cast<double>(kSec) / config_.dataplane_pps);
  dp_backlog_limit_ = dp_per_packet_ * static_cast<TimeNs>(config_.dataplane_queue);
  int_countdown_ = config_.int_sample_every;
}

RegisterArray& Switch::add_register_array(std::string name, std::size_t size,
                                          unsigned entry_bits) {
  objects_.push_back(std::make_unique<RegisterArray>(std::move(name), size, entry_bits));
  return static_cast<RegisterArray&>(*objects_.back());
}

ExactTable& Switch::add_exact_table(std::string name, std::size_t capacity, unsigned key_bits,
                                    unsigned value_bits) {
  objects_.push_back(std::make_unique<ExactTable>(std::move(name), capacity, key_bits, value_bits));
  return static_cast<ExactTable&>(*objects_.back());
}

std::size_t Switch::memory_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& obj : objects_) total += obj->memory_bytes();
  return total;
}

bool Switch::admit() {
  const TimeNs now = sim_.now();
  const TimeNs backlog = dp_free_time_ > now ? dp_free_time_ - now : 0;
  if (dp_per_packet_ > 0 && backlog > dp_backlog_limit_) {
    ++stats_.dropped_capacity;
    return false;
  }
  dp_free_time_ = std::max(now, dp_free_time_) + dp_per_packet_;
  return true;
}

void Switch::handle_packet(pkt::Packet packet, net::PortId ingress_port) {
  if (!alive()) return;
  process(std::move(packet), ingress_port, /*from_edge=*/false, /*recirc_count=*/0);
}

void Switch::inject(pkt::Packet packet) {
  if (!alive()) return;
  ++stats_.injected;
  records_.trace(telemetry::kTracePacket, id(), "inject", packet.size());
  if (int_enabled() && --int_countdown_ == 0) {
    // 1-in-N edge sampling: tag this packet with an empty INT trailer. The
    // countdown is a pure function of this switch's inject sequence, so the
    // sampled set is identical across shard counts.
    int_countdown_ = config_.int_sample_every;
    packet = pkt::with_int_trailer(
        packet, static_cast<std::uint8_t>(std::min(config_.int_hop_cap, 255u)));
    records_.trace(telemetry::kTraceInt, id(), "int_tag", packet.size());
  }
  process(std::move(packet), net::kInvalidPort, /*from_edge=*/true, /*recirc_count=*/0);
}

void Switch::process(pkt::Packet packet, net::PortId ingress_port, bool from_edge,
                     unsigned recirc_count) {
  if (!admit()) {
    report_drop(telemetry::DropReason::kDataplaneCapacity, &packet, recirc_count);
    return;
  }
  ++stats_.processed;
  if (!program_) return;  // no program installed: sink
  PacketContext ctx{*this, std::move(packet), nullptr, ingress_port, from_edge,
                    recirc_count};
  ctx.parsed = ctx.packet.parsed();
  program_->process(ctx);
}

void Switch::send_to_node(NodeId dst, pkt::Packet packet, std::uint64_t flow_hash,
                          unsigned recirc_count) {
  if (dst == id()) {
    recirculate(std::move(packet), recirc_count);
    return;
  }
  const net::PortId port = routing_.pick(dst, flow_hash);
  if (port == net::kInvalidPort) {
    ++stats_.dropped_noroute;
    report_drop(telemetry::DropReason::kNoRoute, &packet, dst);
    return;
  }
  send_to_port(port, std::move(packet));
}

void Switch::send_to_port(net::PortId port, pkt::Packet packet) {
  ++stats_.sent;
  records_.trace(telemetry::kTracePacket, id(), "send", port, packet.size());
  if (int_enabled() && pkt::has_int_trailer(packet)) {
    bool truncated = false;
    packet = pkt::push_int_hop(packet, make_int_hop(port), &truncated);
    records_.trace(telemetry::kTraceInt, id(), "int_hop", port, truncated ? 1 : 0);
  }
  // Egress after the pipeline traversal latency, handed to the network
  // directly instead of through a per-packet egress event: the latency is a
  // fixed offset, so the wire timeline is identical and the simulator never
  // sees the packet wrapped in a closure. (A switch that fails mid-pipeline
  // still emits packets already past the pipeline, matching real hardware.)
  network_.send(id(), port, std::move(packet), config_.pipeline_latency);
}

void Switch::deliver(pkt::Packet packet) {
  if (int_enabled() && record_int_sink(packet)) {
    // The trailer served its purpose; the delivery sink must observe the
    // exact bytes the source sent (stamps decode from the l4 payload).
    packet = pkt::strip_int_trailer(packet);
  }
  ++stats_.delivered;
  records_.trace(telemetry::kTracePacket, id(), "deliver", packet.size());
  if (!delivery_sink_) return;
  sim_.post_after(config_.pipeline_latency, [this, p = std::move(packet)]() {
    if (delivery_sink_) delivery_sink_(p);
  });
}

void Switch::recirculate(pkt::Packet packet, unsigned recirc_count) {
  if (recirc_count >= config_.max_recirculations) {
    ++stats_.dropped_recirc;
    report_drop(telemetry::DropReason::kRecircCap, &packet, recirc_count);
    return;
  }
  ++stats_.recirculated;
  records_.trace(telemetry::kTraceRecirc, id(), "recirculate", recirc_count);
  sim_.post_after(config_.pipeline_latency,
                  [this, p = std::move(packet), recirc_count]() mutable {
                    if (!alive()) return;
                    process(std::move(p), net::kInvalidPort, /*from_edge=*/false,
                            recirc_count + 1);
                  });
}

telemetry::IntHop Switch::make_int_hop(net::PortId egress_port) const {
  const TimeNs now = sim_.now();
  telemetry::IntHop hop;
  hop.switch_id = static_cast<std::uint32_t>(id());
  hop.ingress_ts = now;
  hop.egress_ts = now + config_.pipeline_latency;
  // Queue depth in packets, derived from the data-plane backlog the same way
  // admit() measures it (0 when the data plane is unconstrained).
  hop.queue_depth = 0;
  if (dp_per_packet_ > 0 && dp_free_time_ > now) {
    hop.queue_depth = static_cast<std::uint32_t>((dp_free_time_ - now) / dp_per_packet_);
  }
  // rule_hit encodes the forwarding decision: egress port + 1, 0 = local.
  hop.rule_hit = egress_port == net::kInvalidPort
                     ? 0
                     : static_cast<std::uint32_t>(egress_port) + 1;
  return hop;
}

bool Switch::record_int_sink(const pkt::Packet& packet) {
  if (!pkt::has_int_trailer(packet)) return false;
  std::optional<pkt::IntStack> stack = pkt::read_int_stack(packet);
  if (!stack) return false;
  // The sink switch never egresses the packet, so it appends itself here in
  // the decoded report rather than on the wire (and is exempt from the cap).
  stack->hops.push_back(make_int_hop(net::kInvalidPort));
  const std::size_t original_bytes = packet.size() - pkt::int_trailer_size(packet);
  records_.int_sink(id(), std::move(stack->hops), stack->truncated, stack->hop_cap,
                    original_bytes);
  return true;
}

void Switch::report_drop(telemetry::DropReason reason, const pkt::Packet* packet,
                         std::uint64_t detail) {
  std::vector<telemetry::IntHop> hops;
  std::size_t bytes = 0;
  if (packet != nullptr) {
    bytes = packet->size();
    if (int_enabled() && pkt::has_int_trailer(*packet)) {
      if (std::optional<pkt::IntStack> stack = pkt::read_int_stack(*packet)) {
        hops = std::move(stack->hops);
      }
    }
  }
  records_.drop(id(), reason, bytes, detail, std::move(hops));
}

sim::TimerHandle Switch::start_packet_generator(TimeNs period, std::function<void()> fn) {
  return sim_.schedule_periodic(period, [this, fn = std::move(fn)]() {
    if (!alive()) return;
    fn();
  });
}

}  // namespace swish::pisa
