#include "workload/attack.hpp"

namespace swish::workload {

void AttackGenerator::start() {
  fabric_.simulator().post_at(std::max(config_.start, fabric_.simulator().now() + 1),
                              [this]() {
                                send_one(config_.start + config_.duration);
                              });
}

void AttackGenerator::send_one(TimeNs deadline) {
  if (fabric_.simulator().now() >= deadline) return;

  pkt::PacketSpec spec;
  spec.eth_src = pkt::MacAddr::for_node(0xbad);
  spec.ip_src = pkt::Ipv4Addr(static_cast<std::uint32_t>(rng_.next()));  // spoofed
  spec.ip_dst = config_.victim;
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = static_cast<std::uint16_t>(rng_.next_range(1024, 65535));
  spec.dst_port = 53;
  spec.payload.assign(config_.payload_bytes, 0xAA);

  // Round-robin over live switches: the attack arrives everywhere.
  for (std::size_t i = 0; i < fabric_.size(); ++i) {
    next_ingress_ = (next_ingress_ + 1) % fabric_.size();
    if (ingress_alive(next_ingress_)) break;
  }
  fabric_.inject(next_ingress_, pkt::build_packet(spec));
  ++stats_.packets_sent;

  const double gap_ns = rng_.exponential(static_cast<double>(kSec) / config_.packets_per_sec);
  // Compared as a double: a zero or tiny rate draws a gap (up to +inf) that
  // no TimeNs holds. A send past the deadline would do nothing.
  if (gap_ns >= static_cast<double>(deadline - fabric_.simulator().now() - 1)) return;
  fabric_.simulator().post_after(static_cast<TimeNs>(gap_ns) + 1,
                                 [this, deadline]() { send_one(deadline); });
}

}  // namespace swish::workload
