#include "nf/firewall.hpp"

namespace swish::nf {

void FirewallApp::process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) {
  if (!ctx.parsed || !ctx.parsed->ipv4 || (!ctx.parsed->tcp && !ctx.parsed->udp)) return;
  const pkt::ParsedPacket& p = *ctx.parsed;
  const bool outbound = in_prefix(p.ipv4->src, config_.internal_prefix,
                                  config_.internal_prefix_len);
  // Both directions of a connection map to one canonical key.
  const std::uint64_t key = pkt::FlowKey::from(p).canonical().hash();
  pisa::Switch* sw = &ctx.sw;

  if (outbound) {
    const bool syn = p.tcp && (p.tcp->flags & pkt::TcpFlags::kSyn) != 0;
    const bool fin =
        p.tcp && (p.tcp->flags & (pkt::TcpFlags::kFin | pkt::TcpFlags::kRst)) != 0;
    if (syn) {
      // Opening handshake: commit the pinhole before the SYN leaves (§6.1 —
      // the output packet is buffered until the write is acknowledged).
      ++stats_.connections_opened;
      std::vector<pkt::WriteOp> ops{
          {kFirewallSpace, key, static_cast<std::uint64_t>(ConnState::kEstablished)}};
      pkt::Packet out = ctx.packet;
      rt.write(std::move(ops), std::move(out), [sw, this](pkt::Packet&& released) {
        ++stats_.allowed_out;
        sw->deliver(std::move(released));
      });
      return;
    }
    if (fin) {
      ++stats_.connections_closed;
      std::vector<pkt::WriteOp> ops{{kFirewallSpace, key, shm::kTombstone}};
      pkt::Packet out = ctx.packet;
      rt.write(std::move(ops), std::move(out), [sw, this](pkt::Packet&& released) {
        ++stats_.allowed_out;
        sw->deliver(std::move(released));
      });
      return;
    }
    // Mid-connection outbound traffic (and all UDP) flows freely: the
    // internal side is trusted.
    ++stats_.allowed_out;
    ctx.sw.deliver(std::move(ctx.packet));
    return;
  }

  // Inbound: the LPM blocklist is consulted first (an undeclared space reads
  // as nullopt, so deployments without prefix_space() pay nothing)...
  if (const auto verdict = rt.read_lpm(kFirewallPrefixSpace, p.ipv4->src.value());
      verdict && *verdict != 0) {
    ++stats_.blocked_prefix;
    return;
  }
  // ...then admit only packets of connections the inside opened.
  std::uint64_t state = 0;
  switch (rt.read(&ctx, kFirewallSpace, key, state)) {
    case shm::ReadStatus::kOk:
      ++stats_.allowed_in;
      ctx.sw.deliver(std::move(ctx.packet));
      return;
    case shm::ReadStatus::kRedirected:
      ++stats_.redirected;
      return;
    case shm::ReadStatus::kMiss:
      ++stats_.blocked_in;
      return;
  }
}

}  // namespace swish::nf
