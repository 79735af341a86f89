#include "nf/lb.hpp"

namespace swish::nf {

void LoadBalancerApp::process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) {
  if (!ctx.parsed || !ctx.parsed->ipv4 || !ctx.parsed->tcp) return;
  const pkt::ParsedPacket& p = *ctx.parsed;
  if (p.ipv4->dst != config_.vip) {
    ctx.sw.deliver(std::move(ctx.packet));  // not VIP traffic
    return;
  }

  const std::uint64_t key = pkt::FlowKey::from(p).hash();
  std::uint64_t dip_packed = 0;
  switch (rt.read(&ctx, kLbSpace, key, dip_packed)) {
    case shm::ReadStatus::kOk: {
      ++stats_.forwarded;
      ctx.sw.deliver(pkt::rewrite_l3l4(ctx.packet, p, std::nullopt, endpoint_ip(dip_packed),
                                       std::nullopt, std::nullopt));
      return;
    }
    case shm::ReadStatus::kRedirected:
      ++stats_.redirected;
      return;
    case shm::ReadStatus::kMiss:
      break;
  }

  const bool syn = (p.tcp->flags & pkt::TcpFlags::kSyn) != 0;
  if (!syn) {
    // Mid-connection packet with no mapping anywhere: the assignment was
    // lost — the client's connection is broken (PCC violation, §3.1).
    ++stats_.pcc_violations;
    return;
  }

  if (config_.backends.empty()) return;
  // Deterministic spread of new connections across the pool.
  const std::uint64_t dip_index = pkt::FlowKey::from(p).hash() % config_.backends.size();
  const pkt::Ipv4Addr dip = config_.backends[dip_index];
  ++stats_.new_connections;
  std::vector<pkt::WriteOp> ops{{kLbSpace, key, pack_endpoint(dip, 0)}};
  pkt::Packet out = pkt::rewrite_l3l4(ctx.packet, p, std::nullopt, dip, std::nullopt,
                                      std::nullopt);
  pisa::Switch* sw = &ctx.sw;
  auto release = [sw, this](pkt::Packet&& released) {
    ++stats_.forwarded;
    sw->deliver(std::move(released));
  };

  // When the refcount space is deployed on the same engine, bump the DIP's
  // live-connection counter in the same atomic write as the mapping install:
  // no failure (loss, coordinator change) can leave a connection counted but
  // unmapped or vice versa. The peek-then-write increment is last-writer-wins
  // across concurrent writers; the invariant the write guarantees is the
  // atomicity of the pair, not counter linearizability.
  shm::ProtocolEngine* conn_engine = rt.engine_for_space(kLbSpace);
  if (conn_engine != nullptr && rt.engine_for_space(kLbRefcountSpace) == conn_engine) {
    std::uint64_t refs = 0;
    rt.read(nullptr, kLbRefcountSpace, dip_index, refs);
    ops.push_back({kLbRefcountSpace, dip_index, refs + 1});
    ++stats_.txn_installs;
  }
  rt.write(std::move(ops), std::move(out), std::move(release));
}

}  // namespace swish::nf
