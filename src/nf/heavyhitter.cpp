#include "nf/heavyhitter.hpp"

namespace swish::nf {

void HeavyHitterApp::process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) {
  if (!ctx.parsed || !ctx.parsed->ipv4) return;
  ++stats_.packets;
  const pkt::Ipv4Addr src = ctx.parsed->ipv4->src;
  const std::uint64_t slot = slot_of(src);
  // Count locally; the aggregate reflects every switch's traffic after the
  // EWO merge — the "network-wide" part, with no controller involved.
  const std::uint64_t aggregate = rt.update(kHeavyHitterSpace, slot, 1).value_or(0);
  if (aggregate >= config_.threshold && !reported_.contains(slot)) {
    reported_.insert(slot);
    ++stats_.reports;
    const std::uint32_t mask =
        config_.prefix_len == 0 ? 0 : ~0u << (32 - config_.prefix_len);
    if (on_heavy_hitter) {
      on_heavy_hitter(pkt::Ipv4Addr(src.value() & mask), aggregate,
                      ctx.sw.simulator().now());
    }
  }
  ctx.sw.deliver(std::move(ctx.packet));
}

}  // namespace swish::nf
