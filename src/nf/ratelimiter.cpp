#include "nf/ratelimiter.hpp"

namespace swish::nf {

void RateLimiterApp::setup(pisa::Switch& sw, shm::ShmRuntime& runtime) {
  limited_ = &sw.add_register_array("rl.limited", config_.user_slots, 1);
  window_base_.assign(config_.user_slots, 0);
  shm::ShmRuntime* rt = &runtime;
  // Periodic meter read (§4.2: "periodically, the meters are read to
  // identify users exceeding their bandwidth limit").
  sw.start_packet_generator(config_.window, [this, rt]() { window_tick(*rt); });
}

void RateLimiterApp::process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) {
  if (!ctx.parsed || !ctx.parsed->ipv4) return;
  const auto slot = static_cast<RegisterIndex>(user_slot(ctx.parsed->ipv4->src));

  if (limited_ && limited_->read(slot) != 0) {
    ++stats_.dropped_limited;
    return;
  }
  const std::uint64_t aggregate =
      rt.update(kRateLimiterSpace, slot, static_cast<std::int64_t>(ctx.packet.size()))
          .value_or(0);
  // A subnet-specific budget (longest matching prefix) overrides the global
  // default; deployments without subnet_space() read nullopt and pay nothing.
  std::uint64_t limit = config_.bytes_per_window;
  if (const auto sub = rt.read_lpm(kRateLimiterPrefixSpace, ctx.parsed->ipv4->src.value())) {
    limit = *sub;
  }
  // Inline over-limit check gives sub-window reaction on the switch that
  // carries most of the user's traffic; cross-switch aggregation catches the
  // rest at the window boundary.
  if (aggregate - window_base_[slot] > limit) {
    if (limited_ && limited_->read(slot) == 0) {
      limited_->write(slot, 1);
      ++stats_.users_limited;
    }
  }
  ++stats_.passed;
  ctx.sw.deliver(std::move(ctx.packet));
}

void RateLimiterApp::window_tick(shm::ShmRuntime& rt) {
  for (std::size_t slot = 0; slot < config_.user_slots; ++slot) {
    std::uint64_t aggregate = 0;
    rt.read(nullptr, kRateLimiterSpace, slot, aggregate);
    window_base_[slot] = aggregate;
    if (limited_) limited_->write(static_cast<RegisterIndex>(slot), 0);
  }
}

}  // namespace swish::nf
