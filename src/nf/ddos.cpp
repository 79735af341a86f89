#include "nf/ddos.hpp"

#include "common/rng.hpp"

namespace swish::nf {

std::uint64_t DdosDetectorApp::cell(std::size_t row, pkt::Ipv4Addr dst) const noexcept {
  const std::uint64_t h = mix64(dst.value() ^ (0x9e3779b97f4a7c15ULL * (row + 1)));
  return row * config_.sketch_cols + (h % config_.sketch_cols);
}

void DdosDetectorApp::setup(pisa::Switch& sw, shm::ShmRuntime& runtime) {
  shm::ShmRuntime* rt = &runtime;
  sw.start_packet_generator(config_.window, [this, rt]() { window_tick(*rt); });
}

void DdosDetectorApp::process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) {
  if (!ctx.parsed || !ctx.parsed->ipv4) return;
  const pkt::Ipv4Addr dst = ctx.parsed->ipv4->dst;
  ++stats_.packets;

  for (std::size_t row = 0; row < config_.sketch_rows; ++row) {
    rt.update(kDdosSketchSpace, cell(row, dst), 1);
  }
  rt.update(kDdosTotalSpace, 0, 1);

  // The sketch is read on every packet (Table 1): the per-packet estimate
  // feeds window-based detection bookkeeping.
  const std::uint64_t est = estimate(rt, dst);
  if (watched_.size() < config_.watch_capacity && !watched_.contains(dst.value())) {
    watched_.insert(dst.value());
    window_base_est_.emplace(dst.value(), est - 1);
  }
  ctx.sw.deliver(std::move(ctx.packet));
}

std::uint64_t DdosDetectorApp::estimate(shm::ShmRuntime& rt, pkt::Ipv4Addr dst) const {
  std::uint64_t est = ~0ULL;
  for (std::size_t row = 0; row < config_.sketch_rows; ++row) {
    std::uint64_t count = 0;
    rt.read(nullptr, kDdosSketchSpace, cell(row, dst), count);
    est = std::min(est, count);
  }
  return est == ~0ULL ? 0 : est;
}

void DdosDetectorApp::window_tick(shm::ShmRuntime& rt) {
  ++stats_.windows;
  std::uint64_t total = 0;
  rt.read(nullptr, kDdosTotalSpace, 0, total);
  const std::uint64_t delta_total = total - window_base_total_;
  if (delta_total >= config_.min_window_packets) {
    for (std::uint32_t dst_value : watched_) {
      const pkt::Ipv4Addr dst(dst_value);
      const std::uint64_t est = estimate(rt, dst);
      const std::uint64_t base = window_base_est_.count(dst_value)
                                     ? window_base_est_.at(dst_value)
                                     : 0;
      const std::uint64_t delta_est = est - std::min(est, base);
      const double share = static_cast<double>(delta_est) / static_cast<double>(delta_total);
      const bool fired = config_.volume_threshold > 0
                             ? delta_est >= config_.volume_threshold
                             : share >= config_.share_threshold;
      if (fired) {
        ++stats_.alarms;
        if (on_alarm) on_alarm(dst, share, rt.sw().simulator().now());
      }
    }
  }
  // Start the next window from the current merged counts.
  window_base_total_ = total;
  window_base_est_.clear();
  watched_.clear();
}

}  // namespace swish::nf
