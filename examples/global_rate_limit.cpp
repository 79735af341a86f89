// Global per-user rate limiting (§3.2's motivating example): a user spreads
// traffic across all switches to stay under any one switch's radar. Shared
// EWO counters aggregate the user's fabric-wide usage and throttle them;
// purely local counters would not.
//
//   $ ./global_rate_limit
#include <iostream>

#include "common/table.hpp"
#include "nf/ratelimiter.hpp"
#include "swishmem/fabric.hpp"

using namespace swish;

namespace {

pkt::Packet user_packet(pkt::Ipv4Addr user, std::size_t bytes) {
  pkt::PacketSpec spec;
  spec.ip_src = user;
  spec.ip_dst = pkt::Ipv4Addr(10, 0, 0, 1);
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = 1000;
  spec.dst_port = 80;
  spec.payload.assign(bytes, 0x42);
  return pkt::build_packet(spec);
}

}  // namespace

int main() {
  shm::FabricConfig cfg;
  cfg.num_switches = 4;
  cfg.runtime.sync_period = 500 * kUs;

  shm::Fabric fabric(cfg);
  fabric.add_space(nf::RateLimiterApp::space());

  nf::RateLimiterApp::Config rcfg;
  rcfg.bytes_per_window = 50 * 1024;  // 50 KB per window, fabric-wide
  rcfg.window = 50 * kMs;

  std::vector<nf::RateLimiterApp*> apps;
  fabric.install([&] {
    auto app = std::make_unique<nf::RateLimiterApp>(rcfg);
    apps.push_back(app.get());
    return app;
  });
  fabric.start();

  // Heavy user: ~1 KB packets, round-robin over all 4 switches, ~25 KB per
  // switch per window — under the limit at each switch, 2x over in aggregate.
  // Light user: well under the limit.
  const pkt::Ipv4Addr heavy{50, 0, 0, 1};
  const pkt::Ipv4Addr light{50, 0, 0, 2};
  int step = 0;
  fabric.simulator().schedule_periodic(500 * kUs, [&] {
    fabric.sw(step % 4).inject(user_packet(heavy, 1000));
    if (step % 10 == 0) fabric.sw(step % 4).inject(user_packet(light, 200));
    ++step;
  });
  fabric.run_for(300 * kMs);

  TextTable table("Global rate limiter: 50 KB/window budget, user spread over 4 switches");
  table.header({"switch", "passed", "dropped (limited)"});
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    dropped += apps[i]->stats().dropped_limited;
    table.row({std::to_string(i), std::to_string(apps[i]->stats().passed),
               std::to_string(apps[i]->stats().dropped_limited)});
  }
  table.print(std::cout);

  std::uint64_t heavy_bytes = 0;
  fabric.runtime(0).read(nullptr, nf::kRateLimiterSpace, apps[0]->user_slot(heavy), heavy_bytes);
  std::cout << "\nheavy user's aggregated bytes (read at switch 0): " << heavy_bytes << '\n';
  std::cout << "packets dropped across the fabric: " << dropped << '\n';
  std::cout << "\nEach switch saw only ~25 KB/window from this user — below the\n"
               "limit — yet the shared counter exposed the 100 KB aggregate and\n"
               "the limiter engaged on every switch.\n";
  return 0;
}
