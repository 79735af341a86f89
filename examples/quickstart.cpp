// Quickstart: a 3-switch SwiShmem deployment with one register of each class.
//
//   $ ./quickstart
//
// Walks through: declaring register spaces (SRO / ERO / EWO), installing a
// tiny NF, injecting packets, and reading the replicated state back — the
// "one big switch" abstraction in ~100 lines.
#include <iostream>

#include "swishmem/fabric.hpp"

using namespace swish;

namespace {

constexpr std::uint32_t kCounterSpace = 1;  // EWO G-counter: hits per service
constexpr std::uint32_t kConfigSpace = 2;   // SRO register: feature flag

// A toy NF: counts packets per destination port (weakly-consistent counter,
// updated on every packet) and consults a strongly-consistent feature flag.
class QuickstartNf : public shm::NfApp {
 public:
  void process(pisa::PacketContext& ctx, shm::ShmRuntime& rt) override {
    if (!ctx.parsed || !ctx.parsed->udp) return;

    // EWO: write-intensive state, updated on every packet, merged fabric-wide.
    rt.update(kCounterSpace, ctx.parsed->udp->dst_port % 16, 1);

    // SRO: read-intensive state, strongly consistent on every switch.
    std::uint64_t drop_flag = 0;
    if (rt.read(&ctx, kConfigSpace, 0, drop_flag) == shm::ReadStatus::kRedirected) {
      return;  // served by the chain tail; nothing more to do here
    }
    if (drop_flag == 1) return;  // feature flag says drop
    ctx.sw.deliver(std::move(ctx.packet));
  }
};

pkt::Packet make_packet(std::uint16_t dst_port) {
  pkt::PacketSpec spec;
  spec.ip_src = pkt::Ipv4Addr(192, 168, 0, 1);
  spec.ip_dst = pkt::Ipv4Addr(10, 0, 0, 1);
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = 1234;
  spec.dst_port = dst_port;
  spec.payload = {'h', 'i'};
  return pkt::build_packet(spec);
}

}  // namespace

int main() {
  // 1. Describe the deployment: 3 switches, full mesh, default link model.
  shm::FabricConfig cfg;
  cfg.num_switches = 3;

  shm::Fabric fabric(cfg);

  // 2. Declare the shared register spaces.
  shm::SpaceConfig counter;
  counter.id = kCounterSpace;
  counter.name = "hits";
  counter.cls = shm::ConsistencyClass::kEWO;
  counter.merge = shm::MergePolicy::kGCounter;
  counter.size = 16;
  fabric.add_space(counter);

  shm::SpaceConfig flag;
  flag.id = kConfigSpace;
  flag.name = "flags";
  flag.cls = shm::ConsistencyClass::kSRO;
  flag.size = 4;
  fabric.add_space(flag);

  // 3. Install the NF on every switch and start the control plane.
  fabric.install([] { return std::make_unique<QuickstartNf>(); });
  fabric.start();

  std::uint64_t delivered = 0;
  fabric.set_delivery_sink([&](const pkt::Packet&) { ++delivered; });

  // 4. Traffic: each switch sees a share of the packets.
  for (int i = 0; i < 30; ++i) {
    fabric.sw(i % 3).inject(make_packet(static_cast<std::uint16_t>(8000 + i % 4)));
  }
  fabric.run_for(100 * kMs);

  std::cout << "delivered " << delivered << "/30 packets\n\n";
  std::cout << "EWO counter (port-hash 0..3), read at each switch:\n";
  for (std::size_t s = 0; s < fabric.size(); ++s) {
    std::cout << "  switch " << s << ":";
    for (std::uint64_t k = 0; k < 4; ++k) {
      std::uint64_t count = 0;
      fabric.runtime(s).read(nullptr, kCounterSpace, k, count);
      std::cout << " " << count;
    }
    std::cout << '\n';
  }
  std::cout << "\nEvery switch returns identical counts: the counters were\n"
               "incremented locally at line rate and merged by the EWO protocol.\n\n";

  // 5. Flip the strongly-consistent flag via the SRO chain (from switch 2),
  //    then observe that all switches drop traffic.
  fabric.runtime(2).write({{kConfigSpace, 0, 1}}, pkt::Packet{}, nullptr);
  fabric.run_for(50 * kMs);
  const auto before = delivered;
  for (int i = 0; i < 10; ++i) fabric.sw(i % 3).inject(make_packet(8000));
  fabric.run_for(50 * kMs);
  std::cout << "after setting the SRO drop flag: " << (delivered - before)
            << "/10 packets delivered (expected 0)\n";
  return 0;
}
