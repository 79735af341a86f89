#include "swishmem/fabric.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/partition.hpp"

namespace swish::shm {
namespace {

/// Transit spines forward everything by destination IP — they run no NF.
class TransitProgram : public pisa::PipelineProgram {
 public:
  void process(pisa::PacketContext& ctx) override {
    if (!ctx.parsed || !ctx.parsed->ipv4) return;
    // Destination node id is encoded in the management IP (net::node_ip).
    const NodeId dst = ctx.parsed->ipv4->dst.value() & 0x00ffffff;
    ctx.sw.send_to_node(dst, std::move(ctx.packet),
                        pkt::FlowKey::from(*ctx.parsed).hash(), ctx.recirc_count);
  }
};

constexpr NodeId kControllerId = 1000;
constexpr NodeId kSpineBase = 2000;

/// Per-switch clock skew bound: switch i gets an offset in [0, bound] (§6.2
/// cites data-plane time sync within tens of ns).
constexpr TimeNs kClockSkewBound = 50;

std::size_t validated_shards(const FabricConfig& c) {
  if (c.shards == 0) throw std::invalid_argument("Fabric: shard count must be >= 1");
  if (c.num_switches != 0 && c.shards > c.num_switches) {
    throw std::invalid_argument("Fabric: more shards than switches");
  }
  return c.shards;
}

}  // namespace

Fabric::Fabric(FabricConfig config)
    : config_(config), shards_(validated_shards(config_)), net_(shards_, config.seed) {
  if (config_.num_switches == 0) throw std::invalid_argument("Fabric: need >= 1 switch");
  if (config_.topology == FabricConfig::Topology::kLeafSpine && config_.spine_count == 0) {
    throw std::invalid_argument("Fabric: a leaf-spine fabric needs >= 1 spine");
  }

  // Partition before any node exists: Switch constructors capture their
  // shard's simulator, and connect() derives the conservative lookahead from
  // endpoints that already know their shards.
  const std::size_t spine_n =
      config_.topology == FabricConfig::Topology::kLeafSpine ? config_.spine_count : 0;
  const net::PartitionPlan plan =
      net::plan_partition(config_.num_switches, spine_n, shards_.count());
  for (std::size_t i = 0; i < config_.num_switches; ++i) {
    shards_.assign(static_cast<NodeId>(i + 1), plan.leaf_shard[i]);
  }
  for (std::size_t s = 0; s < spine_n; ++s) {
    shards_.assign(static_cast<NodeId>(kSpineBase + s), plan.extra_shard[s]);
  }
  shards_.assign(kControllerId, 0);

  // Packet-layer stats are process-global (the buffer/parse cache has no
  // simulator handle); surface them in shard 0's registry as pull probes so
  // JSON/table exports include them. In-process determinism tests reset
  // PacketStats::global() between runs.
  telemetry::MetricsRegistry& reg = shards_.sim(0).metrics();
  reg.probe("pkt.buffers_created",
            []() -> std::uint64_t { return pkt::PacketStats::global().buffers_created; });
  reg.probe("pkt.buffer_bytes",
            []() -> std::uint64_t { return pkt::PacketStats::global().buffer_bytes; });
  reg.probe("pkt.parse_executions",
            []() -> std::uint64_t { return pkt::PacketStats::global().parse_executions; });
  reg.probe("pkt.parse_cache_hits",
            []() -> std::uint64_t { return pkt::PacketStats::global().parse_cache_hits; });
  reg.probe("pkt.rewrite_copies",
            []() -> std::uint64_t { return pkt::PacketStats::global().rewrite_copies; });
  reg.probe("pkt.rewrite_bytes",
            []() -> std::uint64_t { return pkt::PacketStats::global().rewrite_bytes; });

  for (std::size_t i = 0; i < config_.num_switches; ++i) {
    const auto id = static_cast<NodeId>(i + 1);
    switches_.push_back(
        std::make_unique<pisa::Switch>(shards_.sim_for(id), net_, id, config_.switch_config));
    ids_.push_back(id);
    net_.attach(*switches_.back());
  }

  switch (config_.topology) {
    case FabricConfig::Topology::kFullMesh:
      net::connect_full_mesh(net_, ids_, config_.link);
      break;
    case FabricConfig::Topology::kChain:
      net::connect_chain(net_, ids_, config_.link);
      break;
    case FabricConfig::Topology::kLeafSpine: {
      std::vector<NodeId> spine_ids;
      for (std::size_t s = 0; s < config_.spine_count; ++s) {
        const auto id = static_cast<NodeId>(kSpineBase + s);
        spines_.push_back(
            std::make_unique<pisa::Switch>(shards_.sim_for(id), net_, id, config_.switch_config));
        net_.attach(*spines_.back());
        spines_.back()->install_program(std::make_unique<TransitProgram>());
        spine_ids.push_back(id);
      }
      net::connect_leaf_spine(net_, ids_, spine_ids, config_.link);
      break;
    }
  }

  controller_ = std::make_unique<Controller>(shards_, net_, kControllerId, config_.controller);
  net_.attach(*controller_);
  // The controller has a (lossy, in-band) link to every switch, so losing any
  // one switch cannot partition it from the rest of the fabric — standard
  // management connectivity for SDN controllers.
  for (NodeId id : ids_) net_.connect(kControllerId, id, config_.link);
}

void Fabric::add_space(const SpaceConfig& space, std::vector<SwitchId> replicas) {
  if (installed_) throw std::logic_error("Fabric::add_space after install()");
  spaces_.emplace_back(space, std::move(replicas));
}

void Fabric::install(const std::function<std::unique_ptr<NfApp>()>& nf_factory) {
  if (installed_) throw std::logic_error("Fabric::install called twice");
  installed_ = true;
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    pisa::Switch& sw = *switches_[i];
    RuntimeConfig rc = config_.runtime;
    // Deterministic spread of clock offsets across [0, bound].
    rc.clock_offset = static_cast<TimeNs>(
        (static_cast<std::uint64_t>(kClockSkewBound) * (i + 1)) / switches_.size());
    runtimes_.push_back(std::make_unique<ShmRuntime>(sw, rc, kControllerId));
    // Under SWIM every switch watches the whole deployment; without peers a
    // runtime beacons heartbeats to the controller instead.
    if (config_.controller.membership == MembershipProtocol::kSwim) {
      runtimes_.back()->set_membership_peers(ids_);
    }
    controller_->register_switch(sw, *runtimes_.back());
  }
  // The directory places every space; a switch outside a space's replica
  // set reaches it remotely.
  for (const auto& [space, replicas] : spaces_) controller_->register_space(space, replicas);
  for (std::size_t i = 0; i < switches_.size(); ++i) {
    pisa::Switch& sw = *switches_[i];
    ShmRuntime& rt = *runtimes_[i];
    for (const auto& entry : spaces_) {
      const SpaceConfig& space = entry.first;
      const std::vector<SwitchId>& replicas = *controller_->space_replicas(space.id);
      if (std::find(replicas.begin(), replicas.end(), sw.id()) != replicas.end()) {
        rt.add_space(space, replicas);
      } else {
        rt.add_remote_space(space);
      }
    }
    auto nf = nf_factory ? nf_factory() : nullptr;
    if (nf) nf->setup(sw, rt);
    sw.install_program(std::make_unique<ShmProgram>(rt, std::move(nf)));
  }
}

void Fabric::start() {
  if (!installed_) throw std::logic_error("Fabric::start before install()");
  controller_->bootstrap();
  controller_->start();
  for (auto& rt : runtimes_) rt->start();
  // Spines route by the same tables as leaves.
  auto tables = net::compute_routes(net_, {}, /*no_transit=*/{controller_->id()});
  for (auto& spine : spines_) spine->set_routing(std::move(tables[spine->id()]));
}

void Fabric::set_delivery_sink(std::function<void(const pkt::Packet&)> sink) {
  for (auto& sw : switches_) sw->set_delivery_sink(sink);
}

void Fabric::revive_switch(std::size_t i) {
  pisa::Switch& sw = *switches_.at(i);
  sw.recover();
  runtimes_.at(i)->reset_state();
  controller_->readmit_switch(sw.id());
}

void Fabric::inject(std::size_t i, pkt::Packet packet) {
  pisa::Switch& sw = *switches_.at(i);
  if (shards_.count() == 1 || shards_.shard_of(sw.id()) == 0) {
    sw.inject(std::move(packet));
    return;
  }
  // The injected packet is exclusively owned, so no parse pre-warm is needed;
  // the +lookahead skew is the price of conservatism and is uniform across
  // all cross-shard switches (workload generators account for it).
  pisa::Switch* swp = &sw;
  shards_.post_at_node(sw.id(), shards_.sim(0).now() + shards_.lookahead(),
                       [swp, p = std::move(packet)]() mutable { swp->inject(std::move(p)); });
}

void Fabric::schedule_kill(std::size_t i, TimeNs at) {
  pisa::Switch* sw = switches_.at(i).get();
  shards_.sim_for(sw->id()).schedule_at(at, [sw]() { sw->fail(); });
}

void Fabric::schedule_revive(std::size_t i, TimeNs at) {
  if (!installed_) throw std::logic_error("Fabric::schedule_revive before install()");
  if (shards_.count() == 1) {
    shards_.sim(0).schedule_at(at, [this, i]() { revive_switch(i); });
    return;
  }
  // Sharded split: the local flip + state reset run where the switch lives;
  // re-admission runs on the controller's shard at the same virtual time.
  // Ordering matches the one-shard path because the controller's first
  // effect on the revived switch is a management RPC >= mgmt_latency later.
  pisa::Switch* sw = switches_.at(i).get();
  ShmRuntime* rt = runtimes_.at(i).get();
  shards_.sim_for(sw->id()).schedule_at(at, [sw, rt]() {
    sw->recover();
    rt->reset_state();
  });
  shards_.sim(0).schedule_at(at, [this, sw]() { controller_->readmit_switch(sw->id()); });
}

void Fabric::enable_spans(std::uint64_t sample_every, std::size_t max_spans) {
  for (std::size_t k = 0; k < shards_.count(); ++k) {
    shards_.sim(k).spans().enable(sample_every, max_spans);
  }
}

void Fabric::enable_trace(std::uint32_t mask) {
  for (std::size_t k = 0; k < shards_.count(); ++k) shards_.sim(k).records().enable_trace(mask);
}

telemetry::Records Fabric::all_records() const {
  telemetry::Records out;
  for (std::size_t k = 0; k < shards_.count(); ++k) shards_.sim(k).records().collect(out);
  out.sort_canonical();
  return out;
}

void Fabric::enable_observatory() {
  shards_.enable_observatory();
  if (shards_.count() > 1) {
    // Space declarations made at install() time went to per-shard instances
    // that were not yet in log mode; re-declare every space on the master so
    // its metric cells bind regardless of enable ordering.
    for (const auto& [space, replicas] : spaces_) {
      shards_.observatory().register_space(space.id, space.name, to_string(space.cls));
    }
  }
}

}  // namespace swish::shm
