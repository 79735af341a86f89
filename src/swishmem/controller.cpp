#include "swishmem/controller.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/routing.hpp"
#include "packet/swish_wire.hpp"
#include "swishmem/membership/heartbeat_membership.hpp"
#include "swishmem/membership/swim_membership.hpp"

namespace swish::shm {
namespace {

bool contains(const std::vector<SwitchId>& ids, SwitchId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

std::unique_ptr<MembershipService> make_membership(sim::Simulator& sim,
                                                   const Controller::Config& config) {
  switch (config.membership) {
    case MembershipProtocol::kSwim:
      return std::make_unique<SwimMembership>(sim);
    case MembershipProtocol::kHeartbeat:
      break;
  }
  return std::make_unique<HeartbeatMembership>(
      sim, HeartbeatMembership::Config{config.heartbeat_timeout, config.check_period});
}

}  // namespace

// A detector whose scan can never observe its own timeout is a configuration
// bug, not a runtime condition — reject it before anything is constructed.
void Controller::Config::validate() const {
  if (check_period <= 0) {
    throw std::invalid_argument("controller check_period must be positive");
  }
  if (heartbeat_timeout <= 0) {
    throw std::invalid_argument("controller heartbeat_timeout must be positive");
  }
  if (heartbeat_timeout <= check_period) {
    throw std::invalid_argument(
        "controller heartbeat_timeout must exceed check_period (the scan would "
        "fire a false positive on its first pass)");
  }
}

Controller::Controller(sim::ShardSet& shards, net::Network& network, NodeId id, Config config)
    : net::Node(id), shards_(shards), sim_(shards.sim(0)), network_(network), config_(config) {
  config_.validate();
  membership_ = make_membership(sim_, config_);
  membership_->on_membership_change = [this](SwitchId sw, MemberState state,
                                             TimeNs detection_ns) {
    if (state == MemberState::kFaulty) handle_failure(sw, detection_ns);
  };
  failures_detected_ = sim_.metrics().counter("membership.failures_detected");
  detection_ns_ = sim_.metrics().histogram("failover.detection_ns");
  repair_ns_ = sim_.metrics().histogram("failover.repair_ns");
}

void Controller::post_to_node(NodeId node, TimeNs delay, sim::EventFn fn) {
  // Cross-shard delays are widened to the lookahead by the shard set; the
  // management latency (hundreds of µs) dominates any realistic lookahead,
  // so the widening never actually changes a timestamp here.
  shards_.post_after_node(node, delay, std::move(fn));
}

std::function<void()> Controller::to_controller(std::function<void()> fn) {
  if (!sharded()) return fn;
  sim::ShardSet* shards = &shards_;
  const NodeId me = id();
  return [shards, me, f = std::move(fn)]() { shards->post_after_node(me, 0, f); };
}

void Controller::register_switch(pisa::Switch& sw, ShmRuntime& runtime) {
  members_[sw.id()] = Member{&sw, &runtime};
  membership_->add_member(sw.id());
}

void Controller::bootstrap() {
  joined_.clear();
  for (const auto& [id, m] : members_) joined_.push_back(id);
  for (auto& [space, entry] : directory_) entry.placement.members = live(entry.replicas);
  push(/*immediate=*/true);
}

void Controller::register_space(const SpaceConfig& config, std::vector<SwitchId> replicas) {
  if (replicas.empty()) {
    for (const auto& [id, m] : members_) replicas.push_back(id);
  }
  directory_[config.id] = SpaceEntry{config, std::move(replicas), {}};
}

const std::vector<SwitchId>* Controller::space_replicas(std::uint32_t space) const {
  auto it = directory_.find(space);
  return it == directory_.end() ? nullptr : &it->second.replicas;
}

const Placement* Controller::placement(std::uint32_t space) const {
  auto it = directory_.find(space);
  return it == directory_.end() ? nullptr : &it->second.placement;
}

std::vector<SwitchId> Controller::live(const std::vector<SwitchId>& replicas) const {
  std::vector<SwitchId> out;
  for (SwitchId id : replicas) {
    if (members_.find(id) != members_.end() && usable(id)) out.push_back(id);
  }
  return out;
}

void Controller::run_streams(std::vector<Stream> streams, TimeNs delay,
                             std::function<void()> done) {
  if (streams.empty()) {
    done();
    return;
  }
  const Stream stream = streams.front();
  streams.erase(streams.begin());
  // The stream runs on the donor's shard; its completion hops back here
  // before the next stream (or `done`) touches controller state. Each
  // completion owns the rest of the plan, so nothing outlives the last one.
  auto next = to_controller([this, rest = std::move(streams), done = std::move(done)]() {
    run_streams(rest, 0, done);
  });
  ShmRuntime* donor = members_.at(stream.donor).runtime;
  post_to_node(stream.donor, delay, [donor, stream, next = std::move(next)]() {
    donor->start_recovery_stream(stream.target, next, stream.space);
  });
}

void Controller::migrate_space(std::uint32_t space, std::vector<SwitchId> new_replicas,
                               std::function<void(TimeNs)> done) {
  auto it = directory_.find(space);
  if (it == directory_.end()) throw std::invalid_argument("migrate_space: unregistered space");
  SpaceEntry& entry = it->second;
  if (!chain_class(entry.config.cls)) {
    throw std::invalid_argument(std::string("migrate_space: ") + to_string(entry.config.cls) +
                                " spaces span every switch");
  }
  sim_.records().trace(telemetry::kTraceMigration, id(), "migrate_space_start", space,
                       new_replicas.size());

  // New members need storage before the stream arrives.
  std::vector<SwitchId> joiners;
  for (SwitchId id : new_replicas) {
    if (!contains(entry.replicas, id)) {
      joiners.push_back(id);
      ShmRuntime* rt = members_.at(id).runtime;
      post_to_node(id, config_.mgmt_latency,
                   [rt, config = entry.config, new_replicas]() {
                     rt->add_space(config, new_replicas);
                   });
    }
  }

  auto finish = [this, space, new_replicas, joiners, done]() {
    SpaceEntry& e = directory_.at(space);
    e.replicas = new_replicas;
    e.placement.members = live(new_replicas);
    push(/*immediate=*/false, space, joiners);
    sim_.records().trace(telemetry::kTraceMigration, id(), "migrate_space_done", space,
                         e.placement.epoch);
    if (done) {
      sim_.post_after(config_.mgmt_latency, [this, done]() { done(sim_.now()); });
    }
  };

  // Donor: the space's live tail. Each joiner gets its own stream from it,
  // one after another.
  if (entry.placement.members.empty() || joiners.empty()) {
    // Pure shrink (or nothing to copy from): just switch the chain over.
    sim_.post_after(config_.mgmt_latency, finish);
    return;
  }
  std::vector<Stream> streams;
  for (SwitchId target : joiners) {
    streams.push_back({entry.placement.members.back(), target, space});
  }
  run_streams(std::move(streams), 2 * config_.mgmt_latency, finish);
}

void Controller::start() { membership_->start(); }

void Controller::handle_packet(pkt::Packet packet, net::PortId) {
  const pkt::ParsedPacket* parsed = packet.parsed();
  if (!parsed || !parsed->udp || parsed->udp->dst_port != pkt::kSwishPort) return;
  auto msg = pkt::decode_message(packet.l4_payload(*parsed));
  if (!msg) return;
  if (const auto* hb = std::get_if<pkt::Heartbeat>(&*msg)) {
    membership_->on_heartbeat(*hb);
  } else if (const auto* mu = std::get_if<pkt::MembershipUpdate>(&*msg)) {
    membership_->on_update(*mu);
  }
}

void Controller::declare_failed(SwitchId id) { membership_->force_fail(id); }

void Controller::handle_failure(SwitchId failed, TimeNs detection_ns) {
  sim_.records().trace(telemetry::kTraceFailover, id(), "switch_failed", failed);
  ++failures_detected_;
  detection_ns_.add(static_cast<std::uint64_t>(detection_ns));
  if (on_failure_detected) on_failure_detected(failed, sim_.now());

  std::erase(joined_, failed);
  for (auto& [space, entry] : directory_) std::erase(entry.placement.members, failed);
  push(/*immediate=*/false);

  const TimeNs detected_at = sim_.now();
  sim_.post_after(config_.mgmt_latency, [this, failed, detected_at]() {
    sim_.records().trace(telemetry::kTraceFailover, id(), "failover_complete", failed);
    repair_ns_.add(static_cast<std::uint64_t>(sim_.now() - detected_at));
    if (on_failover_complete) on_failover_complete(failed, sim_.now());
  });
}

void Controller::readmit_switch(SwitchId id) {
  const MemberStatus* status = membership_->view().find(id);
  if (status == nullptr) return;
  // A revive wipes the switch's state even when it beats failure detection:
  // fail it first, so it leaves every placement, then readmit it as usual.
  if (status->state != MemberState::kFaulty) declare_failed(id);
  sim_.records().trace(telemetry::kTraceFailover, this->id(), "readmit_switch", id);
  membership_->readmit(id);

  // The rejoiner is appended last to each space declaring it: at once for
  // EWO/OWN/kCON (sync, backup flushes and repair restore its state, §6.3),
  // and for SRO/ERO only by the join push below.
  const auto join = [this, id](bool chains) {
    for (auto& [space, entry] : directory_) {
      if (chain_class(entry.config.cls) == chains && contains(entry.replicas, id) &&
          !contains(entry.placement.members, id)) {
        entry.placement.members.push_back(id);
      }
    }
  };
  join(/*chains=*/false);
  push(/*immediate=*/false);

  if (joined_.empty()) {
    if (on_recovery_complete) {
      sim_.post_after(config_.mgmt_latency, [this, id]() {
        on_recovery_complete(id, sim_.now());
      });
    }
    return;
  }

  // SRO/ERO: the last switch to join streams its snapshot (plus tapped live
  // commits) to the newcomer, and a space whose live tail is another switch
  // streams from that tail; only then does the newcomer join each chain — as
  // the new tail (§6.3).
  std::vector<Stream> streams{{joined_.back(), id, std::nullopt}};
  for (const auto& [space, entry] : directory_) {
    const auto& members = entry.placement.members;
    if (chain_class(entry.config.cls) && contains(entry.replicas, id) && !members.empty() &&
        members.back() != joined_.back()) {
      streams.push_back({members.back(), id, space});
    }
  }
  run_streams(std::move(streams), config_.mgmt_latency, [this, id, join]() {
    joined_.push_back(id);
    join(/*chains=*/true);
    push(/*immediate=*/false, std::nullopt, {id});
    if (on_recovery_complete) {
      sim_.post_after(config_.mgmt_latency, [this, id]() {
        on_recovery_complete(id, sim_.now());
      });
    }
  });
}

std::vector<NodeId> Controller::failed_nodes() const {
  std::vector<NodeId> failed;
  for (const auto& [id, status] : membership_->view().members) {
    if (status.state == MemberState::kFaulty) failed.push_back(id);
  }
  return failed;
}

void Controller::push(bool immediate, std::optional<std::uint32_t> only,
                      std::vector<SwitchId> joined) {
  const std::uint32_t epoch = next_epoch_++;
  PlacementTable table;
  for (auto& [space, entry] : directory_) {
    if (only && space != *only) continue;
    entry.placement.epoch = epoch;
    table.emplace(space, entry.placement);
  }
  std::unordered_map<NodeId, net::RoutingTable> routes;
  if (!only) routes = net::compute_routes(network_, failed_nodes(), /*no_transit=*/{id()});
  for (auto& [id, m] : members_) {
    if (!usable(id)) continue;
    Member* member = &m;
    std::optional<net::RoutingTable> routing;
    if (!only) routing = std::move(routes[id]);
    auto apply = [member, table, joined, routing = std::move(routing)]() mutable {
      // Routes first: engines reacting to the new placements (a kCON
      // election, OWN claim flushes) send over them.
      if (routing) member->sw->set_routing(std::move(*routing));
      member->runtime->install_placements(table);
      for (SwitchId target : joined) member->runtime->end_recovery_stream(target);
    };
    if (immediate) {
      apply();
    } else {
      post_to_node(id, config_.mgmt_latency, std::move(apply));
    }
  }
}

}  // namespace swish::shm
