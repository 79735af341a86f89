#include "swishmem/membership/swim_membership.hpp"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "swishmem/runtime.hpp"
#include "telemetry/records.hpp"

namespace swish::shm {
namespace {

constexpr TimeNs kPeriod = 10 * kMs;             ///< protocol period (one probe per tick)
constexpr TimeNs kPingTimeout = 2 * kMs;         ///< direct-ack wait before indirection
constexpr TimeNs kSuspicionTimeout = 40 * kMs;   ///< suspect -> faulty grace (refutation window)
constexpr std::size_t kIndirectProbes = 2;       ///< ping-req proxies per failed direct probe
constexpr std::size_t kGossipFanout = 3;         ///< piggybacked entries per message (floor)
constexpr unsigned kGossipTransmissions = 8;     ///< dissemination GC: sends per gossip entry

}  // namespace

// ---------------------------------------------------------------------------
// SwimMembership: the controller-side passive aggregator
// ---------------------------------------------------------------------------

void SwimMembership::start() {
  // No timers: the controller is out of the detection loop. The stamp only
  // dates the view for introspection.
  for (auto& [id, m] : view_.members) m.last_proof = sim_.now();
}

std::size_t SwimMembership::quorum() const noexcept {
  // Two independent observers, when the fabric is big enough to have two:
  // a single report is one switch's word against the subject's, and a
  // peer-partitioned switch with a live controller link produces exactly
  // such uncorroborated verdicts for every member of the fabric.
  return view_.members.size() >= 3 ? 2 : 1;
}

void SwimMembership::on_update(const pkt::MembershipUpdate& update) {
  // An evicted member loses its vote; without this, a switch committed to
  // faulty (say, the partitioned one) could keep evicting peers one by one
  // over whatever path its reports still travel.
  const MemberStatus* sender = view_.find(update.sender);
  if (sender != nullptr && sender->state == MemberState::kFaulty) return;
  for (const auto& e : update.entries) {
    if (static_cast<MemberState>(e.state) != MemberState::kFaulty) continue;
    if (e.member == update.sender) continue;  // nobody testifies to their own death
    auto it = view_.members.find(e.member);
    if (it == view_.members.end()) continue;
    MemberStatus& m = it->second;
    // Duplicate verdicts (several switches report the same failure, and each
    // report may be retransmitted) and stale ones from before a readmission
    // (ordered out by the incarnation bump in readmit()) are dropped here.
    if (m.state == MemberState::kFaulty || e.incarnation < m.incarnation) continue;
    PendingVerdict& pv = pending_[e.member];
    // Corroboration must be contemporaneous: a real failure produces a burst
    // of reports within one suspicion window, while independent false alarms
    // about the same member trickle in over the whole run. Letting those
    // accumulate indefinitely would eventually evict every member of a large
    // lossy fabric two coincidences at a time.
    constexpr TimeNs kVerdictFreshness = 500 * kMs;
    if (e.incarnation > pv.incarnation ||
        (!pv.reporters.empty() && sim_.now() - pv.first_report > kVerdictFreshness)) {
      pv.incarnation = e.incarnation;
      pv.reporters.clear();
    }
    if (pv.reporters.empty()) pv.first_report = sim_.now();
    pv.reporters.insert(update.sender);
    if (pv.reporters.size() < quorum()) continue;
    pending_.erase(e.member);
    m.incarnation = e.incarnation;
    transition(e.member, MemberState::kFaulty, static_cast<TimeNs>(e.evidence_ns));
  }
}

void SwimMembership::force_fail(SwitchId id) {
  pending_.erase(id);
  transition(id, MemberState::kFaulty, 0);
}

void SwimMembership::readmit(SwitchId id) {
  auto it = view_.members.find(id);
  if (it == view_.members.end()) return;
  pending_.erase(id);
  // The revived agent announces itself at (old incarnation + 1); requiring at
  // least that much here makes lingering pre-revival verdicts stale.
  it->second.incarnation += 1;
  MembershipService::readmit(id);
}

// ---------------------------------------------------------------------------
// SwimAgent: the per-switch detector
// ---------------------------------------------------------------------------

SwimAgent::SwimAgent(ShmRuntime& host, const std::vector<SwitchId>& peers)
    : host_(host), rng_(0x5717 ^ (host.self() * 0x9e3779b97f4a7c15ULL)) {
  for (SwitchId id : peers) {
    if (id == host_.self()) continue;
    peers_.emplace(id, Peer{});
    ring_.push_back(id);
  }
  // Start at the wrap so the first tick reshuffles with this agent's own rng.
  // Leaving the ring in construction (id) order would put every agent in
  // lockstep — all probing member k on tick k — so nobody reaches a victim in
  // the back half of the ring until half a round has elapsed, and then all
  // agents suspect it in the same period (gossip never gets a head start).
  ring_pos_ = ring_.size();
  telemetry::MetricsRegistry& reg = host_.sw().simulator().metrics();
  const std::string prefix = "membership.sw" + std::to_string(host_.self()) + ".";
  pings_sent_ = reg.counter(prefix + "pings_sent");
  acks_sent_ = reg.counter(prefix + "acks_sent");
  ping_reqs_sent_ = reg.counter(prefix + "ping_reqs_sent");
  suspicions_ = reg.counter(prefix + "suspicions");
  refutations_ = reg.counter(prefix + "refutations");
  faults_declared_ = reg.counter(prefix + "faults_declared");
  updates_sent_ = reg.counter(prefix + "updates_sent");
  bytes_ = reg.counter(prefix + "bytes");
}

void SwimAgent::start() {
  const TimeNs now = host_.sw().simulator().now();
  for (auto& [id, p] : peers_) p.last_proof = now;
  // The tick is a gated control-plane job: a failed switch's timer keeps
  // firing but does nothing, so the agent falls silent with the switch and
  // resumes (without rearming) after recover().
  tick_timer_ = host_.sw().control_plane().schedule_periodic(kPeriod, [this]() { tick(); });
}

void SwimAgent::reset() {
  // Refutation key: peers recorded at most the old incarnation, so one bump
  // makes the alive announcement override every lingering suspect/faulty
  // rumor about this switch.
  incarnation_ += 1;
  const TimeNs now = host_.sw().simulator().now();
  for (auto& [id, p] : peers_) {
    p.suspicion_timer.cancel();
    p.state = MemberState::kAlive;
    p.self_suspected = false;
    p.last_proof = now;
  }
  gossip_.clear();
  probe_target_ = kInvalidNode;
  probe_indirect_ = false;
  enqueue_gossip(pkt::MemberInfo{host_.self(), static_cast<std::uint8_t>(MemberState::kAlive),
                                 incarnation_, 0});
}

MemberState SwimAgent::peer_state(SwitchId id) const noexcept {
  auto it = peers_.find(id);
  return it == peers_.end() ? MemberState::kAlive : it->second.state;
}

void SwimAgent::tick() {
  // The previous probe normally resolves before the next tick (two timeout
  // rounds fit inside one period); under CP overload it may not — let the
  // outstanding chain finish rather than stacking probes.
  if (probe_target_ != kInvalidNode) return;
  SwitchId target = next_suspect_target();
  if (target == kInvalidNode) target = next_probe_target();
  if (target != kInvalidNode) probe(target);
}

SwitchId SwimAgent::next_suspect_target() {
  // Re-probe suspects ahead of the ring: a suspect's verdict is on a timer,
  // and the ring would not revisit it for a whole sweep. Direct contact both
  // clears this observer's suspicion and hands the rumor to the member
  // itself, whose incarnation-bump refutation then clears everyone else —
  // the difference between absorbing a link flap and committing it.
  std::vector<SwitchId> suspects;
  for (const auto& [id, p] : peers_) {
    if (p.state == MemberState::kSuspect && p.self_suspected) suspects.push_back(id);
  }
  if (suspects.empty()) return kInvalidNode;
  return suspects[suspect_rr_++ % suspects.size()];
}

SwitchId SwimAgent::next_probe_target() {
  for (std::size_t scanned = 0; scanned < ring_.size(); ++scanned) {
    if (ring_pos_ >= ring_.size()) {
      // Round-robin with reshuffle (the SWIM probe-order randomization): every
      // member is probed once per round, in an order that varies round to
      // round, bounding worst-case detection freshness.
      for (std::size_t i = ring_.size(); i > 1; --i) {
        std::swap(ring_[i - 1], ring_[rng_.next_below(i)]);
      }
      ring_pos_ = 0;
    }
    const SwitchId candidate = ring_[ring_pos_++];
    if (peers_.at(candidate).state != MemberState::kFaulty) return candidate;
  }
  return kInvalidNode;
}

void SwimAgent::probe(SwitchId target) {
  probe_target_ = target;
  probe_seq_ = next_seq_++;
  probe_indirect_ = false;
  probe_retried_ = false;
  send_ping(target);
}

void SwimAgent::send_ping(SwitchId target) {
  ++pings_sent_;
  send_msg(target, pkt::SwimPing{host_.self(), host_.self(), probe_seq_, incarnation_,
                                 take_gossip()});
  const std::uint64_t seq = probe_seq_;
  host_.sw().control_plane().schedule_after(
      kPingTimeout, [this, target, seq]() { on_probe_timeout(target, seq); });
}

void SwimAgent::on_probe_timeout(SwitchId target, std::uint64_t seq) {
  if (probe_target_ != target || probe_seq_ != seq || probe_indirect_) return;
  if (!probe_retried_) {
    // One direct retry before escalating: a single lost ping or ack is by far
    // the most common cause of a missed ack on a lossy link, and each false
    // escalation is a potential false rumor the whole fabric must refute.
    // The retry cuts the false-suspicion base rate ~5x for one timeout of
    // added latency on the (rare) real-failure path.
    probe_retried_ = true;
    send_ping(target);
    return;
  }
  const std::vector<SwitchId> proxies = pick_proxies(target);
  if (proxies.empty()) {
    // Nobody left to ask: treat the missed direct ack as the full verdict.
    probe_target_ = kInvalidNode;
    begin_suspicion(target);
    return;
  }
  probe_indirect_ = true;
  for (SwitchId proxy : proxies) {
    ++ping_reqs_sent_;
    send_msg(proxy, pkt::SwimPingReq{host_.self(), target, seq, take_gossip()});
  }
  host_.sw().control_plane().schedule_after(
      kPingTimeout, [this, target, seq]() { on_indirect_timeout(target, seq); });
}

void SwimAgent::on_indirect_timeout(SwitchId target, std::uint64_t seq) {
  if (probe_target_ != target || probe_seq_ != seq) return;
  probe_target_ = kInvalidNode;
  begin_suspicion(target);
}

void SwimAgent::begin_suspicion(SwitchId id) {
  Peer& p = peers_.at(id);
  if (p.state != MemberState::kAlive) return;
  const TimeNs silence = host_.sw().simulator().now() - p.last_proof;
  p.state = MemberState::kSuspect;
  p.self_suspected = true;
  ++suspicions_;
  trace("swim_suspect", id, static_cast<std::uint64_t>(silence));
  enqueue_gossip(pkt::MemberInfo{id, static_cast<std::uint8_t>(MemberState::kSuspect),
                                 p.incarnation, static_cast<std::uint64_t>(silence)});
  arm_suspicion_timer(id);
}

void SwimAgent::arm_suspicion_timer(SwitchId id) {
  Peer& p = peers_.at(id);
  const std::uint32_t inc = p.incarnation;
  // The window scales with log2(n) (the SWIM dissemination bound): a rumor
  // reaches the suspect and its refutation reaches every armed timer in
  // O(log n) gossip rounds, so a fixed window that is comfortable at 8
  // switches is a coin flip at 64.
  const TimeNs window =
      std::max(kSuspicionTimeout, kPeriod * static_cast<TimeNs>(std::bit_width(peers_.size())));
  p.suspicion_timer = host_.sw().control_plane().schedule_after(
      window, [this, id, inc]() {
        const Peer& q = peers_.at(id);
        // A refutation (alive at a newer incarnation) or direct contact lifted
        // the suspicion meanwhile; this timer is then a dead letter.
        if (q.state != MemberState::kSuspect || q.incarnation != inc) return;
        declare_faulty(id);
      });
}

void SwimAgent::declare_faulty(SwitchId id) {
  Peer& p = peers_.at(id);
  p.suspicion_timer.cancel();
  p.state = MemberState::kFaulty;
  ++faults_declared_;
  const TimeNs silence = host_.sw().simulator().now() - p.last_proof;
  trace("swim_faulty", id, static_cast<std::uint64_t>(silence));
  const pkt::MemberInfo info{id, static_cast<std::uint8_t>(MemberState::kFaulty), p.incarnation,
                             static_cast<std::uint64_t>(silence)};
  enqueue_gossip(info);
  report_to_controller(info);
}

void SwimAgent::report_to_controller(const pkt::MemberInfo& info) {
  if (host_.controller() == kInvalidNode) return;
  ++updates_sent_;
  send_msg(host_.controller(), pkt::MembershipUpdate{host_.self(), {info}});
}

void SwimAgent::on_ping(const pkt::SwimPing& msg) {
  refresh(msg.sender, msg.incarnation);
  apply_gossip(msg.gossip);
  ++acks_sent_;
  send_msg(msg.origin, pkt::SwimAck{host_.self(), msg.seq, incarnation_, take_gossip()});
}

void SwimAgent::on_ping_req(const pkt::SwimPingReq& msg) {
  refresh(msg.sender, 0);
  apply_gossip(msg.gossip);
  // Relay the probe with the requester as origin; the target acks straight
  // back to the origin, so the proxy holds no per-probe state.
  ++pings_sent_;
  send_msg(msg.target,
           pkt::SwimPing{host_.self(), msg.sender, msg.seq, incarnation_, take_gossip()});
}

void SwimAgent::on_ack(const pkt::SwimAck& msg) {
  refresh(msg.subject, msg.incarnation);
  apply_gossip(msg.gossip);
  if (probe_target_ == msg.subject && probe_seq_ == msg.seq) {
    probe_target_ = kInvalidNode;
    probe_indirect_ = false;
  }
}

void SwimAgent::on_update(const pkt::MembershipUpdate& msg) {
  // Switches normally never receive verdict feeds (they go to the
  // controller), but the entries are ordinary membership assertions.
  apply_gossip(msg.entries);
}

void SwimAgent::refresh(SwitchId id, std::uint32_t incarnation) {
  auto it = peers_.find(id);
  if (it == peers_.end()) return;
  Peer& p = it->second;
  const std::uint32_t before = p.incarnation;
  p.last_proof = host_.sw().simulator().now();
  if (incarnation > p.incarnation) p.incarnation = incarnation;
  if (p.state == MemberState::kSuspect) {
    // Direct contact is stronger evidence than the rumor: lift the local
    // suspicion immediately (the member's incarnation-bump refutation still
    // propagates to clear other observers).
    p.suspicion_timer.cancel();
    p.state = MemberState::kAlive;
    p.self_suspected = false;
    trace("swim_unsuspect", id);
  } else if (p.state == MemberState::kFaulty && incarnation > before) {
    // A committed fault is final for the old incarnation; a strictly newer
    // one is the member itself back from the dead (reset() bumped it).
    p.state = MemberState::kAlive;
    trace("swim_rejoin", id);
  }
}

void SwimAgent::apply_gossip(const std::vector<pkt::MemberInfo>& entries) {
  const TimeNs now = host_.sw().simulator().now();
  for (const auto& e : entries) {
    const auto state = static_cast<MemberState>(e.state);
    if (e.member == host_.self()) {
      // A rumor about myself: refute anything non-alive by outliving its
      // incarnation (the only party allowed to bump it is the member itself).
      if (state != MemberState::kAlive) {
        if (e.incarnation >= incarnation_) {
          incarnation_ = e.incarnation + 1;
          ++refutations_;
          trace("swim_refute", incarnation_);
        }
        // Re-arm the refutation's budget even when the rumor is stale: each
        // agent that believes a rumor re-seeds it with a fresh transmission
        // budget, so a one-shot refutation dies out of circulation while the
        // rumor it answers keeps spreading. The antidote must renew exactly
        // as long as the disease does.
        enqueue_gossip(pkt::MemberInfo{host_.self(),
                                       static_cast<std::uint8_t>(MemberState::kAlive),
                                       incarnation_, 0});
      }
      continue;
    }
    auto it = peers_.find(e.member);
    if (it == peers_.end()) continue;
    Peer& p = it->second;
    // A rumor already overtaken by the member's refutation: answer it with
    // the newer alive assertion instead of dropping it silently, so the
    // antidote circulates wherever stale copies of the rumor still do.
    if (state != MemberState::kAlive && e.incarnation < p.incarnation &&
        p.state == MemberState::kAlive) {
      enqueue_gossip(pkt::MemberInfo{e.member, static_cast<std::uint8_t>(MemberState::kAlive),
                                     p.incarnation, 0});
      continue;
    }
    switch (state) {
      case MemberState::kFaulty:
        if (p.state == MemberState::kFaulty || e.incarnation < p.incarnation) break;
        p.incarnation = e.incarnation;
        p.suspicion_timer.cancel();
        p.state = MemberState::kFaulty;
        trace("swim_faulty", e.member, e.evidence_ns);
        enqueue_gossip(e);
        // Every learner reports too: the controller link is lossy, so verdict
        // delivery rides on redundancy (the controller dedups).
        report_to_controller(e);
        break;
      case MemberState::kSuspect:
        if (e.incarnation < p.incarnation) break;
        p.incarnation = e.incarnation;
        if (p.state == MemberState::kAlive) {
          p.state = MemberState::kSuspect;
          p.self_suspected = false;
          ++suspicions_;
          trace("swim_suspect", e.member, e.evidence_ns);
          enqueue_gossip(e);
          arm_suspicion_timer(e.member);
        }
        break;
      case MemberState::kAlive:
        if (e.incarnation <= p.incarnation) break;
        p.incarnation = e.incarnation;
        if (p.state != MemberState::kAlive) {
          p.suspicion_timer.cancel();
          p.state = MemberState::kAlive;
          p.self_suspected = false;
          p.last_proof = now;
          trace("swim_rejoin", e.member);
        }
        enqueue_gossip(e);  // refutations spread like any other assertion
        break;
    }
  }
}

void SwimAgent::enqueue_gossip(const pkt::MemberInfo& info) {
  // Latest wins: a newer assertion about a member replaces the queued one
  // (its transmission budget restarts — it is new information).
  for (auto it = gossip_.begin(); it != gossip_.end(); ++it) {
    if (it->info.member == info.member) {
      gossip_.erase(it);
      break;
    }
  }
  gossip_.push_back(GossipItem{info, kGossipTransmissions});
}

std::size_t SwimAgent::gossip_fanout() const {
  // The fixed fanout is a floor; the piggyback capacity must grow with
  // log(n) or concurrent rumors at scale starve each other of slots.
  return std::max<std::size_t>(kGossipFanout, std::bit_width(peers_.size()));
}

std::vector<pkt::MemberInfo> SwimAgent::take_gossip() {
  std::vector<pkt::MemberInfo> out;
  const std::size_t n = std::min<std::size_t>(gossip_.size(), gossip_fanout());
  if (n == 0) return out;
  // Freshest-first piggybacking: the least-transmitted entries win the slots.
  // A plain FIFO rotation starves exactly the entries racing a timer — an
  // incarnation refutation must overtake the suspicion that armed it across
  // the whole fabric, not wait its turn behind a queue of stale rumors.
  std::stable_sort(gossip_.begin(), gossip_.end(), [](const GossipItem& a, const GossipItem& b) {
    return a.sends_left > b.sends_left;
  });
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    GossipItem item = std::move(gossip_.front());
    gossip_.pop_front();
    out.push_back(item.info);
    // Spent entries are GCed; the rest re-queue with a smaller budget and
    // naturally yield the front to newer information next time.
    if (--item.sends_left > 0) gossip_.push_back(std::move(item));
  }
  return out;
}

std::vector<SwitchId> SwimAgent::pick_proxies(SwitchId exclude) {
  std::vector<SwitchId> candidates;
  for (const auto& [id, p] : peers_) {
    if (id != exclude && p.state == MemberState::kAlive) candidates.push_back(id);
  }
  const std::size_t k = std::min(candidates.size(), kIndirectProbes);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng_.next_below(candidates.size() - i));
    std::swap(candidates[i], candidates[j]);
  }
  candidates.resize(k);
  return candidates;
}

void SwimAgent::send_msg(SwitchId dst, const pkt::SwishMessage& msg) {
  bytes_ += host_.send_control(dst, msg);
}

void SwimAgent::trace(const char* what, std::uint64_t a, std::uint64_t b) {
  host_.sw().simulator().records().trace(telemetry::kTraceMembership, host_.self(), what, a, b);
}

}  // namespace swish::shm
