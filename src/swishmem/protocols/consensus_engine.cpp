#include "swishmem/protocols/consensus_engine.hpp"

#include <algorithm>

namespace swish::shm {
namespace {

/// Slots a coordinator re-sends per lagging replica per repair tick. Bounds
/// the burst when back-filling a freshly revived (empty) replica.
constexpr std::size_t kRepairChunk = 64;

/// Ballot = (placement epoch << 32) | (coordinator id + 1): monotone across
/// epochs, unique per coordinator, and never 0 (0 is the "nothing promised"
/// floor). The low half names the ballot's owner for reply routing.
std::uint64_t make_ballot(std::uint32_t epoch, SwitchId self) noexcept {
  return (static_cast<std::uint64_t>(epoch) << 32) | (static_cast<std::uint64_t>(self) + 1);
}

SwitchId ballot_owner(std::uint64_t ballot) noexcept {
  return static_cast<SwitchId>((ballot & 0xffffffffULL) - 1);
}

}  // namespace

ConsensusEngine::ConsensusEngine(EngineHost& host) : ProtocolEngine(host) {
  telemetry::MetricsRegistry& reg = host_metrics();
  const std::string p = metric_prefix("con");
  stats_.writes_submitted = reg.counter(p + "writes_submitted");
  stats_.writes_committed = reg.counter(p + "writes_committed");
  stats_.writes_failed = reg.counter(p + "writes_failed");
  stats_.writes_rejected = reg.counter(p + "writes_rejected");
  stats_.forwards_sent = reg.counter(p + "forwards_sent");
  stats_.forward_retries = reg.counter(p + "forward_retries");
  stats_.accepts_seen = reg.counter(p + "accepts_seen");
  stats_.stale_ballot_drops = reg.counter(p + "stale_ballot_drops");
  stats_.slots_applied = reg.counter(p + "slots_applied");
  stats_.repair_resends = reg.counter(p + "repair_resends");
  stats_.lease_renewals = reg.counter(p + "lease_renewals");
  stats_.elections_started = reg.counter(p + "elections_started");
  stats_.elections_completed = reg.counter(p + "elections_completed");
  stats_.reads_local = reg.counter(p + "reads_local");
  stats_.reads_redirected = reg.counter(p + "reads_redirected");
  stats_.bytes = reg.counter(p + "bytes");
  stats_.commit_latency = reg.histogram(p + "commit_latency_ns");
}

void ConsensusEngine::add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas) {
  (void)replicas;  // the acceptor set comes from the spaces' placement
  spaces_.emplace(config.id, std::make_unique<SroSpaceState>(host_.sw(), config));
}

bool ConsensusEngine::hosts_space(std::uint32_t space) const noexcept {
  return spaces_.contains(space);
}

const SroSpaceState* ConsensusEngine::space_state(std::uint32_t id) const {
  auto it = spaces_.find(id);
  return it == spaces_.end() ? nullptr : it->second.get();
}

void ConsensusEngine::start() {
  // The bootstrap push already ran the first election (on_config_update);
  // the repair tick re-drives any prepare it lost.
  host_.every(host_.config().con_retry_timeout, [this]() { repair_tick(); });
}

void ConsensusEngine::reset() {
  for (auto& [id, sp] : spaces_) sp->reset(host_.sw().control_plane().token());
  for (auto& [id, pw] : pending_writes_) pw.retry_timer.cancel();
  pending_writes_.clear();
  log_.clear();
  progress_.clear();
  promises_.clear();
  peer_applied_.clear();
  sequenced_.clear();
  promised_ballot_ = 0;
  committed_upto_ = 0;
  applied_upto_ = 0;
  lease_expiry_ = 0;
  lease_ballot_ = 0;
  coordinator_ = kInvalidNode;
  ballot_ = 0;
  electing_ = false;
  next_slot_ = 0;
  next_req_id_ = 0;
}

const Placement& ConsensusEngine::placement() const noexcept {
  static const Placement kUnplaced;
  return spaces_.empty() ? kUnplaced : host_.placement(spaces_.begin()->first);
}

void ConsensusEngine::deliver(SwitchId dst, const pkt::SwishMessage& msg) {
  if (dst == host_.self()) {
    handle_message(msg);
    return;
  }
  stats_.bytes += host_.send(dst, msg);
}

std::vector<pkt::MsgType> ConsensusEngine::message_types() const {
  return {pkt::MsgType::kConForward, pkt::MsgType::kConPrepare, pkt::MsgType::kConPromise,
          pkt::MsgType::kConAccept, pkt::MsgType::kConAccepted, pkt::MsgType::kConLearn};
}

bool ConsensusEngine::handle_message(const pkt::SwishMessage& msg) {
  if (const auto* fwd = std::get_if<pkt::ConForward>(&msg)) {
    on_forward(*fwd);
    return true;
  }
  if (const auto* prep = std::get_if<pkt::ConPrepare>(&msg)) {
    on_prepare(*prep);
    return true;
  }
  if (const auto* prom = std::get_if<pkt::ConPromise>(&msg)) {
    on_promise(*prom);
    return true;
  }
  if (const auto* acc = std::get_if<pkt::ConAccept>(&msg)) {
    on_accept(*acc);
    return true;
  }
  if (const auto* accd = std::get_if<pkt::ConAccepted>(&msg)) {
    on_accepted(*accd);
    return true;
  }
  if (const auto* learn = std::get_if<pkt::ConLearn>(&msg)) {
    on_learn(*learn);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Election (deterministic coordinator + Paxos phase 1)
// ---------------------------------------------------------------------------

void ConsensusEngine::on_config_update() {
  const auto& m = members();
  const SwitchId coord =
      m.empty() ? host_.self() : *std::min_element(m.begin(), m.end());
  // Any coordinator change (or epoch bump) invalidates follower leases: the
  // (re-)elected coordinator may commit without us until a message from its
  // new ballot lands here. The ballot comparison catches the same-lowest-id
  // epoch bump a plain coordinator-change test would miss.
  if (coord != coordinator_ || lease_ballot_ < make_ballot(epoch(), coord)) lease_expiry_ = 0;
  coordinator_ = coord;
  if (coord != host_.self()) {
    electing_ = false;
    promises_.clear();
    progress_.clear();  // deposed: the new coordinator re-drives open slots
    return;
  }
  const std::uint64_t b = make_ballot(epoch(), host_.self());
  if (!electing_ && ballot_ >= b && ballot_ != 0) return;  // already elected here
  ballot_ = b;
  begin_election();
}

void ConsensusEngine::begin_election() {
  ++stats_.elections_started;
  electing_ = true;
  promises_.clear();
  promises_.insert(host_.self());
  promised_ballot_ = std::max(promised_ballot_, ballot_);
  const telemetry::SpanContext tr = trace_root("con_election");
  ActiveTraceScope scope(host_, tr.sampled() ? tr : host_.active_trace());
  for (SwitchId m : members()) {
    if (m == host_.self()) continue;
    deliver(m, pkt::ConPrepare{epoch(), ballot_, host_.self()});
  }
  if (promises_.size() >= quorum()) finish_election();
}

void ConsensusEngine::on_prepare(const pkt::ConPrepare& msg) {
  if (msg.ballot < promised_ballot_) {
    ++stats_.stale_ballot_drops;
    return;
  }
  promised_ballot_ = msg.ballot;
  coordinator_ = msg.coordinator;
  lease_expiry_ = 0;  // the new coordinator has not served us yet
  pkt::ConPromise promise;
  promise.epoch = msg.epoch;
  promise.ballot = msg.ballot;
  promise.acceptor = host_.self();
  promise.applied_upto = applied_upto_;
  // Report every accepted slot above the applied prefix so in-flight
  // transactions survive the old coordinator (atomicity across failover).
  for (const auto& [slot, entry] : log_) {
    if (slot <= applied_upto_) continue;
    promise.entries.push_back({slot, entry.ballot, entry.writer, entry.req_id, entry.ops});
  }
  deliver(msg.coordinator, promise);
}

void ConsensusEngine::on_promise(const pkt::ConPromise& msg) {
  if (!electing_ || msg.ballot != ballot_) return;  // late or stale promise
  auto& pa = peer_applied_[msg.acceptor];
  pa = std::max(pa, msg.applied_upto);
  for (const auto& e : msg.entries) {
    auto it = log_.find(e.slot);
    if (it == log_.end() || it->second.ballot < e.ballot) {
      log_[e.slot] = LogEntry{e.ballot, e.writer, e.req_id, e.ops};
    }
  }
  promises_.insert(msg.acceptor);
  if (promises_.size() >= quorum()) finish_election();
}

void ConsensusEngine::finish_election() {
  electing_ = false;
  ++stats_.elections_completed;
  host_.sw().simulator().records().trace(telemetry::kTraceFailover, host_.self(),
                                         "con_coordinator_elected", epoch());
  // Adopt the recovered log: the writer/req_id of every known slot is
  // sequenced (forward dedup across coordinator changes), and the proposal
  // cursor moves past everything seen. The dedup map is rebuilt from
  // scratch — a stale entry for a slot that another coordinator superseded
  // with a no-op fill would otherwise swallow the writer's retries as
  // duplicates of a transaction that can no longer commit.
  sequenced_.clear();
  for (const auto& [slot, entry] : log_) {
    next_slot_ = std::max(next_slot_, slot);
    if (entry.writer != kInvalidNode) sequenced_[{entry.writer, entry.req_id}] = slot;
  }
  // Slots inside the committed prefix are settled: phase 1's promise quorum
  // intersects every commit quorum, so the highest-ballot entry recovered
  // for such a slot IS the chosen value and is safe to apply here.
  for (auto it = log_.begin(); it != log_.end() && it->first <= committed_upto_; ++it) {
    it->second.committed = true;
  }
  // Re-propose accepted-but-uncommitted slots under our ballot; plug holes
  // with no-ops so the commit prefix can advance past them.
  for (std::uint64_t slot = committed_upto_ + 1; slot <= next_slot_; ++slot) {
    auto it = log_.find(slot);
    if (it == log_.end()) {
      log_[slot] = LogEntry{ballot_, host_.self(), 0, {}};  // no-op filler
    } else {
      it->second.ballot = ballot_;
    }
    auto& prog = progress_[slot];
    prog.accepted_by.clear();
    prog.accepted_by.insert(host_.self());
    prog.committed = false;
    send_accept(slot);
  }
  advance_commit();
  // Writes queued while the election ran (our own, or ones whose forward
  // landed before we were deposed elsewhere) get proposed now.
  std::vector<std::uint64_t> backlog;
  for (const auto& [req_id, pw] : pending_writes_) {
    if (!sequenced_.contains({host_.self(), req_id})) backlog.push_back(req_id);
  }
  for (std::uint64_t req_id : backlog) {
    auto it = pending_writes_.find(req_id);
    if (it == pending_writes_.end()) continue;
    ActiveTraceScope scope(host_, it->second.trace);
    propose(LogEntry{ballot_, host_.self(), req_id, it->second.ops});
  }
}

// ---------------------------------------------------------------------------
// Writer side
// ---------------------------------------------------------------------------

void ConsensusEngine::write(std::vector<pkt::WriteOp> ops, pkt::Packet output,
                            WriteRelease release) {
  ++stats_.writes_submitted;
  if (ops.empty()) {
    if (release) release(std::move(output));
    return;
  }
  if (pending_writes_.size() >= host_.config().con_queue_limit) {
    ++stats_.writes_rejected;
    host_.report_drop(telemetry::DropReason::kConQueueOverflow, ops.front().key);
    return;
  }
  const std::uint64_t req_id = mint_req_id();
  PendingWrite pw;
  pw.submit_time = host_.sw().simulator().now();
  pw.trace = trace_origin("con_write", ops.front().space, ops.front().key);
  pw.ops = std::move(ops);
  pw.output = std::move(output);
  pw.release = std::move(release);
  const telemetry::SpanContext tr = pw.trace;
  pending_writes_.emplace(req_id, std::move(pw));
  ActiveTraceScope scope(host_, tr);
  if (is_coordinator() && !electing_) {
    // NOTE: a single-replica group commits and applies synchronously here,
    // which releases (and erases) the pending write before this returns
    // (making the arm below a no-op).
    propose(LogEntry{ballot_, host_.self(),  req_id,
                     pending_writes_.at(req_id).ops});
    // Coordinator-path writes need the retry timer too: if we are deposed
    // with the slot in flight and the successor supersedes it (no-op fill),
    // the retry re-routes the write to the new coordinator — or fails it
    // after the budget — instead of stranding it (and its buffered output
    // packet) forever.
    arm_forward_retry(req_id);
    return;
  }
  ++stats_.forwards_sent;
  send_forward(req_id);
  arm_forward_retry(req_id);
}

void ConsensusEngine::send_forward(std::uint64_t req_id) {
  auto it = pending_writes_.find(req_id);
  if (it == pending_writes_.end()) return;
  if (is_coordinator()) {
    // A coordinator change landed this write on us: propose instead of
    // forwarding (sequenced_ guards against double-proposal on retries).
    if (!electing_ && !sequenced_.contains({host_.self(), req_id})) {
      propose(LogEntry{ballot_, host_.self(), req_id, it->second.ops});
    }
    return;
  }
  if (coordinator_ == kInvalidNode) return;  // retry after the placement push
  deliver(coordinator_, pkt::ConForward{epoch(), host_.self(), req_id, it->second.ops});
}

void ConsensusEngine::arm_forward_retry(std::uint64_t req_id) {
  auto it = pending_writes_.find(req_id);
  if (it == pending_writes_.end()) return;
  it->second.retry_timer = host_.sw().control_plane().schedule_after(
      host_.config().con_retry_timeout, [this, req_id]() {
        auto pit = pending_writes_.find(req_id);
        if (pit == pending_writes_.end()) return;  // applied and released
        if (++pit->second.retries > host_.config().con_max_retries) {
          // The forward/propose budget ran dry: no quorum (or coordinator)
          // was reachable within the retry window.
          ++stats_.writes_failed;
          host_.report_drop(telemetry::DropReason::kQuorumUnreachable, req_id);
          pending_writes_.erase(pit);
          return;
        }
        ++stats_.forward_retries;
        // Retries recompute the coordinator (election survival) and stay on
        // the original causal chain.
        ActiveTraceScope scope(host_, pit->second.trace);
        send_forward(req_id);
        arm_forward_retry(req_id);
      });
}

void ConsensusEngine::release_write(SwitchId writer, std::uint64_t req_id) {
  if (writer != host_.self()) return;
  auto it = pending_writes_.find(req_id);
  if (it == pending_writes_.end()) return;
  it->second.retry_timer.cancel();
  ++stats_.writes_committed;
  stats_.commit_latency.add(
      static_cast<std::uint64_t>(host_.sw().simulator().now() - it->second.submit_time));
  if (!it->second.ops.empty()) {
    trace_point("con_commit_ack", it->second.ops.front().space, it->second.ops.front().key);
  }
  auto release = std::move(it->second.release);
  auto output = std::move(it->second.output);
  pending_writes_.erase(it);
  if (release) {
    // Like the chain writer: the CP re-injects the buffered output packet.
    host_.sw().control_plane().submit(
        [release = std::move(release), output = std::move(output)]() mutable {
          release(std::move(output));
        });
  }
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

void ConsensusEngine::on_forward(const pkt::ConForward& msg) {
  if (!is_coordinator() || electing_) return;  // the writer's retry re-routes
  if (msg.epoch != epoch()) return;            // stale view; retry carries the new one
  auto sit = sequenced_.find({msg.writer, msg.req_id});
  if (sit != sequenced_.end()) {
    // Duplicate of a transaction already sequenced: if committed, the repair
    // loop (peer_applied_) re-delivers the learn; nothing to do here.
    return;
  }
  propose(LogEntry{ballot_, msg.writer, msg.req_id, msg.ops});
}

void ConsensusEngine::propose(LogEntry entry) {
  const std::uint64_t slot = ++next_slot_;
  if (sequenced_.size() > 65536) sequenced_.clear();  // blunt dedup bound
  if (entry.writer != kInvalidNode) sequenced_[{entry.writer, entry.req_id}] = slot;
  entry.ballot = ballot_;
  log_[slot] = std::move(entry);
  promised_ballot_ = std::max(promised_ballot_, ballot_);
  auto& prog = progress_[slot];
  prog.accepted_by.insert(host_.self());  // the coordinator accepts its own proposal
  if (!log_[slot].ops.empty()) {
    trace_point("con_propose", log_[slot].ops.front().space, log_[slot].ops.front().key);
  }
  send_accept(slot);
  if (quorum() <= 1) advance_commit();  // single-replica group: instant commit
}

void ConsensusEngine::send_accept(std::uint64_t slot) {
  auto lit = log_.find(slot);
  if (lit == log_.end()) return;
  auto pit = progress_.find(slot);
  pkt::ConAccept accept{epoch(),          ballot_, slot, committed_upto_,
                        lit->second.writer, lit->second.req_id, lit->second.ops};
  for (SwitchId m : members()) {
    if (m == host_.self()) continue;
    if (pit != progress_.end() && pit->second.accepted_by.contains(m)) continue;
    deliver(m, accept);
  }
}

void ConsensusEngine::on_accepted(const pkt::ConAccepted& msg) {
  if (!is_coordinator() || msg.ballot != ballot_) return;
  auto& pa = peer_applied_[msg.acceptor];
  pa = std::max(pa, msg.applied_upto);
  auto it = progress_.find(msg.slot);
  if (it == progress_.end()) return;  // already committed and retired
  it->second.accepted_by.insert(msg.acceptor);
  if (!it->second.committed && it->second.accepted_by.size() >= quorum()) {
    it->second.committed = true;
    advance_commit();
  }
}

void ConsensusEngine::advance_commit() {
  const std::uint64_t before = committed_upto_;
  while (true) {
    auto it = progress_.find(committed_upto_ + 1);
    if (it == progress_.end()) break;
    if (!it->second.committed && it->second.accepted_by.size() < quorum()) break;
    it->second.committed = true;
    ++committed_upto_;
    log_.at(committed_upto_).committed = true;  // quorum reached: value chosen
  }
  if (committed_upto_ == before) return;
  // Newly committed slots: lag records open at the origin, learners are
  // notified, and the recovery tap (if a stream is active) sees the commit.
  for (std::uint64_t slot = before + 1; slot <= committed_upto_; ++slot) {
    const LogEntry& entry = log_.at(slot);
    if (obs_ != nullptr) {
      const auto expected = static_cast<std::uint32_t>(members().size());
      for (const auto& op : entry.ops) {
        obs_->on_commit(op.space, op.key, slot, host_.self(), expected);
      }
    }
    if (!entry.ops.empty()) {
      trace_point("con_commit", entry.ops.front().space, entry.ops.front().key);
      host_.recovery_tap(entry.ops, std::vector<SeqNum>(entry.ops.size(), slot));
    }
    pkt::ConLearn learn{epoch(),      ballot_,       slot, committed_upto_,
                        entry.writer, entry.req_id, entry.ops};
    for (SwitchId m : members()) {
      if (m == host_.self()) continue;
      deliver(m, learn);
    }
    progress_.erase(slot);
  }
  apply_committed_upto(committed_upto_);
}

void ConsensusEngine::repair_tick() {
  if (electing_) {
    // Re-drive lost prepares until a quorum promises.
    for (SwitchId m : members()) {
      if (m == host_.self() || promises_.contains(m)) continue;
      deliver(m, pkt::ConPrepare{epoch(), ballot_, host_.self()});
    }
    return;
  }
  if (!is_coordinator()) return;
  // Re-drive open proposals that have not reached a quorum yet.
  for (auto& [slot, prog] : progress_) {
    if (!prog.committed) send_accept(slot);
  }
  // Back-fill replicas whose applied prefix lags the commit prefix (lost
  // learns, or a revived switch that boots with an empty log). Caught-up
  // peers get the newest committed learn re-sent as a lease heartbeat: a
  // learn receipt refreshes the replica's read lease, so local reads keep
  // their bounded-staleness guarantee through idle periods (the re-learn of
  // an applied slot is a no-op on their state).
  for (SwitchId m : members()) {
    if (m == host_.self()) continue;
    const std::uint64_t pa = peer_applied_[m];
    if (pa >= committed_upto_) {
      auto lit = log_.find(committed_upto_);
      if (host_.config().con_lease != 0 && lit != log_.end()) {
        ++stats_.lease_renewals;
        deliver(m, pkt::ConLearn{epoch(), ballot_, committed_upto_, committed_upto_,
                                 lit->second.writer, lit->second.req_id, lit->second.ops});
      }
      continue;
    }
    const std::uint64_t end = std::min(committed_upto_, pa + kRepairChunk);
    for (std::uint64_t slot = pa + 1; slot <= end; ++slot) {
      auto lit = log_.find(slot);
      if (lit == log_.end()) continue;
      ++stats_.repair_resends;
      deliver(m, pkt::ConLearn{epoch(), ballot_, slot, committed_upto_,
                               lit->second.writer, lit->second.req_id, lit->second.ops});
    }
  }
}

// ---------------------------------------------------------------------------
// Acceptor / learner side
// ---------------------------------------------------------------------------

void ConsensusEngine::refresh_lease(std::uint64_t ballot) {
  const TimeNs lease = host_.config().con_lease;
  if (lease == 0) return;
  lease_expiry_ = host_.sw().simulator().now() + lease;
  lease_ballot_ = std::max(lease_ballot_, ballot);
}

bool ConsensusEngine::lease_valid() const {
  return lease_expiry_ != 0 && host_.sw().simulator().now() < lease_expiry_;
}

void ConsensusEngine::on_accept(const pkt::ConAccept& msg) {
  ++stats_.accepts_seen;
  if (msg.ballot < promised_ballot_) {
    ++stats_.stale_ballot_drops;
    return;
  }
  promised_ballot_ = msg.ballot;
  auto it = log_.find(msg.slot);
  if (it == log_.end() || it->second.ballot <= msg.ballot) {
    // An overwrite of an already-chosen entry can only come from a ballot >=
    // the committing one, where the choice invariant forces the same value:
    // the committed bit survives the overwrite.
    const bool chosen = it != log_.end() && it->second.committed;
    log_[msg.slot] = LogEntry{msg.ballot, msg.writer, msg.req_id, msg.ops, chosen};
  }
  committed_upto_ = std::max(committed_upto_, msg.commit_upto);
  mark_committed(msg.commit_upto, msg.ballot);
  apply_committed_upto(committed_upto_);
  refresh_lease(msg.ballot);
  deliver(ballot_owner(msg.ballot),
          pkt::ConAccepted{msg.epoch, msg.ballot, msg.slot, host_.self(), applied_upto_});
}

void ConsensusEngine::on_learn(const pkt::ConLearn& msg) {
  if (msg.ballot < promised_ballot_) {
    ++stats_.stale_ballot_drops;
    return;
  }
  promised_ballot_ = msg.ballot;
  auto it = log_.find(msg.slot);
  if (it == log_.end() || it->second.ballot <= msg.ballot) {
    // A learn carries the chosen value for the slot it names (commitment is
    // permanent), so the fresh entry is committed outright.
    log_[msg.slot] = LogEntry{msg.ballot, msg.writer, msg.req_id, msg.ops, true};
  } else {
    // Our entry outranks the learn's ballot; for a chosen slot any
    // higher-ballot accept must carry the same value, so it is chosen too.
    it->second.committed = true;
  }
  // A learn means the slot is committed even if commit_upto lags behind it.
  committed_upto_ = std::max({committed_upto_, msg.commit_upto, msg.slot});
  mark_committed(msg.commit_upto, msg.ballot);
  apply_committed_upto(committed_upto_);
  refresh_lease(msg.ballot);
  // The learn-ack: reports our applied prefix so the coordinator's repair
  // loop knows when to stop re-sending.
  deliver(ballot_owner(msg.ballot),
          pkt::ConAccepted{msg.epoch, msg.ballot, msg.slot, host_.self(), applied_upto_});
}

void ConsensusEngine::mark_committed(std::uint64_t upto, std::uint64_t ballot) {
  // A commit-prefix proof (commit_upto) says slots <= upto are committed,
  // NOT that our local entry at each of those slots is the chosen value: a
  // minority accept from a dead coordinator can sit at a slot its successor
  // filled differently. Only an entry accepted under at least the proving
  // ballot is safe — the Paxos choice invariant forces it to equal the
  // chosen value. Older entries stay unchosen and read as gaps until the
  // repair loop re-learns them.
  for (auto it = log_.upper_bound(applied_upto_); it != log_.end() && it->first <= upto; ++it) {
    if (it->second.ballot >= ballot) it->second.committed = true;
  }
}

void ConsensusEngine::apply_committed_upto(std::uint64_t upto) {
  while (applied_upto_ < upto) {
    auto it = log_.find(applied_upto_ + 1);
    // A missing entry, or one not yet known chosen, is a gap: the repair
    // loop back-fills it with a learn before anything past it applies.
    if (it == log_.end() || !it->second.committed) return;
    apply_entry(applied_upto_ + 1, it->second);
    ++applied_upto_;
  }
}

void ConsensusEngine::apply_entry(std::uint64_t slot, const LogEntry& entry) {
  ++stats_.slots_applied;
  for (const auto& op : entry.ops) {
    auto sit = spaces_.find(op.space);
    if (sit == spaces_.end()) continue;
    SroSpaceState& sp = *sit->second;
    sp.apply(op.key, op.value, host_.sw().control_plane().token());
    // Guard seq = slot: snapshots carry the log position, so a recovery
    // stream replays into the same ordering domain.
    if (slot > sp.key_guard_seq(op.key)) sp.set_key_guard_seq(op.key, slot);
    if (obs_ != nullptr) obs_->on_apply(op.space, op.key, coordinator_, slot, host_.self());
  }
  if (!entry.ops.empty()) {
    trace_point("con_apply", entry.ops.front().space, entry.ops.front().key);
  }
  release_write(entry.writer, entry.req_id);
}

// ---------------------------------------------------------------------------
// Reads (coordinator-authoritative with follower leases)
// ---------------------------------------------------------------------------

ReadStatus ConsensusEngine::read(pisa::PacketContext* ctx, std::uint32_t space,
                                 std::uint64_t key, std::uint64_t& value) {
  auto it = spaces_.find(space);
  if (it == spaces_.end()) return ReadStatus::kMiss;
  const bool local_ok = is_coordinator()        // applied prefix is authoritative
                        || host_.authoritative()  // serving a redirect already
                        || lease_valid()          // lease-fresh: bounded staleness
                        || members().size() <= 1;
  if (!local_ok) {
    if (coordinator_ == kInvalidNode || ctx == nullptr) {
      // No coordinator to ask (or a caller that cannot be redirected): serve
      // the local copy rather than dropping the packet.
    } else {
      ++stats_.reads_redirected;
      stats_.bytes +=
          host_.send(coordinator_, pkt::ReadRedirect{host_.self(), ctx->packet.bytes()});
      return ReadStatus::kRedirected;
    }
  }
  ++stats_.reads_local;
  if (obs_ != nullptr) obs_->on_read(space, key, host_.self());
  auto v = it->second->read(key);
  if (!v) return ReadStatus::kMiss;
  value = *v;
  return ReadStatus::kOk;
}

std::optional<std::uint64_t> ConsensusEngine::read_lpm(std::uint32_t space, std::uint64_t key) {
  auto it = spaces_.find(space);
  if (it == spaces_.end()) return std::nullopt;
  ++stats_.reads_local;
  return it->second->read_lpm(key);
}

// ---------------------------------------------------------------------------
// Recovery (§6.3)
// ---------------------------------------------------------------------------

void ConsensusEngine::apply_recovery_op(const pkt::WriteOp& op, SeqNum seq) {
  auto sit = spaces_.find(op.space);
  if (sit == spaces_.end()) return;
  SroSpaceState& sp = *sit->second;
  sp.apply(op.key, op.value, host_.sw().control_plane().token());
  if (seq > sp.key_guard_seq(op.key)) sp.set_key_guard_seq(op.key, seq);
  // The snapshot is a consistent cut of the donor's applied prefix; adopting
  // the highest replayed slot as our own applied prefix keeps the
  // coordinator's repair loop from re-sending the whole history (re-applied
  // absolute values would be idempotent, but the bandwidth is wasted).
  applied_upto_ = std::max(applied_upto_, seq);
  committed_upto_ = std::max(committed_upto_, seq);
}

}  // namespace swish::shm
