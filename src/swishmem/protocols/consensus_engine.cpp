#include "swishmem/protocols/consensus_engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace swish::shm {
namespace {

/// Slots a coordinator re-sends per lagging replica per repair tick. Bounds
/// the burst when back-filling a freshly revived (empty) replica.
constexpr std::size_t kRepairChunk = 64;

/// Coordinator retransmit interval for unaccepted slots (the repair tick),
/// and the follower-side forward retry interval.
constexpr TimeNs kRetryTimeout = 5 * kMs;
/// Per-write forward/propose retransmit budget.
constexpr unsigned kMaxRetries = 20;
/// Read-lease duration refreshed by each accept/learn a replica receives
/// from the current-ballot coordinator. A fresh lease lets the replica
/// answer reads locally with BOUNDED STALENESS — the coordinator commits on
/// any majority, so a lease holder outside the commit quorum can miss writes
/// whose learn is still in flight (or was lost), lagging the commit point by
/// up to the lease duration. This is not a linearizable quorum read; after
/// expiry reads redirect to the coordinator, whose applied prefix is
/// authoritative.
constexpr TimeNs kLease = 10 * kMs;
/// Writes buffered at a follower while the coordinator is unknown or a
/// forward is in flight; excess writes are rejected.
constexpr std::size_t kQueueLimit = 1024;

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

ConsensusEngine::LogEntry::LogEntry(std::uint64_t entry_ballot, SwitchId entry_writer,
                                    std::uint64_t entry_req_id,
                                    std::span<const pkt::WriteOp> ops, bool chosen)
    : ballot(entry_ballot),
      req_id(entry_req_id),
      writer(entry_writer),
      committed(chosen),
      n_ops_(static_cast<std::uint16_t>(ops.size())),
      inline_{} {
  assert(ops.size() <= std::numeric_limits<std::uint16_t>::max());
  if (n_ops_ > kInlineOps) heap_ = new pkt::WriteOp[n_ops_];
  std::copy_n(ops.begin(), n_ops_, n_ops_ > kInlineOps ? heap_ : inline_.data());
}

ConsensusEngine::LogEntry& ConsensusEngine::LogEntry::operator=(LogEntry&& other) noexcept {
  if (this != &other) {
    free_ops();
    take(other);
  }
  return *this;
}

void ConsensusEngine::LogEntry::take(LogEntry& other) noexcept {
  ballot = other.ballot;
  req_id = other.req_id;
  writer = other.writer;
  committed = other.committed;
  n_ops_ = other.n_ops_;
  if (n_ops_ > kInlineOps) {
    heap_ = other.heap_;
  } else {
    inline_ = other.inline_;
  }
  other.n_ops_ = 0;
  other.inline_ = {};
}

void ConsensusEngine::LogEntry::free_ops() noexcept {
  if (n_ops_ > kInlineOps) {
    delete[] heap_;
    inline_ = {};
  }
  n_ops_ = 0;
}

ConsensusEngine::ConsensusEngine(ShmRuntime& host) : ProtocolEngine(host) {
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
  host_.every(kRetryTimeout, [this]() { repair_tick(); });
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

void ConsensusEngine::broadcast(const pkt::SwishMessage& msg, const std::set<SwitchId>* skip) {
  peers_.clear();
  for (SwitchId m : members()) {
    if (m != host_.self() && (skip == nullptr || !skip->contains(m))) peers_.push_back(m);
  }
  stats_.bytes += host_.send(peers_, msg);
}

std::vector<pkt::MsgType> ConsensusEngine::message_types() const {
  return {pkt::MsgType::kConForward, pkt::MsgType::kConPrepare, pkt::MsgType::kConPromise,
          pkt::MsgType::kConAccept, pkt::MsgType::kConAccepted, pkt::MsgType::kConLearn};
}

bool ConsensusEngine::handle_message(pkt::SwishMessage& msg) {
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
  broadcast(pkt::ConPrepare{epoch(), ballot_, host_.self()});
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
  for (std::uint64_t slot = applied_upto_ + 1; slot <= log_.size(); ++slot) {
    const LogEntry& entry = log_[slot - 1];
    if (!entry.present()) continue;
    promise.entries.push_back({slot, entry.ballot, entry.writer, entry.req_id, entry.op_vector()});
  }
  stats_.bytes += deliver(msg.coordinator, std::move(promise));
}

void ConsensusEngine::on_promise(const pkt::ConPromise& msg) {
  if (!electing_ || msg.ballot != ballot_) return;  // late or stale promise
  auto& pa = peer_applied_[msg.acceptor];
  pa = std::max(pa, msg.applied_upto);
  for (const auto& e : msg.entries) {
    const LogEntry* entry = find_entry(e.slot);
    if (entry == nullptr || entry->ballot < e.ballot) {
      store_entry(e.slot, LogEntry{e.ballot, e.writer, e.req_id, e.ops});
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
  for (std::uint64_t slot = 1; slot <= log_.size(); ++slot) {
    LogEntry& entry = log_[slot - 1];
    if (!entry.present()) continue;
    next_slot_ = std::max(next_slot_, slot);
    if (entry.writer != kInvalidNode) sequenced_[{entry.writer, entry.req_id}] = slot;
    // Slots inside the committed prefix are settled: phase 1's promise
    // quorum intersects every commit quorum, so the highest-ballot entry
    // recovered for such a slot IS the chosen value and is safe to apply.
    if (slot <= committed_upto_) entry.committed = true;
  }
  // Re-propose accepted-but-uncommitted slots under our ballot; plug holes
  // with no-ops so the commit prefix can advance past them.
  for (std::uint64_t slot = committed_upto_ + 1; slot <= next_slot_; ++slot) {
    if (LogEntry* entry = find_entry(slot)) {
      entry->ballot = ballot_;
    } else {
      store_entry(slot, LogEntry{ballot_, host_.self(), 0, {}});  // no-op filler
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
  if (pending_writes_.size() >= kQueueLimit) {
    ++stats_.writes_rejected;
    host_.report_drop(telemetry::DropReason::kConQueueOverflow, ops.front().key);
    return;
  }
  const std::uint64_t req_id = mint_id(host_.self(), next_req_id_);
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
  stats_.bytes +=
      deliver(coordinator_, pkt::ConForward{epoch(), host_.self(), req_id, it->second.ops});
}

void ConsensusEngine::arm_forward_retry(std::uint64_t req_id) {
  auto it = pending_writes_.find(req_id);
  if (it == pending_writes_.end()) return;
  it->second.retry_timer = host_.sw().control_plane().schedule_after(
      kRetryTimeout, [this, req_id]() {
        auto pit = pending_writes_.find(req_id);
        if (pit == pending_writes_.end()) return;  // applied and released
        if (++pit->second.retries > kMaxRetries) {
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
  const LogEntry& stored = store_entry(slot, std::move(entry));
  promised_ballot_ = std::max(promised_ballot_, ballot_);
  auto& prog = progress_[slot];
  prog.accepted_by.insert(host_.self());  // the coordinator accepts its own proposal
  if (!stored.ops().empty()) {
    trace_point("con_propose", stored.ops().front().space, stored.ops().front().key);
  }
  send_accept(slot);
  if (quorum() <= 1) advance_commit();  // single-replica group: instant commit
}

void ConsensusEngine::send_accept(std::uint64_t slot) {
  const LogEntry* entry = find_entry(slot);
  if (entry == nullptr) return;
  auto pit = progress_.find(slot);
  broadcast(pkt::ConAccept{epoch(), ballot_, slot, committed_upto_, entry->writer, entry->req_id,
                           entry->op_vector()},
            pit != progress_.end() ? &pit->second.accepted_by : nullptr);
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
    log_[committed_upto_ - 1].committed = true;  // quorum reached: value chosen
  }
  if (committed_upto_ == before) return;
  // Newly committed slots: lag records open at the origin, learners are
  // notified, and the recovery tap (if a stream is active) sees the commit.
  for (std::uint64_t slot = before + 1; slot <= committed_upto_; ++slot) {
    const LogEntry& entry = log_[slot - 1];
    const std::span<const pkt::WriteOp> ops = entry.ops();
    if (obs_.enabled()) {
      const auto expected = static_cast<std::uint32_t>(members().size());
      for (const auto& op : ops) obs_.on_commit(op.space, op.key, slot, host_.self(), expected);
    }
    if (!ops.empty()) {
      trace_point("con_commit", ops.front().space, ops.front().key);
      host_.recovery_tap(ops, std::vector<SeqNum>(ops.size(), slot));
    }
    broadcast(pkt::ConLearn{epoch(), ballot_, slot, committed_upto_, entry.writer, entry.req_id,
                            entry.op_vector()});
    progress_.erase(slot);
  }
  apply_committed_upto(committed_upto_);
}

void ConsensusEngine::repair_tick() {
  if (electing_) {
    // Re-drive lost prepares until a quorum promises.
    broadcast(pkt::ConPrepare{epoch(), ballot_, host_.self()}, &promises_);
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
      if (const LogEntry* entry = find_entry(committed_upto_)) {
        ++stats_.lease_renewals;
        stats_.bytes += deliver(m, pkt::ConLearn{epoch(), ballot_, committed_upto_,
                                                 committed_upto_, entry->writer, entry->req_id,
                                                 entry->op_vector()});
      }
      continue;
    }
    const std::uint64_t end = std::min(committed_upto_, pa + kRepairChunk);
    for (std::uint64_t slot = pa + 1; slot <= end; ++slot) {
      const LogEntry* entry = find_entry(slot);
      if (entry == nullptr) continue;
      ++stats_.repair_resends;
      stats_.bytes += deliver(m, pkt::ConLearn{epoch(), ballot_, slot, committed_upto_,
                                               entry->writer, entry->req_id, entry->op_vector()});
    }
  }
}

// ---------------------------------------------------------------------------
// Acceptor / learner side
// ---------------------------------------------------------------------------

void ConsensusEngine::refresh_lease(std::uint64_t ballot) {
  lease_expiry_ = host_.sw().simulator().now() + kLease;
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
  const LogEntry* entry = find_entry(msg.slot);
  if (entry == nullptr || entry->ballot <= msg.ballot) {
    // An overwrite of an already-chosen entry can only come from a ballot >=
    // the committing one, where the choice invariant forces the same value:
    // the committed bit survives the overwrite.
    const bool chosen = entry != nullptr && entry->committed;
    store_entry(msg.slot, LogEntry{msg.ballot, msg.writer, msg.req_id, msg.ops, chosen});
  }
  committed_upto_ = std::max(committed_upto_, msg.commit_upto);
  mark_committed(msg.commit_upto, msg.ballot);
  apply_committed_upto(committed_upto_);
  refresh_lease(msg.ballot);
  stats_.bytes +=
      deliver(ballot_owner(msg.ballot),
              pkt::ConAccepted{msg.epoch, msg.ballot, msg.slot, host_.self(), applied_upto_});
}

void ConsensusEngine::on_learn(const pkt::ConLearn& msg) {
  if (msg.ballot < promised_ballot_) {
    ++stats_.stale_ballot_drops;
    return;
  }
  promised_ballot_ = msg.ballot;
  LogEntry* entry = find_entry(msg.slot);
  if (entry == nullptr || entry->ballot <= msg.ballot) {
    // A learn carries the chosen value for the slot it names (commitment is
    // permanent), so the fresh entry is committed outright.
    store_entry(msg.slot, LogEntry{msg.ballot, msg.writer, msg.req_id, msg.ops, true});
  } else {
    // Our entry outranks the learn's ballot; for a chosen slot any
    // higher-ballot accept must carry the same value, so it is chosen too.
    entry->committed = true;
  }
  // A learn means the slot is committed even if commit_upto lags behind it.
  committed_upto_ = std::max({committed_upto_, msg.commit_upto, msg.slot});
  mark_committed(msg.commit_upto, msg.ballot);
  apply_committed_upto(committed_upto_);
  refresh_lease(msg.ballot);
  // The learn-ack: reports our applied prefix so the coordinator's repair
  // loop knows when to stop re-sending.
  stats_.bytes +=
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
  const std::uint64_t end = std::min<std::uint64_t>(upto, log_.size());
  for (std::uint64_t slot = applied_upto_ + 1; slot <= end; ++slot) {
    LogEntry& entry = log_[slot - 1];
    if (entry.present() && entry.ballot >= ballot) entry.committed = true;
  }
}

void ConsensusEngine::apply_committed_upto(std::uint64_t upto) {
  while (applied_upto_ < upto) {
    const LogEntry* entry = find_entry(applied_upto_ + 1);
    // A missing entry, or one not yet known chosen, is a gap: the repair
    // loop back-fills it with a learn before anything past it applies.
    if (entry == nullptr || !entry->committed) return;
    apply_entry(applied_upto_ + 1, *entry);
    ++applied_upto_;
  }
}

ConsensusEngine::LogEntry* ConsensusEngine::find_entry(std::uint64_t slot) noexcept {
  if (slot == 0 || slot > log_.size()) return nullptr;
  LogEntry& entry = log_[slot - 1];
  return entry.present() ? &entry : nullptr;
}

ConsensusEngine::LogEntry& ConsensusEngine::store_entry(std::uint64_t slot, LogEntry entry) {
  if (slot > log_.size()) log_.resize(slot);
  return log_[slot - 1] = std::move(entry);
}

void ConsensusEngine::apply_entry(std::uint64_t slot, const LogEntry& entry) {
  ++stats_.slots_applied;
  const std::span<const pkt::WriteOp> ops = entry.ops();
  for (const auto& op : ops) {
    auto sit = spaces_.find(op.space);
    if (sit == spaces_.end()) continue;
    SroSpaceState& sp = *sit->second;
    apply_committed(host_, sp, op);
    // Guard seq = slot: snapshots carry the log position, so a recovery
    // stream replays into the same ordering domain.
    if (slot > sp.key_guard_seq(op.key)) sp.set_key_guard_seq(op.key, slot);
    obs_.on_apply(op.space, op.key, coordinator_, slot, host_.self());
  }
  if (!ops.empty()) trace_point("con_apply", ops.front().space, ops.front().key);
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
  obs_.on_read(space, key, host_.self());
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
  apply_committed(host_, sp, op);
  if (seq > sp.key_guard_seq(op.key)) sp.set_key_guard_seq(op.key, seq);
  // The snapshot is a consistent cut of the donor's applied prefix; adopting
  // the highest replayed slot as our own applied prefix keeps the
  // coordinator's repair loop from re-sending the whole history (re-applied
  // absolute values would be idempotent, but the bandwidth is wasted).
  applied_upto_ = std::max(applied_upto_, seq);
  committed_upto_ = std::max(committed_upto_, seq);
}

}  // namespace swish::shm
