#include "swishmem/protocols/owner_engine.hpp"

#include <algorithm>
#include <map>

#include "common/rng.hpp"

namespace swish::shm {
namespace {

/// Owner -> home dirty-key backup flush interval.
constexpr TimeNs kBackupInterval = 1 * kMs;
/// Entries per backup packet.
constexpr std::size_t kBackupChunk = 64;
/// Operations buffered per key while an ownership migration is in flight;
/// excess operations are rejected (their callbacks never fire).
constexpr std::size_t kQueueLimit = 1024;

}  // namespace

OwnerEngine::OwnerEngine(ShmRuntime& host) : ProtocolEngine(host) {
  telemetry::MetricsRegistry& reg = host_metrics();
  const std::string p = metric_prefix("own");
  stats_.reads = reg.counter(p + "reads");
  stats_.local_writes = reg.counter(p + "local_writes");
  stats_.acquisitions_started = reg.counter(p + "acquisitions_started");
  stats_.acquisitions_completed = reg.counter(p + "acquisitions_completed");
  stats_.acquisitions_failed = reg.counter(p + "acquisitions_failed");
  stats_.acquisition_retries = reg.counter(p + "acquisition_retries");
  stats_.revokes_served = reg.counter(p + "revokes_served");
  stats_.grants_issued = reg.counter(p + "grants_issued");
  stats_.queue_rejected = reg.counter(p + "queue_rejected");
  stats_.backup_entries_sent = reg.counter(p + "backup_entries_sent");
  stats_.backup_entries_merged = reg.counter(p + "backup_entries_merged");
  stats_.bytes = reg.counter(p + "bytes");
}

void OwnerEngine::add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas) {
  (void)replicas;  // homes come from the space's placement
  spaces_.emplace(config.id, std::make_unique<OwnSpaceState>(host_.sw(), config));
}

bool OwnerEngine::hosts_space(std::uint32_t space) const noexcept {
  return spaces_.contains(space);
}

void OwnerEngine::start() {
  host_.every(kBackupInterval, [this]() { backup_flush(); });
}

void OwnerEngine::reset() {
  for (auto& [id, sp] : spaces_) sp->reset();
  for (auto& [key, pa] : pending_acquires_) pa.retry_timer.cancel();
  pending_acquires_.clear();
  // Home-side pending grants carry no timers (the requester's retry re-drives
  // a lost migration), so clearing the map is the whole cleanup.
  pending_grants_.clear();
  // A replacement switch boots empty: the req_id counter restarts too. Stale
  // grants addressed to the pre-failure incarnation are rejected by the
  // req_id guard on the (freshly emptied) pending_acquires_ map.
  next_req_id_ = 0;
}

void OwnerEngine::on_config_update() {
  // Home side: reclaim keys whose recorded owner left the live set — the next
  // acquisition is granted from this home's backup copy (§6.3 failover; the
  // un-flushed tail of the dead owner's writes is the protocol's loss window).
  for (auto& [id, sp] : spaces_) {
    for (std::uint64_t slot : sp->dir_slots_owned_outside(host_.placement(id).members)) {
      sp->clear_dir_owner(slot);
    }
  }
  // In-flight revokes may reference dead switches; drop them and let the
  // requesters' retries re-walk the (repaired) directory.
  pending_grants_.clear();
  // Owner side: a placement change can move a key's home to a replica whose
  // directory has never heard of us. Proactively re-claim everything we own
  // so the new homes converge in one round trip instead of one backup period.
  flush_claims();
}

std::vector<pkt::MsgType> OwnerEngine::message_types() const {
  return {pkt::MsgType::kOwnRequest, pkt::MsgType::kOwnGrant, pkt::MsgType::kOwnUpdate};
}

bool OwnerEngine::handle_message(pkt::SwishMessage& msg) {
  if (const auto* req = std::get_if<pkt::OwnRequest>(&msg)) {
    if (!spaces_.contains(req->space)) return false;
    on_own_request(*req);
    return true;
  }
  if (const auto* grant = std::get_if<pkt::OwnGrant>(&msg)) {
    if (!spaces_.contains(grant->space)) return false;
    on_own_grant(*grant);
    return true;
  }
  if (const auto* update = std::get_if<pkt::OwnUpdate>(&msg)) {
    if (update->entries.empty() || !spaces_.contains(update->entries.front().space)) {
      return false;
    }
    on_own_update(*update);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

SwitchId OwnerEngine::home_of(std::uint32_t space, std::uint64_t key) const {
  const auto& m = host_.placement(space).members;
  if (m.empty()) return host_.self();
  const std::uint64_t mix =
      mix64(key ^ (static_cast<std::uint64_t>(space) * 0x9e3779b97f4a7c15ULL));
  return m[mix % m.size()];
}

bool OwnerEngine::owns(std::uint32_t space, std::uint64_t key) const {
  auto it = spaces_.find(space);
  return it != spaces_.end() && it->second->owned(key);
}

// ---------------------------------------------------------------------------
// Datapath
// ---------------------------------------------------------------------------

ReadStatus OwnerEngine::read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                             std::uint64_t& value) {
  (void)ctx;  // reads never redirect: owner-fresh locally, backup-stale remotely
  auto it = spaces_.find(space);
  if (it == spaces_.end()) return ReadStatus::kMiss;
  ++stats_.reads;
  obs_.on_read(space, it->second->slot(key), host_.self());
  value = it->second->value(key);
  return ReadStatus::kOk;
}

void OwnerEngine::write(std::vector<pkt::WriteOp> ops, pkt::Packet output, WriteRelease release) {
  if (ops.empty()) {
    if (release) release(std::move(output));
    return;
  }
  // The output releases when the last op of the batch has applied (each op
  // may wait on its own key's ownership migration).
  struct Batch {
    std::size_t remaining;
    pkt::Packet output;
    WriteRelease release;
  };
  auto batch = std::make_shared<Batch>();
  batch->remaining = ops.size();
  batch->output = std::move(output);
  batch->release = std::move(release);
  for (const auto& op : ops) {
    QueuedOp q;
    q.is_update = false;
    q.value = op.value;
    q.completion = [batch]() {
      if (--batch->remaining == 0 && batch->release) {
        batch->release(std::move(batch->output));
      }
    };
    apply_or_acquire(op.space, op.key, std::move(q));
  }
}

std::optional<std::uint64_t> OwnerEngine::update(std::uint32_t space, std::uint64_t key,
                                                 std::int64_t delta, UpdateDone done) {
  QueuedOp q;
  q.is_update = true;
  q.delta = delta;
  q.done = std::move(done);
  return apply_or_acquire(space, key, std::move(q));
}

std::uint64_t OwnerEngine::apply_owned(OwnSpaceState& st, std::uint32_t space,
                                       std::uint64_t key, QueuedOp& op) {
  ++stats_.local_writes;
  trace_origin("own_write", space, key);
  const std::uint64_t result =
      op.is_update ? st.value(key) + static_cast<std::uint64_t>(op.delta) : op.value;
  st.owner_write(key, result);
  if (op.is_update) {
    if (op.done) op.done(result);
  } else if (op.completion) {
    op.completion();
  }
  // OWN propagates owner writes to exactly one replica — the key's home —
  // via the periodic backup flush (or the grant relinquish path). Self-homed
  // keys have no remote copy to lag behind.
  if (obs_.enabled() && home_of(space, key) != host_.self()) {
    obs_.on_commit(space, key, st.version(key), host_.self(), 1);
  }
  return result;
}

std::optional<std::uint64_t> OwnerEngine::apply_or_acquire(std::uint32_t space,
                                                           std::uint64_t key, QueuedOp op) {
  auto it = spaces_.find(space);
  if (it == spaces_.end()) return std::nullopt;
  OwnSpaceState& st = *it->second;
  const std::uint64_t slot = st.slot(key);  // ownership is slot-granular
  if (st.owned(slot)) return apply_owned(st, space, slot, op);
  const KeyRef ref{space, slot};
  auto pit = pending_acquires_.find(ref);
  if (pit == pending_acquires_.end()) {
    begin_acquire(space, slot);
    // When this switch is its own home (or the whole path is local) the grant
    // installs synchronously inside begin_acquire.
    if (st.owned(slot)) return apply_owned(st, space, slot, op);
    pit = pending_acquires_.find(ref);
    if (pit == pending_acquires_.end()) return std::nullopt;  // acquisition not startable
  }
  if (pit->second.queue.size() >= kQueueLimit) {
    ++stats_.queue_rejected;
    host_.report_drop(telemetry::DropReason::kOwnQueueOverflow, slot);
    return std::nullopt;  // dropped; the op's callbacks never fire
  }
  pit->second.queue.push_back(std::move(op));
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Acquisition (requester side)
// ---------------------------------------------------------------------------

void OwnerEngine::begin_acquire(std::uint32_t space, std::uint64_t slot) {
  ++stats_.acquisitions_started;
  const std::uint64_t req_id = mint_id(host_.self(), next_req_id_);
  const telemetry::SpanContext tr = trace_origin("own_acquire", space, slot);
  PendingAcquire pa;
  pa.req_id = req_id;
  pa.trace = tr;
  pending_acquires_.emplace(KeyRef{space, slot}, std::move(pa));
  ActiveTraceScope scope(host_, tr);
  stats_.bytes += deliver(home_of(space, slot),
                          pkt::OwnRequest{space, slot, host_.self(), req_id, /*revoke=*/false});
  arm_acquire_retry(space, slot, req_id);
}

void OwnerEngine::arm_acquire_retry(std::uint32_t space, std::uint64_t slot,
                                    std::uint64_t req_id) {
  auto it = pending_acquires_.find(KeyRef{space, slot});
  if (it == pending_acquires_.end()) return;
  it->second.retry_timer = host_.sw().control_plane().schedule_after(
      host_.config().write_retry_timeout, [this, space, slot, req_id]() {
        auto pit = pending_acquires_.find(KeyRef{space, slot});
        if (pit == pending_acquires_.end() || pit->second.req_id != req_id) return;
        if (++pit->second.retries > host_.config().max_write_retries) {
          ++stats_.acquisitions_failed;
          host_.report_drop(telemetry::DropReason::kWriteRetriesExhausted, slot);
          pending_acquires_.erase(pit);  // queued ops dropped, callbacks never fire
          return;
        }
        ++stats_.acquisition_retries;
        // Retries reuse the SAME req_id (idempotent at home and owner) but
        // recompute the home, so they survive a failover-driven re-homing.
        // Re-entering the original acquisition trace (plus the runtime's
        // req_id-keyed send-span cache) keeps retransmits from double-counting.
        ActiveTraceScope scope(host_, pit->second.trace);
        stats_.bytes +=
            deliver(home_of(space, slot),
                    pkt::OwnRequest{space, slot, host_.self(), req_id, /*revoke=*/false});
        arm_acquire_retry(space, slot, req_id);
      });
}

void OwnerEngine::install_grant(const pkt::OwnGrant& msg) {
  auto sit = spaces_.find(msg.space);
  if (sit == spaces_.end()) return;
  OwnSpaceState& st = *sit->second;
  auto pit = pending_acquires_.find(KeyRef{msg.space, msg.key});
  if (pit == pending_acquires_.end() || pit->second.req_id != msg.req_id) {
    return;  // stale grant (e.g. for an acquisition that already timed out):
             // installing it could create a second owner, so drop it
  }
  if (msg.version >= st.version(msg.key)) st.store(msg.key, msg.value, msg.version);
  st.set_owned(msg.key, true);
  ++stats_.acquisitions_completed;
  host_.sw().simulator().records().trace(telemetry::kTraceMigration, host_.self(),
                                         "own_acquired", msg.space, msg.key);
  trace_point("own_acquired", msg.space, msg.key);
  pit->second.retry_timer.cancel();
  auto queue = std::move(pit->second.queue);
  pending_acquires_.erase(pit);
  for (auto& op : queue) apply_owned(st, msg.space, msg.key, op);
}

// ---------------------------------------------------------------------------
// Home directory + owner revocation
// ---------------------------------------------------------------------------

void OwnerEngine::grant_from_backup(OwnSpaceState& st, std::uint32_t space, std::uint64_t slot,
                                    SwitchId requester, std::uint64_t req_id) {
  st.set_dir_owner(slot, requester);
  ++stats_.grants_issued;
  stats_.bytes += deliver(
      requester, pkt::OwnGrant{space, slot, requester, req_id, st.value(slot), st.version(slot)});
}

void OwnerEngine::on_own_request(const pkt::OwnRequest& msg) {
  auto sit = spaces_.find(msg.space);
  if (sit == spaces_.end()) return;
  OwnSpaceState& st = *sit->second;

  if (msg.revoke) {
    // Owner side: relinquish, keeping the (now read-only, stale-allowed) copy,
    // and ship the authoritative value back through the home. A duplicate
    // revoke after relinquishing re-sends the same state; the home's req_id
    // check makes that harmless.
    if (st.owned(msg.key)) {
      st.set_owned(msg.key, false);
      ++stats_.revokes_served;
      host_.sw().simulator().records().trace(telemetry::kTraceMigration, host_.self(),
                                             "own_revoked", msg.space, msg.key);
      trace_point("own_revoke", msg.space, msg.key);
    }
    stats_.bytes += deliver(home_of(msg.space, msg.key),
                            pkt::OwnGrant{msg.space, msg.key, msg.requester, msg.req_id,
                                          st.value(msg.key), st.version(msg.key)});
    return;
  }

  // Home side. Ignore requests that landed on a stale home; the requester's
  // retry recomputes the home from the next placement.
  if (home_of(msg.space, msg.key) != host_.self()) return;

  const SwitchId current = st.dir_owner(msg.key);
  if (current == kInvalidNode || current == msg.requester) {
    // Unowned (or a duplicate of a request we already granted): grant from
    // the backup copy.
    grant_from_backup(st, msg.space, msg.key, msg.requester, msg.req_id);
    return;
  }
  const KeyRef ref{msg.space, msg.key};
  auto git = pending_grants_.find(ref);
  if (git != pending_grants_.end() && git->second.req_id != msg.req_id) {
    // A migration for another requester is already in flight: first come,
    // first served. This requester's retry will revoke the new owner next.
    return;
  }
  pending_grants_[ref] = {msg.req_id, msg.requester};
  stats_.bytes += deliver(current, pkt::OwnRequest{msg.space, msg.key, msg.requester,
                                                   msg.req_id, /*revoke=*/true});
}

void OwnerEngine::on_own_grant(const pkt::OwnGrant& msg) {
  auto sit = spaces_.find(msg.space);
  if (sit == spaces_.end()) return;
  OwnSpaceState& st = *sit->second;

  // Home relay: an owner relinquished in response to our revoke. Fold the
  // authoritative value into the backup, repoint the directory, and forward
  // the grant to the requester.
  auto git = pending_grants_.find(KeyRef{msg.space, msg.key});
  if (git != pending_grants_.end() && git->second.req_id == msg.req_id) {
    if (msg.version >= st.version(msg.key)) {
      // The relinquished value folding into the home backup IS the (single)
      // replica apply for the old owner's in-flight writes: close their
      // propagation records here so migration does not leak inflight entries.
      if (obs_.enabled()) {
        const SwitchId prev_owner = st.dir_owner(msg.key);
        if (prev_owner != kInvalidNode && prev_owner != host_.self()) {
          obs_.on_apply(msg.space, msg.key, prev_owner, msg.version, host_.self());
        }
      }
      st.store(msg.key, msg.value, msg.version);
    }
    const SwitchId requester = git->second.requester;
    pending_grants_.erase(git);
    grant_from_backup(st, msg.space, msg.key, requester, msg.req_id);
    return;
  }

  // Requester side: install (req_id-guarded).
  if (msg.new_owner == host_.self()) install_grant(msg);
}

// ---------------------------------------------------------------------------
// Backup flush (owner -> home) and directory healing
// ---------------------------------------------------------------------------

void OwnerEngine::send_backup_entries(std::uint32_t space, const OwnSpaceState& st,
                                      const std::vector<std::uint64_t>& slots) {
  // Keys hash to per-key homes: bucket the entries by destination, then chunk.
  std::map<SwitchId, std::vector<pkt::EwoEntry>> by_home;
  for (std::uint64_t slot : slots) {
    if (!st.owned(slot)) continue;  // relinquished since marked dirty
    by_home[home_of(space, slot)].push_back(
        {space, slot, st.version(slot), st.value(slot)});
  }
  for (auto& [home, entries] : by_home) {
    if (home == host_.self()) continue;  // backup of self-homed keys is the copy itself
    for (std::size_t off = 0; off < entries.size(); off += kBackupChunk) {
      pkt::OwnUpdate update;
      update.owner = host_.self();
      update.claim = true;
      const std::size_t end = std::min(off + kBackupChunk, entries.size());
      update.entries.assign(entries.begin() + static_cast<std::ptrdiff_t>(off),
                            entries.begin() + static_cast<std::ptrdiff_t>(end));
      stats_.backup_entries_sent += update.entries.size();
      stats_.bytes += deliver(home, std::move(update));
    }
  }
}

void OwnerEngine::backup_flush() {
  // Root a span per flush round: backup propagation is the apply half of
  // OWN's consistency lag, so it must be visible in the causal DAG.
  const telemetry::SpanContext tr = trace_root("own_backup");
  ActiveTraceScope scope(host_, tr.sampled() ? tr : host_.active_trace());
  for (auto& [id, sp] : spaces_) send_backup_entries(id, *sp, sp->take_dirty());
}

void OwnerEngine::flush_claims() {
  const telemetry::SpanContext tr = trace_root("own_claims");
  ActiveTraceScope scope(host_, tr.sampled() ? tr : host_.active_trace());
  for (auto& [id, sp] : spaces_) send_backup_entries(id, *sp, sp->owned_slots());
}

void OwnerEngine::on_own_update(const pkt::OwnUpdate& msg) {
  bool merged_any = false;
  for (const auto& entry : msg.entries) {
    auto sit = spaces_.find(entry.space);
    if (sit == spaces_.end()) continue;
    OwnSpaceState& st = *sit->second;
    if (st.owned(entry.key)) continue;  // our owned copy outranks any backup
    if (entry.version > st.version(entry.key)) {
      st.store(entry.key, entry.value, entry.version);
      ++stats_.backup_entries_merged;
      merged_any = true;
    }
    // The observatory subsumes older idents and deduplicates replicas, so
    // reporting every entry (merged or not) is safe and closes records whose
    // value reached us through another path first.
    obs_.on_apply(entry.space, entry.key, msg.owner, entry.version, host_.self());
    if (msg.claim && home_of(entry.space, entry.key) == host_.self()) {
      // Directory self-healing: adopt the claimant when the directory has no
      // owner on record. A conflicting record wins — grants are authoritative.
      if (st.dir_owner(entry.key) == kInvalidNode) st.set_dir_owner(entry.key, msg.owner);
    }
  }
  if (merged_any && !msg.entries.empty()) {
    trace_point("own_backup_apply", msg.entries.front().space, msg.entries.front().key);
  }
}

// ---------------------------------------------------------------------------
// Recovery (§6.3)
// ---------------------------------------------------------------------------

void OwnerEngine::append_snapshot_sources(std::optional<std::uint32_t> space_filter,
                                          SnapshotSources& out) {
  for (const std::uint32_t id : sorted_space_ids(spaces_, space_filter)) {
    OwnSpaceState& sp = *spaces_.at(id);
    if (sp.sparse_store() != nullptr) {
      out.push_back(make_pinned_source(
          sp.pin_snapshot(), [id](const store::Entry& e, SnapshotOp& op) {
            if (e.version == 0) return false;  // dir-only entry, nothing to replay
            op = {pkt::WriteOp{id, e.key, e.value}, static_cast<SeqNum>(e.version)};
            return true;
          }));
    } else {
      std::vector<SnapshotOp> ops;
      for (std::uint64_t slot : sp.live_slots()) {
        ops.push_back({pkt::WriteOp{id, slot, sp.value(slot)}, sp.version(slot)});
      }
      out.push_back(make_vector_source(std::move(ops)));
    }
  }
}

void OwnerEngine::apply_recovery_op(const pkt::WriteOp& op, SeqNum seq) {
  auto sit = spaces_.find(op.space);
  if (sit == spaces_.end()) return;
  OwnSpaceState& st = *sit->second;
  if (st.owned(op.key)) return;
  if (seq > st.version(op.key)) st.store(op.key, op.value, seq);
}

const OwnSpaceState* OwnerEngine::space_state(std::uint32_t id) const {
  auto it = spaces_.find(id);
  return it == spaces_.end() ? nullptr : it->second.get();
}

}  // namespace swish::shm
