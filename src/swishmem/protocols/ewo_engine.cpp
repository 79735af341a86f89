#include "swishmem/protocols/ewo_engine.hpp"

#include <algorithm>

#include "swishmem/version.hpp"

namespace swish::shm {

EwoEngine::EwoEngine(EngineHost& host)
    : ProtocolEngine(host), rng_(0xe40 ^ (host.self() * 0x9e3779b9ULL)) {
  telemetry::MetricsRegistry& reg = host_metrics();
  const std::string p = metric_prefix("ewo");
  stats_.reads = reg.counter(p + "reads");
  stats_.local_writes = reg.counter(p + "local_writes");
  stats_.updates_sent = reg.counter(p + "updates_sent");
  stats_.updates_received = reg.counter(p + "updates_received");
  stats_.entries_merged = reg.counter(p + "entries_merged");
  stats_.sync_rounds = reg.counter(p + "sync_rounds");
  stats_.sync_entries_sent = reg.counter(p + "sync_entries_sent");
  stats_.bytes = reg.counter(p + "bytes");
}

void EwoEngine::add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas) {
  if (spaces_.empty()) group_space_ = config.id;
  spaces_.emplace(config.id,
                  std::make_unique<EwoSpaceState>(host_.sw(), config, replicas, host_.self()));
}

bool EwoEngine::hosts_space(std::uint32_t space) const noexcept {
  return spaces_.contains(space);
}

void EwoEngine::start() {
  host_.every(host_.config().sync_period, [this]() { periodic_sync(); });
  host_.every(host_.config().mirror_flush_interval, [this]() { flush_mirror_buffer(); });
}

void EwoEngine::reset() {
  for (auto& [id, sp] : spaces_) sp->reset();
  mirror_buffer_.clear();
}

std::vector<pkt::MsgType> EwoEngine::message_types() const {
  return {pkt::MsgType::kEwoUpdate};
}

bool EwoEngine::handle_message(const pkt::SwishMessage& msg) {
  const auto* update = std::get_if<pkt::EwoUpdate>(&msg);
  if (!update) return false;
  ++stats_.updates_received;
  const bool observe = obs_ != nullptr && obs_->enabled();
  bool merged_any = false;
  for (const auto& entry : update->entries) {
    auto it = spaces_.find(entry.space);
    if (it == spaces_.end()) continue;
    const bool merged = it->second->merge(entry);
    if (merged) {
      ++stats_.entries_merged;
      merged_any = true;
    }
    // Periodic full-state syncs rebroadcast every slot every round; almost
    // all entries are already known, so only the ones that actually changed
    // local state report to the observatory — keeping the per-entry map
    // lookup off the steady-state sync path. Mirror flushes (one delivery
    // per write, possibly retransmitted) always report; the observatory
    // deduplicates by identity and replica.
    if (observe && (merged || !update->periodic)) {
      // Origin and identity are recoverable from the entry itself: LWW
      // versions embed the writing switch, CRDT slots name their owner in
      // the tag. Duplicates and already-known entries are deduplicated by
      // the observatory (identity subsume + one count per replica).
      NodeId origin;
      std::uint64_t ident;
      if (it->second->config().merge == MergePolicy::kLww) {
        origin = Version::switch_id(entry.version);
        ident = entry.version;
      } else {
        origin = static_cast<NodeId>(entry.version >> 1);
        ident = entry.value;
      }
      obs_->on_apply(entry.space, entry.key, origin, ident, host_.self());
    }
  }
  if (merged_any && !update->entries.empty()) {
    trace_point("ewo_apply", update->entries.front().space, update->entries.front().key);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Datapath: every register operation applies locally (§6.2)
// ---------------------------------------------------------------------------

ReadStatus EwoEngine::read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                           std::uint64_t& value) {
  (void)ctx;  // EWO never redirects
  auto it = spaces_.find(space);
  if (it == spaces_.end()) return ReadStatus::kMiss;
  ++stats_.reads;
  if (obs_ != nullptr) obs_->on_read(space, key, host_.self());
  value = it->second->read(key);
  return ReadStatus::kOk;
}

std::optional<std::uint64_t> EwoEngine::read_lpm(std::uint32_t space, std::uint64_t key) {
  auto it = spaces_.find(space);
  if (it == spaces_.end()) return std::nullopt;
  ++stats_.reads;
  return it->second->read_lpm(key);
}

void EwoEngine::write(std::vector<pkt::WriteOp> ops, pkt::Packet output, WriteRelease release) {
  // EWO commits locally: apply, then release the output immediately.
  for (const auto& op : ops) {
    auto it = spaces_.find(op.space);
    if (it == spaces_.end()) continue;
    if (it->second->config().merge == MergePolicy::kGSet) {
      set_add(*it->second, op.space, op.key, op.value);
    } else {
      local_write(*it->second, op.space, op.key, op.value);
    }
  }
  if (release) release(std::move(output));
}

std::optional<std::uint64_t> EwoEngine::update(std::uint32_t space, std::uint64_t key,
                                               std::int64_t delta, UpdateDone done) {
  auto it = spaces_.find(space);
  if (it == spaces_.end()) return std::nullopt;
  EwoSpaceState& st = *it->second;
  ++stats_.local_writes;
  const std::uint64_t result = st.add_local(key, delta);
  const telemetry::SpanContext tr = trace_origin("ewo_add", space, key);
  observe_commit(st, space, key);
  if (st.config().mirror_writes) mirror_enqueue(st, key, tr);
  if (done) done(result);
  return result;
}

void EwoEngine::local_write(EwoSpaceState& st, std::uint32_t space, std::uint64_t key,
                            std::uint64_t value) {
  ++stats_.local_writes;
  // Lamport-style hybrid timestamp (§6.2 allows either a Lamport clock or a
  // synchronized real-time clock): strictly monotone per switch, so two
  // same-instant local writes still produce ordered versions and the later
  // value is never rejected by remote merges.
  TimeNs ts = host_.sw().simulator().now() + host_.config().clock_offset;
  if (ts <= last_lww_timestamp_) ts = last_lww_timestamp_ + 1;
  last_lww_timestamp_ = ts;
  const RawVersion version = Version::pack(ts, host_.self());
  st.write_local(key, value, version);
  const telemetry::SpanContext tr = trace_origin("ewo_write", space, key);
  if (obs_ != nullptr && obs_->enabled()) {
    obs_->on_commit(space, key, version, host_.self(), expected_replicas());
  }
  if (st.config().mirror_writes) mirror_enqueue(st, key, tr);
}

void EwoEngine::set_add(EwoSpaceState& st, std::uint32_t space, std::uint64_t key,
                        std::uint64_t bits) {
  ++stats_.local_writes;
  st.set_add_local(key, bits);
  const telemetry::SpanContext tr = trace_origin("ewo_set_add", space, key);
  observe_commit(st, space, key);
  if (st.config().mirror_writes) mirror_enqueue(st, key, tr);
}

// ---------------------------------------------------------------------------
// Mirroring / periodic sync (§6.2)
// ---------------------------------------------------------------------------

const std::vector<SwitchId>& EwoEngine::replication_targets() const noexcept {
  return host_.placement(group_space_).members;
}

std::uint32_t EwoEngine::expected_replicas() const noexcept {
  std::uint32_t n = 0;
  for (SwitchId dst : replication_targets()) {
    if (dst != host_.self()) ++n;
  }
  return n;
}

void EwoEngine::observe_commit(const EwoSpaceState& st, std::uint32_t space, std::uint64_t key) {
  if (obs_ == nullptr || !obs_->enabled()) return;
  // The identity the observatory will see back in on_apply: for CRDTs that is
  // the value of this switch's own slot (monotone), for LWW the packed
  // version. collect_own_entries gives exactly the entries we would mirror.
  observe_scratch_.clear();
  std::vector<pkt::EwoEntry>& own = observe_scratch_;
  st.collect_own_entries(key, own);
  if (own.empty()) return;
  std::uint64_t ident = 0;
  if (st.config().merge == MergePolicy::kLww) {
    ident = own.front().version;
  } else {
    for (const auto& e : own) ident = std::max(ident, e.value);
  }
  obs_->on_commit(space, key, ident, host_.self(), expected_replicas());
}

void EwoEngine::mirror_enqueue(const EwoSpaceState& st, std::uint64_t key,
                               const telemetry::SpanContext& trace) {
  mirror_buffer_.push_back({&st, key, trace});
  if (mirror_buffer_.size() >= st.config().mirror_batch) flush_mirror_buffer();
}

void EwoEngine::flush_mirror_buffer() {
  if (mirror_buffer_.empty()) return;
  pkt::EwoUpdate update;
  update.origin = host_.self();
  update.periodic = false;
  // A coalesced flush carries one trace context on the wire: the first
  // sampled write in the batch. Later sampled writes in the same batch lose
  // their individual linkage (documented in DESIGN.md §9).
  telemetry::SpanContext flush_trace;
  for (const auto& slot : mirror_buffer_) {
    slot.st->collect_own_entries(slot.key, update.entries);
    if (!flush_trace.sampled() && slot.trace.sampled()) flush_trace = slot.trace;
  }
  mirror_buffer_.clear();
  ActiveTraceScope scope(host_, flush_trace);
  std::uint64_t copies = 0;
  for (SwitchId dst : replication_targets()) {
    if (dst == host_.self()) continue;
    stats_.bytes += host_.send(dst, update);
    ++copies;
  }
  stats_.updates_sent += copies;
}

void EwoEngine::periodic_sync() {
  if (spaces_.empty()) return;
  ++stats_.sync_rounds;
  // Sync spaces in ascending id order: sync packets (and therefore the whole
  // simulation) must not depend on unordered_map iteration order.
  std::vector<pkt::EwoEntry> all;
  for (const std::uint32_t id : sorted_space_ids(spaces_)) {
    spaces_.at(id)->collect_sync_entries(all);
  }
  if (all.empty()) return;

  std::vector<SwitchId> targets;
  for (SwitchId m : replication_targets()) {
    if (m != host_.self()) targets.push_back(m);
  }
  if (targets.empty()) return;

  // Root a span per sync round so anti-entropy repair traffic is visible in
  // the causal DAG (sampled at the same 1-in-N rate as writes).
  const telemetry::SpanContext sync_trace = trace_root("ewo_sync");
  ActiveTraceScope scope(host_, sync_trace.sampled() ? sync_trace : host_.active_trace());

  const std::size_t chunk = host_.config().sync_chunk_entries;
  for (std::size_t off = 0; off < all.size(); off += chunk) {
    pkt::EwoUpdate update;
    update.origin = host_.self();
    update.periodic = true;
    const std::size_t end = std::min(off + chunk, all.size());
    update.entries.assign(all.begin() + static_cast<std::ptrdiff_t>(off),
                          all.begin() + static_cast<std::ptrdiff_t>(end));
    if (host_.config().sync_fanout == SyncFanout::kRandomOne) {
      const SwitchId dst = targets[rng_.next_below(targets.size())];
      stats_.bytes += host_.send(dst, update);
      stats_.sync_entries_sent += update.entries.size();
      ++stats_.updates_sent;
    } else {
      for (SwitchId dst : targets) {
        stats_.bytes += host_.send(dst, update);
        stats_.sync_entries_sent += update.entries.size();
        ++stats_.updates_sent;
      }
    }
  }
}

const EwoSpaceState* EwoEngine::space_state(std::uint32_t id) const {
  auto it = spaces_.find(id);
  return it == spaces_.end() ? nullptr : it->second.get();
}

}  // namespace swish::shm
