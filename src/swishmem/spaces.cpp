#include "swishmem/spaces.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/rng.hpp"

namespace swish::shm {

store::StoreSpace& make_store(pisa::Switch& sw, const SpaceConfig& cfg) {
  return sw.add_object(std::make_unique<store::StoreSpace>(
      cfg.name + ".store", &sw.simulator().metrics(),
      "store.sw" + std::to_string(sw.id()) + "." + cfg.name + "."));
}

const char* to_string(ConsistencyClass cls) noexcept {
  switch (cls) {
    case ConsistencyClass::kSRO: return "SRO";
    case ConsistencyClass::kERO: return "ERO";
    case ConsistencyClass::kEWO: return "EWO";
    case ConsistencyClass::kOWN: return "OWN";
    case ConsistencyClass::kCON: return "CON";
  }
  return "?";
}

ConsistencyClass parse_consistency_class(const std::string& s) {
  if (s == "sro" || s == "SRO") return ConsistencyClass::kSRO;
  if (s == "ero" || s == "ERO") return ConsistencyClass::kERO;
  if (s == "ewo" || s == "EWO") return ConsistencyClass::kEWO;
  if (s == "own" || s == "OWN") return ConsistencyClass::kOWN;
  if (s == "con" || s == "CON") return ConsistencyClass::kCON;
  throw std::invalid_argument("unknown consistency class: " + s);
}

const char* to_string(MergePolicy policy) noexcept {
  switch (policy) {
    case MergePolicy::kLww: return "LWW";
    case MergePolicy::kGCounter: return "G-counter";
    case MergePolicy::kPNCounter: return "PN-counter";
    case MergePolicy::kGSet: return "G-set";
  }
  return "?";
}

const char* to_string(SpaceKind kind) noexcept {
  switch (kind) {
    case SpaceKind::kDense: return "dense";
    case SpaceKind::kSparse: return "sparse";
  }
  return "?";
}

const char* to_string(MembershipProtocol protocol) noexcept {
  switch (protocol) {
    case MembershipProtocol::kHeartbeat: return "heartbeat";
    case MembershipProtocol::kSwim: return "swim";
  }
  return "?";
}

MembershipProtocol parse_membership_protocol(const std::string& s) {
  if (s == "heartbeat") return MembershipProtocol::kHeartbeat;
  if (s == "swim") return MembershipProtocol::kSwim;
  throw std::invalid_argument("unknown membership protocol: " + s +
                              " (valid: heartbeat, swim)");
}

SpaceKind parse_space_kind(const std::string& s) {
  if (s == "dense" || s == "DENSE") return SpaceKind::kDense;
  if (s == "sparse" || s == "SPARSE") return SpaceKind::kSparse;
  throw std::invalid_argument("unknown space kind: " + s);
}

SroSpaceState::SroSpaceState(pisa::Switch& sw, const SpaceConfig& config) : cfg_(config) {
  if (cfg_.cls == ConsistencyClass::kEWO) {
    throw std::invalid_argument("SroSpaceState: EWO space");
  }
  if (cfg_.sparse()) {
    // Values, guard sequences, and pending bits all live in the entries of
    // one ordered index — no side arrays, per-key guards for free.
    store_ = &make_store(sw, cfg_);
    return;
  }
  if (cfg_.table_backed) {
    table_ = &sw.add_exact_table(cfg_.name + ".table", cfg_.size, 64, cfg_.value_bits);
  } else {
    values_ = &sw.add_register_array(cfg_.name + ".values", cfg_.size, cfg_.value_bits);
  }
  const std::size_t guards = cfg_.effective_guard_slots();
  guard_seq_ = &sw.add_register_array(cfg_.name + ".seq", guards, 32);
  if (cfg_.cls == ConsistencyClass::kSRO) {
    // ERO drops the pending bits entirely (§6.1).
    guard_pending_ = &sw.add_register_array(cfg_.name + ".pending", guards, 1);
  }
}

std::size_t SroSpaceState::slot(std::uint64_t key) const noexcept {
  if (store_) return static_cast<std::size_t>(key);  // per-key guards
  return static_cast<std::size_t>(mix64(key) % cfg_.effective_guard_slots());
}

std::optional<std::uint64_t> SroSpaceState::read(std::uint64_t key) const {
  if (store_) {
    const store::Entry* e = store_->find(key);
    if (e == nullptr || e->value == kTombstone) return std::nullopt;
    return e->value;
  }
  if (table_) return table_->lookup(key);
  if (key >= values_->size()) return std::nullopt;
  return values_->read(static_cast<RegisterIndex>(key));
}

std::optional<std::uint64_t> SroSpaceState::read_lpm(std::uint64_t key) const {
  if (!store_) return std::nullopt;
  const store::Entry* e = store_->lookup_lpm(key, cfg_.key_bits);
  if (e == nullptr) return std::nullopt;
  return e->value;
}

bool SroSpaceState::apply(std::uint64_t key, std::uint64_t value, pisa::CpToken token) {
  if (store_) {
    // Tombstones stay as entries: the guard sequence must survive erasure
    // and snapshots must carry the deletion.
    store_->upsert(key).value = value;
    return true;
  }
  if (table_) {
    if (value == kTombstone) {
      table_->erase(token, key);
      erased_.insert(key);
      return true;
    }
    // A refused key stays in erased_: it is still absent here, so
    // snapshots keep carrying its tombstone.
    if (!table_->insert(token, key, value)) return false;
    erased_.erase(key);
    return true;
  }
  if (key >= values_->size()) return true;  // malformed op: ignore
  values_->write(static_cast<RegisterIndex>(key), value);
  return true;
}

SeqNum SroSpaceState::key_guard_seq(std::uint64_t key) const {
  if (store_) {
    const store::Entry* e = store_->find(key);
    return e != nullptr ? e->aux : 0;
  }
  return guard_seq_->read(static_cast<RegisterIndex>(slot(key)));
}

void SroSpaceState::set_key_guard_seq(std::uint64_t key, SeqNum seq) {
  if (store_) {
    // Guard registers are 32-bit in the dense layout too; keep parity.
    store_->upsert(key).aux = static_cast<std::uint32_t>(seq);
    return;
  }
  guard_seq_->write(static_cast<RegisterIndex>(slot(key)), seq);
}

bool SroSpaceState::key_pending(std::uint64_t key) const {
  if (store_) {
    const store::Entry* e = store_->find(key);
    return e != nullptr && (e->flags & store::Entry::kFlagPending) != 0;
  }
  return guard_pending_ != nullptr &&
         guard_pending_->read(static_cast<RegisterIndex>(slot(key))) != 0;
}

void SroSpaceState::set_key_pending(std::uint64_t key) {
  if (cfg_.cls != ConsistencyClass::kSRO) return;  // ERO has no pending bits
  if (store_) {
    store_->upsert(key).flags |= store::Entry::kFlagPending;
    return;
  }
  guard_pending_->write(static_cast<RegisterIndex>(slot(key)), 1);
}

void SroSpaceState::clear_key_pending_up_to(std::uint64_t key, SeqNum acked_seq) {
  if (cfg_.cls != ConsistencyClass::kSRO) return;
  if (store_) {
    const store::Entry* e = store_->find(key);
    if (e != nullptr && (e->flags & store::Entry::kFlagPending) != 0 && e->aux <= acked_seq) {
      store_->upsert(key).flags &= static_cast<std::uint8_t>(~store::Entry::kFlagPending);
    }
    return;
  }
  const auto guard = static_cast<RegisterIndex>(slot(key));
  if (guard_seq_->read(guard) <= acked_seq) guard_pending_->write(guard, 0);
}

std::vector<SnapshotOp> SroSpaceState::snapshot() const {
  std::vector<SnapshotOp> out;
  if (table_) {
    out.reserve(table_->entry_count() + erased_.size());
    table_->for_each([&](std::uint64_t key, std::uint64_t value) {
      out.push_back({pkt::WriteOp{cfg_.id, key, value}, key_guard_seq(key)});
    });
    // for_each visits in slot order; sort so snapshots (and therefore
    // recovery streams) are deterministic across runs and shard counts.
    std::sort(out.begin(), out.end(),
              [](const SnapshotOp& a, const SnapshotOp& b) { return a.op.key < b.op.key; });
    // Erased keys left no table entry; emit tombstones so a recovered
    // replica that held stale state does not resurrect closed connections.
    for (const std::uint64_t key : erased_) {
      out.push_back({pkt::WriteOp{cfg_.id, key, kTombstone}, key_guard_seq(key)});
    }
  } else {
    // Zero registers need no value transfer, but their guard slots may hold
    // sequences: after the nonzero keys, one {key, 0, seq} op per nonzero
    // slot that no emitted key covers (its lowest key) keeps the target's
    // guards in step with the chain's.
    std::vector<bool> covered(cfg_.effective_guard_slots());
    for (std::size_t i = 0; i < values_->size(); ++i) {
      const std::uint64_t v = values_->read(static_cast<RegisterIndex>(i));
      if (v == 0) continue;
      covered[slot(i)] = true;
      out.push_back({pkt::WriteOp{cfg_.id, i, v}, key_guard_seq(i)});
    }
    for (std::size_t i = 0; i < values_->size(); ++i) {
      const std::size_t g = slot(i);
      const SeqNum seq = guard_seq_->read(static_cast<RegisterIndex>(g));
      if (covered[g] || seq == 0) continue;
      covered[g] = true;
      out.push_back({pkt::WriteOp{cfg_.id, i, 0}, seq});
    }
  }
  return out;
}

store::OrderedIndex::Snapshot SroSpaceState::pin_snapshot() const {
  if (store_) return store_->pin_snapshot();
  return {};
}

void SroSpaceState::reset(pisa::CpToken token) {
  if (store_) store_->clear();
  if (table_) table_->clear(token);
  if (values_) values_->fill(0);
  if (guard_seq_) guard_seq_->fill(0);
  if (guard_pending_) guard_pending_->fill(0);
  erased_.clear();
}

EwoSpaceState::EwoSpaceState(pisa::Switch& sw, const SpaceConfig& config,
                             const std::vector<SwitchId>& replicas, SwitchId self)
    : cfg_(config), self_(self), replicas_(replicas) {
  if (cfg_.cls != ConsistencyClass::kEWO) {
    throw std::invalid_argument("EwoSpaceState: non-EWO space");
  }
  self_index_ = member_slot(self_);
  if (self_index_ == replicas_.size()) {
    throw std::invalid_argument("EwoSpaceState: self not in replica list");
  }

  if (cfg_.sparse()) {
    if (cfg_.merge != MergePolicy::kLww && cfg_.merge != MergePolicy::kGSet) {
      // Counter merges need a dense per-replica vector per key; the single
      // {value, version} entry of the ordered store cannot express one.
      throw std::invalid_argument("sparse EWO spaces support LWW and G-set merges only");
    }
    store_ = &make_store(sw, cfg_);
    return;
  }
  if (cfg_.table_backed) {
    // Dense EWO indexes register arrays by raw key; table-backed spaces key
    // by 64-bit flow hashes, which only the ordered store can address.
    throw std::invalid_argument("dense EWO space '" + cfg_.name +
                                "' cannot be table-backed; use ewo:sparse");
  }

  if (cfg_.merge == MergePolicy::kLww) {
    values_ = &sw.add_register_array(cfg_.name + ".values", cfg_.size, cfg_.value_bits);
    versions_ = &sw.add_register_array(cfg_.name + ".versions", cfg_.size, 64);
    return;
  }
  if (cfg_.merge == MergePolicy::kGSet) {
    // A G-set needs no versions and no per-replica vector: OR-merge is
    // idempotent and commutative over one shared bitmap array.
    values_ = &sw.add_register_array(cfg_.name + ".bits", cfg_.size, cfg_.value_bits);
    return;
  }
  // CRDT vector: one array per replica (§6.2 / §7), pairs for PN counters.
  pos_slots_.reserve(replicas_.size());
  for (SwitchId r : replicas_) {
    pos_slots_.push_back(
        &sw.add_register_array(cfg_.name + ".pos." + std::to_string(r), cfg_.size, cfg_.value_bits));
  }
  if (cfg_.merge == MergePolicy::kPNCounter) {
    neg_slots_.reserve(replicas_.size());
    for (SwitchId r : replicas_) {
      neg_slots_.push_back(&sw.add_register_array(cfg_.name + ".neg." + std::to_string(r),
                                                  cfg_.size, cfg_.value_bits));
    }
  }
}

std::size_t EwoSpaceState::member_slot(SwitchId sw) const noexcept {
  std::size_t i = 0;
  while (i < replicas_.size() && replicas_[i] != sw) ++i;
  return i;
}

std::uint64_t EwoSpaceState::read(std::uint64_t key) const {
  if (store_) {
    const store::Entry* e = store_->find(key);
    return e != nullptr ? e->value : 0;
  }
  const auto i = static_cast<RegisterIndex>(key);
  if (cfg_.merge == MergePolicy::kLww || cfg_.merge == MergePolicy::kGSet) {
    return values_->read(i);
  }
  std::uint64_t sum = 0;
  for (const auto* arr : pos_slots_) sum += arr->read(i);
  for (const auto* arr : neg_slots_) sum -= arr->read(i);
  return sum;
}

std::optional<std::uint64_t> EwoSpaceState::read_lpm(std::uint64_t key) const {
  if (!store_) return std::nullopt;
  const store::Entry* e = store_->lookup_lpm(key, cfg_.key_bits);
  if (e == nullptr) return std::nullopt;
  return e->value;
}

void EwoSpaceState::write_local(std::uint64_t key, std::uint64_t value, RawVersion version) {
  if (cfg_.merge != MergePolicy::kLww) {
    throw std::logic_error("write_local on CRDT space; use add_local");
  }
  if (store_) {
    store::Entry& e = store_->upsert(key);
    e.value = value;
    e.version = version;
    return;
  }
  const auto i = static_cast<RegisterIndex>(key);
  // Atomic (value, version) update: single-event packet processing (§2).
  values_->write(i, value);
  versions_->write(i, version);
}

std::uint64_t EwoSpaceState::add_local(std::uint64_t key, std::int64_t delta) {
  if (cfg_.merge == MergePolicy::kLww || cfg_.merge == MergePolicy::kGSet) {
    throw std::logic_error("add_local requires a counter space");
  }
  const auto i = static_cast<RegisterIndex>(key);
  const std::size_t me = self_index_;
  if (delta >= 0) {
    pos_slots_[me]->add(i, static_cast<std::uint64_t>(delta));
  } else {
    if (cfg_.merge != MergePolicy::kPNCounter) {
      throw std::logic_error("negative delta requires a PN-counter space");
    }
    neg_slots_[me]->add(i, static_cast<std::uint64_t>(-delta));
  }
  return read(key);
}

std::uint64_t EwoSpaceState::set_add_local(std::uint64_t key, std::uint64_t bits) {
  if (cfg_.merge != MergePolicy::kGSet) {
    throw std::logic_error("set_add_local requires a kGSet space");
  }
  if (store_) {
    store::Entry& e = store_->upsert(key);
    e.value |= bits;
    return e.value;
  }
  return values_->merge_or(static_cast<RegisterIndex>(key), bits);
}

bool EwoSpaceState::merge(const pkt::EwoEntry& entry) {
  if (store_) {
    if (cfg_.merge == MergePolicy::kGSet) {
      const store::Entry* e = store_->find(entry.key);
      const std::uint64_t before = e != nullptr ? e->value : 0;
      if ((before | entry.value) == before) return false;
      store_->upsert(entry.key).value = before | entry.value;
      return true;
    }
    // LWW: probe first so a losing entry does not materialize a key.
    const store::Entry* e = store_->find(entry.key);
    if (e != nullptr && entry.version <= e->version) return false;
    if (e == nullptr && entry.version == 0) return false;  // never-written echo
    store::Entry& w = store_->upsert(entry.key);
    w.value = entry.value;
    w.version = entry.version;
    return true;
  }
  const auto i = static_cast<RegisterIndex>(entry.key);
  if (cfg_.merge == MergePolicy::kGSet) {
    if (i >= values_->size()) return false;
    const std::uint64_t before = values_->read(i);
    return values_->merge_or(i, entry.value) != before;
  }
  if (cfg_.merge == MergePolicy::kLww) {
    if (i >= values_->size()) return false;
    if (entry.version <= versions_->read(i)) return false;
    values_->write(i, entry.value);
    versions_->write(i, entry.version);
    return true;
  }
  // CRDT: version field carries (owner << 1) | negative.
  const auto owner = static_cast<SwitchId>(entry.version >> 1);
  const bool negative = (entry.version & 1) != 0;
  const std::size_t owner_slot = member_slot(owner);
  if (owner_slot == replicas_.size()) return false;
  const auto& slots = negative ? neg_slots_ : pos_slots_;
  if (slots.empty() || i >= slots[owner_slot]->size()) return false;
  const std::uint64_t before = slots[owner_slot]->read(i);
  return slots[owner_slot]->merge_max(i, entry.value) != before;
}

void EwoSpaceState::collect_own_entries(std::uint64_t key,
                                        std::vector<pkt::EwoEntry>& out) const {
  if (store_) {
    const store::Entry* e = store_->find(key);
    if (cfg_.merge == MergePolicy::kLww) {
      // Absent keys mirror as {version 0, value 0}, matching what a dense
      // space reads from never-written registers.
      out.push_back({cfg_.id, key, e != nullptr ? e->version : 0, e != nullptr ? e->value : 0});
    } else {
      out.push_back({cfg_.id, key, 0, e != nullptr ? e->value : 0});
    }
    return;
  }
  const auto i = static_cast<RegisterIndex>(key);
  if (cfg_.merge == MergePolicy::kLww) {
    out.push_back({cfg_.id, key, versions_->read(i), values_->read(i)});
    return;
  }
  if (cfg_.merge == MergePolicy::kGSet) {
    out.push_back({cfg_.id, key, 0, values_->read(i)});
    return;
  }
  const std::size_t me = self_index_;
  out.push_back({cfg_.id, key, crdt_tag(self_, false), pos_slots_[me]->read(i)});
  if (!neg_slots_.empty()) {
    out.push_back({cfg_.id, key, crdt_tag(self_, true), neg_slots_[me]->read(i)});
  }
}

void EwoSpaceState::collect_sync_entries(std::vector<pkt::EwoEntry>& out) const {
  if (store_) {
    // Ordered index walk: sync streams are key-ordered and deterministic.
    store_->for_each([&](const store::Entry& e) {
      if (cfg_.merge == MergePolicy::kLww) {
        if (e.version != 0) out.push_back({cfg_.id, e.key, e.version, e.value});
      } else {
        if (e.value != 0) out.push_back({cfg_.id, e.key, 0, e.value});
      }
      return true;
    });
    return;
  }
  if (cfg_.merge == MergePolicy::kGSet) {
    for (std::size_t k = 0; k < cfg_.size; ++k) {
      const auto i = static_cast<RegisterIndex>(k);
      const std::uint64_t bits = values_->read(i);
      if (bits != 0) out.push_back({cfg_.id, k, 0, bits});
    }
    return;
  }
  if (cfg_.merge == MergePolicy::kLww) {
    for (std::size_t k = 0; k < cfg_.size; ++k) {
      const auto i = static_cast<RegisterIndex>(k);
      const RawVersion v = versions_->read(i);
      if (v == 0) continue;  // never written
      out.push_back({cfg_.id, k, v, values_->read(i)});
    }
    return;
  }
  for (std::size_t m = 0; m < replicas_.size(); ++m) {
    for (std::size_t k = 0; k < cfg_.size; ++k) {
      const auto i = static_cast<RegisterIndex>(k);
      const std::uint64_t pos = pos_slots_[m]->read(i);
      if (pos != 0) out.push_back({cfg_.id, k, crdt_tag(replicas_[m], false), pos});
      if (!neg_slots_.empty()) {
        const std::uint64_t neg = neg_slots_[m]->read(i);
        if (neg != 0) out.push_back({cfg_.id, k, crdt_tag(replicas_[m], true), neg});
      }
    }
  }
}

void EwoSpaceState::reset() {
  if (store_) store_->clear();
  if (values_) values_->fill(0);
  if (versions_) versions_->fill(0);
  for (auto* arr : pos_slots_) arr->fill(0);
  for (auto* arr : neg_slots_) arr->fill(0);
}

}  // namespace swish::shm
