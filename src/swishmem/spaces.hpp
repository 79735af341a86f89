// Per-switch storage for SwiShmem register spaces, backed by PISA stateful
// objects so switch memory accounting is real (§7 "Implementation sketch").
//
// SRO/ERO: a value store (register array, or control-plane table for
// table-backed state) plus a guard table of {sequence number, pending bit}
// per slot. Guard slots may be shared across hashed keys to save memory (§7).
//
// EWO: last-writer-wins spaces hold {value, version} pairs; CRDT counter
// spaces hold one register array per replica (the vector), merged by max.
//
// Every class also supports SpaceKind::kSparse (ROADMAP item 5): the flat
// arrays are replaced by one ordered CoW B+-tree (swishmem/store/) whose
// entries carry {value, version, guard_seq, flags} per live key. Sparse
// spaces address millions of keys with memory proportional to live keys,
// iterate in key order (deterministic snapshots), answer range/LPM reads,
// and pin O(1) consistent snapshots for stop-the-world-free recovery.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "packet/swish_wire.hpp"
#include "pisa/switch.hpp"
#include "swishmem/config.hpp"
#include "swishmem/store/store_space.hpp"

namespace swish::shm {

/// Table-backed SRO spaces treat this value as "erase the key" (connection
/// teardown in NAT / firewall / LB tables).
inline constexpr std::uint64_t kTombstone = ~0ULL;

/// One entry of a recovery snapshot: the op replaying the value plus the
/// guard/version sequence at snapshot time.
struct SnapshotOp {
  pkt::WriteOp op;
  SeqNum seq = 0;
};

class SroSpaceState {
 public:
  SroSpaceState(pisa::Switch& sw, const SpaceConfig& config);

  [[nodiscard]] const SpaceConfig& config() const noexcept { return cfg_; }

  /// Guard slot of a key (hash-shared when guard_slots < size, §7). Sparse
  /// spaces keep per-key guards in the entry itself; slot(key) == key there.
  [[nodiscard]] std::size_t slot(std::uint64_t key) const noexcept;

  [[nodiscard]] std::optional<std::uint64_t> read(std::uint64_t key) const;

  /// Longest-prefix match over store::lpm_pack()ed keys; sparse spaces only
  /// (dense spaces return nullopt — they cannot express prefixes).
  [[nodiscard]] std::optional<std::uint64_t> read_lpm(std::uint64_t key) const;

  /// In-order scan of live keys in [lo, hi); sparse spaces only.
  void read_range(std::uint64_t lo, std::uint64_t hi,
                  const std::function<bool(std::uint64_t key, std::uint64_t value)>& fn) const;

  /// Applies a committed value. Table-backed spaces require the CP token
  /// (chain hops route table updates through their control planes, §6.1).
  /// kTombstone erases: dense tables drop the entry (and record the key so
  /// snapshots carry the deletion); sparse spaces keep a tombstone entry.
  void apply(std::uint64_t key, std::uint64_t value, pisa::CpToken token);

  // -- Guard table (slot-addressed; dense layout) -----------------------------

  [[nodiscard]] SeqNum guard_seq(std::size_t slot) const;
  void set_guard_seq(std::size_t slot, SeqNum seq);

  [[nodiscard]] bool pending(std::size_t slot) const;  ///< always false for ERO
  void set_pending(std::size_t slot);

  /// Clears the pending bit iff no write newer than `acked_seq` has been
  /// applied locally (a later in-flight write keeps the register pending).
  void clear_pending_up_to(std::size_t slot, SeqNum acked_seq);

  // -- Guard table (key-addressed; what the chain engine uses) -----------------
  // Dense spaces delegate to the hashed slot above (bit-identical to the old
  // behavior); sparse spaces keep the guard in the key's own entry, so there
  // is no false sharing — and no false-pending redirects.

  [[nodiscard]] SeqNum key_guard_seq(std::uint64_t key) const;
  void set_key_guard_seq(std::uint64_t key, SeqNum seq);
  [[nodiscard]] bool key_pending(std::uint64_t key) const;
  void set_key_pending(std::uint64_t key);
  void clear_key_pending_up_to(std::uint64_t key, SeqNum acked_seq);

  // -- Recovery ----------------------------------------------------------------

  /// Dense spaces: snapshot of all live values with the guard seq at
  /// snapshot time, used by the donor's control plane to rebuild a
  /// recovering replica (§6.3). Deterministically key-ordered. Includes
  /// tombstones (op.value == kTombstone) for erased keys so a recovered
  /// replica that kept stale state does not resurrect closed connections.
  /// Sparse spaces stream pin_snapshot() instead.
  [[nodiscard]] std::vector<SnapshotOp> snapshot() const;

  /// Sparse spaces: O(1) CoW pin of the current state — the donor streams
  /// from the frozen view while writes continue. Dense spaces cannot pin;
  /// callers fall back to snapshot(). Returns an invalid Snapshot for dense.
  [[nodiscard]] store::OrderedIndex::Snapshot pin_snapshot() const;

  [[nodiscard]] const store::StoreSpace* sparse_store() const noexcept { return store_; }

  /// Wipes values and guards (a replacement switch boots empty).
  void reset(pisa::CpToken token);

 private:
  SpaceConfig cfg_;
  pisa::RegisterArray* values_ = nullptr;     // dense, register-backed
  pisa::ExactTable* table_ = nullptr;         // dense, table-backed
  store::StoreSpace* store_ = nullptr;        // sparse (ordered CoW index)
  pisa::RegisterArray* guard_seq_ = nullptr;      // dense only
  pisa::RegisterArray* guard_pending_ = nullptr;  // dense SRO only
  /// Dense table-backed spaces: keys erased since the last reset, with no
  /// surviving table entry to carry the deletion into snapshot(). Ordered so
  /// snapshots stay deterministic. CP DRAM metadata (8 B per erased key).
  std::set<std::uint64_t> erased_;
};

class EwoSpaceState {
 public:
  /// `replicas` is the full deployment (the paper assumes every register is
  /// replicated on every switch, §5); `self` selects this switch's own slot.
  EwoSpaceState(pisa::Switch& sw, const SpaceConfig& config,
                const std::vector<SwitchId>& replicas, SwitchId self);

  [[nodiscard]] const SpaceConfig& config() const noexcept { return cfg_; }

  /// Local read: LWW value, or the vector sum for counters (§6.2).
  [[nodiscard]] std::uint64_t read(std::uint64_t key) const;

  /// Longest-prefix match over store::lpm_pack()ed keys; sparse LWW/G-set
  /// spaces only (nullopt elsewhere, or when no prefix matches).
  [[nodiscard]] std::optional<std::uint64_t> read_lpm(std::uint64_t key) const;

  /// In-order scan of live keys in [lo, hi); sparse spaces only.
  void read_range(std::uint64_t lo, std::uint64_t hi,
                  const std::function<bool(std::uint64_t key, std::uint64_t value)>& fn) const;

  [[nodiscard]] const store::StoreSpace* sparse_store() const noexcept { return store_; }

  /// LWW local write; records the version for mirroring. Invalid for CRDTs.
  void write_local(std::uint64_t key, std::uint64_t value, RawVersion version);

  /// Counter update on this switch's own slot; negative deltas require
  /// kPNCounter. Returns the new aggregated value. Invalid for LWW/sets.
  std::uint64_t add_local(std::uint64_t key, std::int64_t delta);

  /// G-set insertion: ORs `bits` into the key's membership bitmap. Returns
  /// the new bitmap. Valid only for kGSet spaces.
  std::uint64_t set_add_local(std::uint64_t key, std::uint64_t bits);

  /// Merges one remote entry; returns true if local state changed.
  bool merge(const pkt::EwoEntry& entry);

  /// Entries describing this switch's latest knowledge of `key` for the
  /// immediate per-write mirror (own LWW winner, or own CRDT slot(s)).
  void collect_own_entries(std::uint64_t key, std::vector<pkt::EwoEntry>& out) const;

  /// Full-state scan for periodic synchronization: gossips everything this
  /// switch knows, including other replicas' slots, so a crashed broadcaster's
  /// updates still converge (§6.3 EWO failover).
  void collect_sync_entries(std::vector<pkt::EwoEntry>& out) const;

  /// Wipes all slots (a replacement switch boots empty).
  void reset();

 private:
  /// CRDT entries carry the slot owner in the version field:
  /// version = (owner_switch << 1) | is_negative_vector.
  static RawVersion crdt_tag(SwitchId owner, bool negative) noexcept {
    return (static_cast<RawVersion>(owner) << 1) | (negative ? 1 : 0);
  }

  /// Index of `sw` in replicas_, or replicas_.size() when unknown. Linear
  /// scan on purpose: deployments are a handful of switches (the paper
  /// replicates every register on every switch), and this sits on the
  /// per-merge hot path where a hash lookup costs more than the scan.
  [[nodiscard]] std::size_t member_slot(SwitchId sw) const noexcept;

  SpaceConfig cfg_;
  SwitchId self_;
  std::vector<SwitchId> replicas_;
  std::size_t self_index_ = 0;  ///< this switch's slot in replicas_

  // Dense LWW storage.
  pisa::RegisterArray* values_ = nullptr;
  pisa::RegisterArray* versions_ = nullptr;

  // Dense CRDT storage: one array per replica (plus negatives for PN).
  std::vector<pisa::RegisterArray*> pos_slots_;
  std::vector<pisa::RegisterArray*> neg_slots_;

  // Sparse storage (LWW: {value, version} per entry; G-set: value bitmap).
  // Counter merges need a per-replica vector per key and stay dense-only.
  store::StoreSpace* store_ = nullptr;
};

}  // namespace swish::shm
