// Storage for OWN (per-key single-writer ownership) spaces, backed by PISA
// register arrays like the other classes:
//
//   values / versions — the key's value and a per-key monotone write counter
//                       that survives ownership transfers (merge guard);
//   owned             — 1-bit "this switch is the key's current owner";
//   dir               — the home replica's ownership directory, owner id + 1
//                       (0 = unowned). Allocated on every switch, meaningful
//                       only for keys this switch is home for.
//
// Dirty-key tracking for the owner -> home backup flush is control-plane
// metadata and lives in plain memory.
//
// SpaceKind::kSparse folds all four arrays into one ordered CoW index entry
// per live key: value/version in the entry, the owned bit in flags, the
// directory owner (+1) in aux. slot(key) == key there, the scans
// (owned_slots / dir_slots_owned_outside) walk live entries in key order
// instead of the full array, and a donor streams pin_snapshot().
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "pisa/switch.hpp"
#include "swishmem/config.hpp"
#include "swishmem/store/store_space.hpp"

namespace swish::shm {

class OwnSpaceState {
 public:
  OwnSpaceState(pisa::Switch& sw, const SpaceConfig& config);

  [[nodiscard]] const SpaceConfig& config() const noexcept { return cfg_; }

  /// Register slot of a key: direct-indexed when it fits, hashed otherwise.
  [[nodiscard]] std::size_t slot(std::uint64_t key) const noexcept;

  [[nodiscard]] std::uint64_t value(std::uint64_t key) const;
  [[nodiscard]] std::uint64_t version(std::uint64_t key) const;

  /// Installs (value, version) without ownership semantics (grant install,
  /// backup merge, recovery replay).
  void store(std::uint64_t key, std::uint64_t value, std::uint64_t version);

  /// Owner-side write: stores the value, bumps the version, marks the key
  /// dirty for the next backup flush. Requires ownership.
  void owner_write(std::uint64_t key, std::uint64_t value);

  [[nodiscard]] bool owned(std::uint64_t key) const;
  void set_owned(std::uint64_t key, bool owned);

  /// Home-side ownership directory.
  [[nodiscard]] SwitchId dir_owner(std::uint64_t key) const;  ///< kInvalidNode = unowned
  void set_dir_owner(std::uint64_t key, SwitchId owner);
  void clear_dir_owner(std::uint64_t key);

  /// Slots whose dir entry points at a switch outside `live`; used by the
  /// home to reclaim ownership from failed switches (§6.3).
  [[nodiscard]] std::vector<std::uint64_t> dir_slots_owned_outside(
      const std::vector<SwitchId>& live) const;

  /// Drains the dirty-key set accumulated by owner_write.
  [[nodiscard]] std::vector<std::uint64_t> take_dirty();

  /// Dense spaces: all slots with a nonzero version (donor snapshot, §6.3).
  [[nodiscard]] std::vector<std::uint64_t> live_slots() const;

  /// All slots this switch currently owns.
  [[nodiscard]] std::vector<std::uint64_t> owned_slots() const;

  void reset();

  [[nodiscard]] const store::StoreSpace* sparse_store() const noexcept { return store_; }

  /// Sparse spaces: O(1) CoW pin (donor streaming); invalid for dense.
  [[nodiscard]] store::OrderedIndex::Snapshot pin_snapshot() const {
    return store_ != nullptr ? store_->pin_snapshot() : store::OrderedIndex::Snapshot{};
  }

 private:
  SpaceConfig cfg_;
  pisa::RegisterArray* values_ = nullptr;
  pisa::RegisterArray* versions_ = nullptr;
  pisa::RegisterArray* owned_ = nullptr;
  pisa::RegisterArray* dir_ = nullptr;
  store::StoreSpace* store_ = nullptr;  ///< sparse layout (ordered CoW index)
  // Ordered so the backup flush drains keys deterministically (the simulator
  // is bit-reproducible per seed).
  std::set<std::uint64_t> dirty_;
};

}  // namespace swish::shm
