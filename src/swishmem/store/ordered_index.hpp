// Ordered, versioned in-memory index for sparse register spaces: a
// copy-on-write B+-tree keyed by fixed-width integers, the memtx-style shape
// of Tarantool's bps_tree (ROADMAP item 5). Three properties the flat
// register arrays cannot give:
//
//   * sparse population — millions of addressable keys, memory proportional
//     to live entries (a leaf costs ~kLeafCap entries; nothing is allocated
//     for absent keys);
//   * ordered iteration — in-order walks, resumable scans, and longest-prefix
//     match over packed (prefix, length) keys, all deterministic across runs
//     and shard counts because the order is the key order, not a hash order;
//   * O(1) consistent snapshots — Snapshot pins the root; subsequent writes
//     path-copy any node a pin still references (use_count > 1) and mutate
//     in place otherwise, so a recovery/migration donor can stream a frozen
//     image while writes continue (§6.3 without the stop-the-world pause).
//
// Nodes are std::shared_ptr-linked; a released snapshot drops its subtree
// references and the frozen pages free immediately (no GC, no leak — the
// ASan gate in tools/check.sh verifies). All counters (alive nodes, CoW
// copies, live entries, pins) live in a Counters block shared by the index
// and every outstanding snapshot, so memory accounting stays truthful even
// while pins hold pages the live tree has already replaced.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace swish::shm::store {

/// Erase marker: entries whose value is kStoreTombstone are "deleted" keys
/// kept as first-class entries so guard sequences survive erasure and
/// snapshots/replays carry the deletion (matches shm::kTombstone).
inline constexpr std::uint64_t kStoreTombstone = ~0ULL;

/// One live key. `version` is protocol-defined (LWW version, OWN write
/// counter); `aux` is a 32-bit protocol side-slot (SRO guard sequence, OWN
/// directory owner+1); `flags` holds protocol bits (SRO pending / OWN owned).
struct Entry {
  std::uint64_t key = 0;
  std::uint64_t value = 0;
  std::uint64_t version = 0;
  std::uint32_t aux = 0;
  std::uint8_t flags = 0;

  static constexpr std::uint8_t kFlagPending = 1;  ///< SRO pending bit
  static constexpr std::uint8_t kFlagOwned = 1;    ///< OWN ownership bit
};

// -- Longest-prefix-match key packing -----------------------------------------
//
// LPM state is stored under composite keys ordered by (masked prefix, length):
// pack(prefix, len) = (prefix & mask(len)) << 8 | len. Lookup probes lengths
// from key_bits down to 0, so the logical key width must leave 8 bits of
// headroom (key_bits <= 56).

inline constexpr unsigned kLpmLenBits = 8;
inline constexpr unsigned kMaxLpmKeyBits = 64 - kLpmLenBits;

/// High-`len`-bit mask of a `key_bits`-wide key (len == 0 -> 0, the default
/// route that matches everything).
constexpr std::uint64_t lpm_mask(unsigned prefix_len, unsigned key_bits) noexcept {
  if (prefix_len == 0) return 0;
  const std::uint64_t full = key_bits >= 64 ? ~0ULL : ((1ULL << key_bits) - 1);
  return full & ~((prefix_len >= key_bits) ? 0ULL : ((1ULL << (key_bits - prefix_len)) - 1));
}

/// Packs (prefix, prefix_len) into one ordered index key. Throws when
/// key_bits > kMaxLpmKeyBits or prefix_len > key_bits.
std::uint64_t lpm_pack(std::uint64_t prefix, unsigned prefix_len, unsigned key_bits);

class OrderedIndex {
 public:
  /// Per-entry visitor; return false to stop the walk early.
  using Visitor = std::function<bool(const Entry&)>;

  /// Aggregate allocation/snapshot accounting, shared with outstanding
  /// snapshots so pinned-but-replaced pages stay counted until released.
  struct Counters {
    std::size_t leaves = 0;
    std::size_t inners = 0;
    std::size_t entries = 0;         ///< live entries in the *current* tree
    std::uint64_t cow_copies = 0;    ///< nodes cloned because a pin shared them
    std::size_t pins = 0;            ///< outstanding snapshots
    std::function<void()> observer;  ///< fired after pin create/release
  };

  OrderedIndex();
  ~OrderedIndex();
  OrderedIndex(const OrderedIndex&) = delete;
  OrderedIndex& operator=(const OrderedIndex&) = delete;

  /// Returns the entry for `key`, inserting a zeroed one if absent. The
  /// mutation path-copies every node still referenced by a snapshot, so the
  /// returned reference is safe to write through. Valid until the next
  /// structural change (insert of another key / clear).
  Entry& upsert(std::uint64_t key);

  /// Read-only lookup; nullptr when the key has no entry (tombstones are
  /// entries and ARE returned — semantics belong to the caller).
  [[nodiscard]] const Entry* find(std::uint64_t key) const noexcept;

  /// In-order walk over all entries (including tombstones).
  void for_each(const Visitor& fn) const;

  /// Longest-prefix match over lpm_pack()ed keys: probes prefix lengths
  /// key_bits..0, skipping tombstone entries; nullptr when nothing matches.
  [[nodiscard]] const Entry* lookup_lpm(std::uint64_t key, unsigned key_bits) const noexcept;

  /// O(1) frozen view of the current tree. Writes after the pin never alter
  /// what the snapshot sees; the pin holds the frozen pages alive until the
  /// Snapshot is destroyed.
  class Snapshot {
   public:
    Snapshot() = default;
    ~Snapshot();
    Snapshot(Snapshot&&) noexcept = default;
    Snapshot& operator=(Snapshot&& other) noexcept;
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    [[nodiscard]] bool valid() const noexcept { return counters_ != nullptr; }
    [[nodiscard]] std::size_t size() const noexcept { return entries_; }

    [[nodiscard]] const Entry* find(std::uint64_t key) const noexcept;
    void for_each(const Visitor& fn) const;
    /// In-order walk over [lo, max-key], the whole remaining key space (the
    /// resumable-drain hook recovery uses). Returns false when the visitor
    /// stopped early; resume by re-scanning from the key the visitor
    /// rejected.
    bool scan(std::uint64_t lo, const Visitor& fn) const;

    /// Releases the pin early (idempotent).
    void release() noexcept;

   private:
    friend class OrderedIndex;
    Snapshot(std::shared_ptr<const void> root, std::size_t entries,
             std::shared_ptr<Counters> counters) noexcept;

    std::shared_ptr<const void> root_;  ///< opaque Node; cast internally
    std::size_t entries_ = 0;
    std::shared_ptr<Counters> counters_;
  };

  [[nodiscard]] Snapshot snapshot() const;

  /// Drops all entries. Pinned snapshots keep their frozen pages.
  void clear();

  [[nodiscard]] std::size_t size() const noexcept { return counters_->entries; }
  [[nodiscard]] bool empty() const noexcept { return counters_->entries == 0; }

  /// Bytes of every alive node — the live tree plus pages only pins still
  /// reference (the honest SRAM story: frozen pages are real memory).
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  [[nodiscard]] const Counters& counters() const noexcept { return *counters_; }
  /// Installs (or clears) the pin-change observer (gauge refresh hook).
  void set_observer(std::function<void()> fn) noexcept { counters_->observer = std::move(fn); }

 private:
  struct Node;
  using NodePtr = std::shared_ptr<Node>;

  [[nodiscard]] Node* make_unique_child(Node& parent, std::size_t child_idx);
  void split_child(Node& parent, std::size_t child_idx);
  [[nodiscard]] NodePtr clone(const Node& n);

  NodePtr root_;
  std::shared_ptr<Counters> counters_;
};

}  // namespace swish::shm::store
