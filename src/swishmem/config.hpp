// Configuration of SwiShmem register spaces and the per-switch runtime.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace swish::shm {

/// The register classes of §5 (Table 1). The paper names three; kOWN covers
/// its fourth access pattern — write-intensive strongly-consistent state
/// (§6.3, e.g. NAT port allocation) — via per-key single-writer ownership.
enum class ConsistencyClass : std::uint8_t {
  kSRO,  ///< Strong Read Optimized: linearizable, chain-replicated
  kERO,  ///< Eventual Read Optimized: SRO writes, always-local reads
  kEWO,  ///< Eventual Write Optimized: local writes, async replication
  kOWN,  ///< Owned: per-key single writer, ownership migrates to the writer
  /// Consensus: majority-quorum linearizable writes through an elected
  /// coordinator (Paxos mapped onto switch pipelines, ROADMAP item 3).
  /// Survives replica failure without a chain head; supports atomic
  /// multi-key transactions (one consensus slot carries all ops) and
  /// lease-protected local reads.
  kCON,
};

ConsistencyClass parse_consistency_class(const std::string& s);  // throws on unknown

/// Storage layout of a space (ROADMAP item 5).
enum class SpaceKind : std::uint8_t {
  /// Flat fixed-size arrays/tables sized at config time (the original
  /// layout): O(1) access, memory proportional to `size` whether keys are
  /// live or not.
  kDense,
  /// Ordered copy-on-write B+-tree (swishmem/store/): millions of
  /// addressable keys with memory proportional to live keys, ordered/range
  /// iteration, longest-prefix-match reads, and O(1) consistent snapshots.
  kSparse,
};

SpaceKind parse_space_kind(const std::string& s);  // throws on unknown

/// Failure-detection protocol run by the fabric (ROADMAP item 2).
enum class MembershipProtocol : std::uint8_t {
  /// The original §6.3 design: every switch beacons the central controller,
  /// which scans for heartbeat silence. Simple, but the controller is both a
  /// single point of failure and an O(switches) bottleneck.
  kHeartbeat,
  /// SWIM-style gossip between switch control planes: randomized ping,
  /// ping-req indirection, suspicion timeouts with incarnation-numbered
  /// refutation, and piggybacked membership dissemination. The controller
  /// only consumes finished verdicts — it is not in the detection loop.
  kSwim,
};

MembershipProtocol parse_membership_protocol(const std::string& s);  // throws on unknown

/// How an EWO replica merges remote updates (§6.2).
enum class MergePolicy : std::uint8_t {
  kLww,        ///< last-writer-wins by (timestamp, switch-id) version
  kGCounter,   ///< increment-only CRDT counter (per-switch vector, max-merge)
  kPNCounter,  ///< increment/decrement CRDT counter (two vectors)
  /// Grow-only bit-set CRDT: each register is a 64-bit membership bitmap and
  /// merge is bitwise OR. §6.2 leaves in-switch CRDT sets as an open
  /// question; a G-set over register bitmaps is implementable on PISA
  /// hardware (stateful ALUs support OR) and covers shared blocklists.
  kGSet,
};

const char* to_string(ConsistencyClass cls) noexcept;
const char* to_string(MergePolicy policy) noexcept;
const char* to_string(SpaceKind kind) noexcept;
const char* to_string(MembershipProtocol protocol) noexcept;

/// Static description of one shared register space (a named register array or
/// control-plane table replicated across the deployment).
struct SpaceConfig {
  std::uint32_t id = 0;
  std::string name;
  ConsistencyClass cls = ConsistencyClass::kEWO;
  /// Dense: number of registers / table capacity (allocated up front).
  /// Sparse: addressable key count only — nothing is allocated until keys go
  /// live, so millions are fine here.
  std::size_t size = 1024;
  unsigned value_bits = 64;

  /// Storage layout; kSparse rebuilds the space on the ordered CoW store.
  SpaceKind kind = SpaceKind::kDense;
  /// Logical key width in bits. Sparse spaces accepting LPM-packed keys
  /// (store::lpm_pack) need key_bits <= 56; plain keyed use allows 64.
  unsigned key_bits = 64;

  // SRO/ERO only --------------------------------------------------------
  /// Guard (sequence number + pending bit) slots. 0 means one per key; a
  /// smaller count shares guards across hashed keys — the §7 memory
  /// optimization, at the cost of false-pending read redirections.
  std::size_t guard_slots = 0;
  /// True when the state lives in a control-plane table (NAT / firewall /
  /// LB connection tables): chain hops then apply updates via their CPs.
  bool table_backed = false;

  // EWO only -------------------------------------------------------------
  MergePolicy merge = MergePolicy::kLww;
  /// Immediately mirror each write to the group (in addition to periodic
  /// sync). Disable to measure the sync-only ablation.
  bool mirror_writes = true;
  /// Coalesce this many mirrored entries per update packet (1 = no batching;
  /// larger trades bandwidth for staleness, §7 "Bandwidth overhead").
  std::size_t mirror_batch = 1;

  [[nodiscard]] std::size_t effective_guard_slots() const noexcept {
    return guard_slots == 0 ? size : guard_slots;
  }
  [[nodiscard]] bool sparse() const noexcept { return kind == SpaceKind::kSparse; }
};

/// The chain-replicated classes (SRO, ERO): a rejoining replica enters their
/// chains only after a snapshot stream from the live tail (§6.3).
[[nodiscard]] constexpr bool chain_class(ConsistencyClass cls) noexcept {
  return cls == ConsistencyClass::kSRO || cls == ConsistencyClass::kERO;
}

/// Where one space lives (§6.3, §9): its live replicas in chain order (head
/// first, tail last) and the controller epoch that placed them. The
/// controller's directory places every space; engines read the placement
/// through ShmRuntime::placement().
struct Placement {
  std::uint32_t epoch = 0;
  std::vector<SwitchId> members;

  friend bool operator==(const Placement&, const Placement&) = default;
};

/// One controller push: a placement per space it names, all stamped with the
/// push's epoch.
using PlacementTable = std::map<std::uint32_t, Placement>;

/// Per-switch runtime tuning. Protocol settings that no deployment varies
/// are named constants beside the one engine that reads them.
struct RuntimeConfig {
  // SRO ------------------------------------------------------------------
  TimeNs write_retry_timeout = 5 * kMs;   ///< writer CP retransmit interval
  unsigned max_write_retries = 20;
  std::size_t cp_buffer_limit = 100'000;  ///< buffered output packets (CP DRAM)

  // EWO ------------------------------------------------------------------
  TimeNs sync_period = 1 * kMs;           ///< periodic full-state scan (§6.2)
  TimeNs mirror_flush_interval = 100 * kUs;  ///< flush partial mirror batches

  // Clocks -----------------------------------------------------------------
  /// Fixed offset of this switch's clock from simulated true time; the paper
  /// cites data-plane PTP achieving tens of ns (§6.2).
  TimeNs clock_offset = 0;

  // Liveness ---------------------------------------------------------------
  /// Heartbeat interval towards the controller (switches without SWIM peers).
  TimeNs heartbeat_period = 10 * kMs;
};

}  // namespace swish::shm
