// One typed record path: the per-node record log each sim::Simulator owns
// next to its MetricsRegistry. It keeps three kinds of typed record:
//
//  - TraceEvent, the flight recorder: virtual-time events (packet in/out,
//    drop, recirculation, protocol message by class, ownership migration,
//    failover, membership, INT) filtered by a per-category mask. With a
//    category masked off, its hot-path guard is one mask load and a branch
//    and nothing is allocated — both regression-tested in test_telemetry.cpp.
//  - DropRecord, mirror-on-drop: every drop site in the fabric — link queue
//    overflow, on-wire loss, dead-node blackhole, missing route, data-plane
//    capacity, recirculation cap, protocol parse errors, engine rejects,
//    quorum-unreachable consensus writes — records a typed drop carrying
//    whatever INT stack the dropped packet had accumulated, so any loss is
//    attributable to an exact hop and cause. Per-(node, reason) tallies are
//    exact and never evicted.
//  - IntSinkReport: when an INT-sampled packet reaches its destination
//    switch, the per-hop stack it accumulated (switch id, ingress/egress
//    timestamps, queue depth, rule hit) is peeled off the wire and recorded.
//
// A drop or INT sink site makes one call; the log itself emits the matching
// `drop` event (named by its DropReason) or `int` event when that category
// is traced.
//
// Every kind is kept per node, up to a per-kind cap (oldest evicted first),
// and numbered densely from 1 per (node, kind). Retention and numbering are
// therefore a pure function of each node's own record stream. Each node
// lives on exactly one shard and records single-writer in simulation order,
// so gathering every shard's log and sorting by (time, node, seq) gives one
// deterministic canonical stream at any shard count.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace swish::telemetry {

/// Trace event categories, combinable as a bitmask.
enum TraceCategory : std::uint32_t {
  kTracePacket = 1u << 0,        ///< packet admitted / delivered / sent by a switch
  kTraceDrop = 1u << 1,          ///< every drop record, named by its DropReason
  kTraceRecirc = 1u << 2,        ///< pipeline recirculation
  kTraceProtoChain = 1u << 3,    ///< SRO/ERO chain messages (write req/fwd/ack/release)
  kTraceProtoEwo = 1u << 4,      ///< EWO update broadcast / apply
  kTraceProtoOwn = 1u << 5,      ///< OWN ownership messages (request/grant/update)
  kTraceProtoControl = 1u << 6,  ///< heartbeats, redirects, recovery chunks
  kTraceMigration = 1u << 7,     ///< per-key ownership migration (grant installed, revoke)
  kTraceFailover = 1u << 8,      ///< failure declared / failover complete / readmission
  kTraceMembership = 1u << 9,    ///< SWIM suspicion / refutation / faulty verdicts + wire msgs
  kTraceProtoCon = 1u << 10,     ///< CON consensus messages (forward/prepare/accept/learn)
  kTraceInt = 1u << 11,          ///< INT sampling / hop append / sink extraction
  kTraceAll = 0xffffffffu,
};

/// Parses a comma-separated category list ("packet,drop,proto-chain", or
/// "all") into a mask. Returns nullopt on any unknown name.
std::optional<std::uint32_t> parse_trace_mask(std::string_view spec);

/// Human-readable list of category names in `mask`.
std::string trace_mask_to_string(std::uint32_t mask);

/// Every valid category name, comma-separated (CLI help and error text).
std::string trace_category_list();

/// One trace event. `what` must point at a string literal (or other
/// static-storage string): records store the pointer, not a copy.
struct TraceEvent {
  TimeNs time = 0;
  NodeId node = 0;
  std::uint64_t seq = 0;  ///< per-node event index (dense from 1)
  std::uint32_t category = 0;
  const char* what = "";
  std::uint64_t a = 0;  ///< event-specific (key, space, peer id, ...)
  std::uint64_t b = 0;  ///< event-specific (bytes, seq, port, ...)
};

/// One INT hop record: what one switch contributed while forwarding the
/// packet. rule_hit is the egress port + 1 (0 = local delivery / none), the
/// closest analogue of a match-action "which rule forwarded this" id the
/// simulated pipeline has.
struct IntHop {
  std::uint32_t switch_id = 0;
  TimeNs ingress_ts = 0;
  TimeNs egress_ts = 0;
  std::uint32_t queue_depth = 0;  ///< data-plane backlog (packets) at ingress
  std::uint32_t rule_hit = 0;
};

/// Every way the fabric can lose a packet or reject an operation, unified in
/// one typed enum so no drop site reports a bare counter bump.
enum class DropReason : std::uint8_t {
  kLinkQueueOverflow = 0,   ///< serialization queue past max_queue_delay
  kLinkLoss,                ///< Bernoulli on-wire loss
  kDeadNode,                ///< delivered to a failed switch (blackhole)
  kNoRoute,                 ///< routing table has no port toward the target
  kDataplaneCapacity,       ///< switch pipeline backlog past dataplane_queue
  kRecircCap,               ///< recirculation count past max_recirculations
  kParseError,              ///< malformed protocol payload at the consumer
  kCpBufferFull,            ///< SRO/ERO writer CP output buffer full
  kOwnQueueOverflow,        ///< OWN per-key migration queue full
  kConQueueOverflow,        ///< CON follower forward queue full
  kWriteRetriesExhausted,   ///< retransmit budget spent, write abandoned
  kQuorumUnreachable,       ///< CON write could not reach a majority
  kRecoveryAbandoned,       ///< recovery stream target unreachable
};
inline constexpr std::size_t kNumDropReasons = 13;

/// The reason's name, also the `what` of its trace event.
const char* to_string(DropReason reason) noexcept;

/// Exact drop counts of one node, indexed by DropReason.
using DropTally = std::array<std::uint64_t, kNumDropReasons>;

/// One mirrored drop. `hops` is the packet's INT stack at the drop point
/// (empty for unsampled packets and packetless rejects); `detail` is
/// site-specific (peer node, destination, space id, retry count, ...).
struct DropRecord {
  TimeNs time = 0;
  NodeId node = kInvalidNode;
  std::uint64_t seq = 0;  ///< per-node record index (dense from 1)
  DropReason reason = DropReason::kLinkLoss;
  std::uint32_t packet_bytes = 0;  ///< 0 when no packet was materialized
  std::uint64_t detail = 0;
  std::vector<IntHop> hops;
};

/// One INT sink extraction at `node`: the full path a sampled packet took.
struct IntSinkReport {
  TimeNs time = 0;
  NodeId node = kInvalidNode;
  std::uint64_t seq = 0;     ///< per-sink report index (dense from 1)
  bool truncated = false;    ///< hop stack hit the cap somewhere en route
  std::uint8_t hop_cap = 0;
  std::uint32_t packet_bytes = 0;
  std::vector<IntHop> hops;
};

/// Bounded per-node log of one record type R (TraceEvent, DropRecord or
/// IntSinkReport): each node keeps its newest `capacity` records.
template <typename R>
class NodeLog {
 public:
  explicit NodeLog(std::size_t capacity) noexcept : capacity_(capacity) {}

  void set_capacity(std::size_t capacity) noexcept { capacity_ = capacity; }

  /// Numbers `rec` next in its node's sequence and appends it, evicting the
  /// node's oldest record past the cap.
  void push(R rec) {
    Ring& ring = rings_[rec.node];
    rec.seq = ring.next_seq++;
    ring.records.push_back(std::move(rec));
    if (ring.records.size() > capacity_) ring.records.pop_front();
    ++recorded_;
  }

  /// Records pushed, evicted ones included.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  /// True once some node holds a ring (the zero-allocation check).
  [[nodiscard]] bool allocated() const noexcept { return !rings_.empty(); }

  /// Appends the retained records: nodes ascending, each node oldest first.
  void append_to(std::vector<R>& out) const {
    for (const auto& [node, ring] : rings_) {
      out.insert(out.end(), ring.records.begin(), ring.records.end());
    }
  }

 private:
  struct Ring {
    std::deque<R> records;
    std::uint64_t next_seq = 1;
  };

  std::size_t capacity_;
  std::map<NodeId, Ring> rings_;
  std::uint64_t recorded_ = 0;
};

/// The retained records of one or more logs (Fabric::all_records() gathers
/// every shard's).
struct Records {
  std::vector<TraceEvent> events;
  std::vector<DropRecord> drops;
  std::vector<IntSinkReport> int_reports;
  std::map<NodeId, DropTally> drop_counts;  ///< exact, never evicted
  std::uint64_t events_recorded = 0;        ///< trace events, evicted ones included

  /// Sorts every kind into canonical (time, node, seq) order.
  void sort_canonical();
};

/// The per-simulator record log.
class RecordLog {
 public:
  static constexpr std::size_t kEventsPerNode = 4096;
  static constexpr std::size_t kDropsPerNode = 4096;
  static constexpr std::size_t kReportsPerNode = 1u << 16;

  /// The simulator stamps records with virtual time through this hook, so
  /// the log has no dependency on the simulator type.
  void set_clock(const TimeNs* now) noexcept { now_ = now; }

  /// Traces the categories in `mask` (replacing the current mask; 0 turns
  /// tracing off), keeping each node's newest `events_per_node` events.
  void enable_trace(std::uint32_t mask, std::size_t events_per_node = kEventsPerNode) noexcept {
    mask_ = mask;
    events_.set_capacity(events_per_node);
  }
  [[nodiscard]] std::uint32_t trace_mask() const noexcept { return mask_; }

  /// Hot-path trace event. With the category masked off this is one load
  /// and one predictable branch; nothing is allocated.
  void trace(TraceCategory cat, NodeId node, const char* what, std::uint64_t a = 0,
             std::uint64_t b = 0) {
    if ((mask_ & cat) == 0) return;
    trace_slow(cat, node, what, a, b);
  }

  /// Mirror-on-drop: a typed drop at `node`, tallied by reason, with the
  /// packet's INT stack when it had one.
  void drop(NodeId node, DropReason reason, std::uint32_t packet_bytes, std::uint64_t detail,
            std::vector<IntHop> hops = {});

  /// An INT sink extraction at `node`.
  void int_sink(NodeId node, std::vector<IntHop> hops, bool truncated, std::uint8_t hop_cap,
                std::uint32_t packet_bytes);

  [[nodiscard]] const NodeLog<TraceEvent>& events() const noexcept { return events_; }

  /// Appends this log's retained records, drop tallies and event count to
  /// `out`. Call out.sort_canonical() after the last log.
  void collect(Records& out) const;

 private:
  void trace_slow(TraceCategory cat, NodeId node, const char* what, std::uint64_t a,
                  std::uint64_t b);
  [[nodiscard]] TimeNs now() const noexcept { return now_ != nullptr ? *now_ : 0; }

  const TimeNs* now_ = nullptr;
  std::uint32_t mask_ = 0;
  NodeLog<TraceEvent> events_{kEventsPerNode};
  NodeLog<DropRecord> drops_{kDropsPerNode};
  NodeLog<IntSinkReport> int_reports_{kReportsPerNode};
  std::map<NodeId, DropTally> drop_counts_;
};

/// Writes trace events as one text line each:
///   <time> <category> n<node> <what> a=<a> b=<b>
void write_trace(std::ostream& os, const std::vector<TraceEvent>& events);

}  // namespace swish::telemetry
