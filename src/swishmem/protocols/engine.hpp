// The pluggable consistency-protocol engine seam (§3, §6): every register
// class of the paper's access-pattern taxonomy is one ProtocolEngine
// implementation living in this directory. ShmRuntime is reduced to packet
// classification, engine lookup, and fabric I/O; everything protocol-specific
// — space storage, wire-message handling, periodic work, and recovery hooks —
// sits behind this interface. Per-protocol counters are not: each engine
// registers them under `shm.sw<id>.<proto>.*` in the metrics registry.
//
// Adding a protocol is a one-directory change: implement ProtocolEngine,
// declare the wire message types it consumes (the runtime builds a
// (message type -> engine) dispatch registry from message_types()), and add
// a case to make_engine() in registry.cpp.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "packet/packet.hpp"
#include "packet/swish_wire.hpp"
#include "swishmem/config.hpp"
#include "swishmem/runtime.hpp"
#include "swishmem/spaces.hpp"
#include "swishmem/store/ordered_index.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/observatory.hpp"
#include "telemetry/records.hpp"
#include "telemetry/span.hpp"

namespace swish::shm {

/// Wraps an eagerly collected snapshot (dense spaces: the collect itself is
/// the freeze point).
std::unique_ptr<SnapshotSource> make_vector_source(std::vector<SnapshotOp> ops);
/// Lazily drains a pinned CoW snapshot in key order; `project` fills the
/// replay op for an entry (protocol-specific seq extraction) or returns
/// false to skip it. The pin is released when the drain completes or the
/// source dies.
std::unique_ptr<SnapshotSource> make_pinned_source(
    store::OrderedIndex::Snapshot snap,
    std::function<bool(const store::Entry&, SnapshotOp&)> project);

/// Ids of `spaces` (a map keyed by space id) matching `space_filter`,
/// ascending: snapshot and sync order must not depend on unordered_map
/// iteration (determinism across runs and shard counts).
template <typename SpaceMap>
[[nodiscard]] std::vector<std::uint32_t> sorted_space_ids(
    const SpaceMap& spaces, std::optional<std::uint32_t> space_filter = std::nullopt) {
  std::vector<std::uint32_t> ids;
  for (const auto& [id, sp] : spaces) {
    if (!space_filter || id == *space_filter) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Donor sources of the engines that store SroSpaceState spaces (chain and
/// kCON), one per space in id order: a sparse space streams a CoW pin taken
/// at this call, a dense one its snapshot() collected now — either way,
/// writes after this call reach the target only through the runtime's live
/// tap.
template <typename SpaceMap>
void append_sro_snapshot_sources(const SpaceMap& spaces,
                                 std::optional<std::uint32_t> space_filter,
                                 SnapshotSources& out) {
  for (const std::uint32_t id : sorted_space_ids(spaces, space_filter)) {
    const SroSpaceState& sp = *spaces.at(id);
    if (sp.sparse_store() != nullptr) {
      out.push_back(make_pinned_source(
          sp.pin_snapshot(), [id](const store::Entry& e, SnapshotOp& op) {
            op = {pkt::WriteOp{id, e.key, e.value}, static_cast<SeqNum>(e.aux)};
            return true;  // tombstones stream too — they carry deletions
          }));
    } else {
      out.push_back(make_vector_source(sp.snapshot()));
    }
  }
}

/// Mints the next write or request id of switch `self` from `counter`: the
/// switch id above a 40-bit counter. The mask keeps a long-lived switch's
/// counter from wrapping into the switch-id bits, so no two switches ever
/// mint the same id.
[[nodiscard]] inline std::uint64_t mint_id(SwitchId self, std::uint64_t& counter) noexcept {
  return (static_cast<std::uint64_t>(self) << 40) | (++counter & ((1ULL << 40) - 1));
}

/// Applies one committed op to a chain or kCON replica through the switch's
/// control plane. A full table that refuses a new key still lets the write
/// commit, so the loss is reported as a kTableFull drop (detail = space id).
inline void apply_committed(ShmRuntime& host, SroSpaceState& sp, const pkt::WriteOp& op) {
  if (!sp.apply(op.key, op.value, host.sw().control_plane().token())) {
    host.report_drop(telemetry::DropReason::kTableFull, op.space);
  }
}

/// RAII guard installing `ctx` as the runtime's active trace context for
/// the current scope; restores the previous context on exit. Used to
/// re-enter a causal chain from deferred work (control-plane submissions,
/// retry timers, flush buffers).
class ActiveTraceScope {
 public:
  ActiveTraceScope(ShmRuntime& host, const telemetry::SpanContext& ctx) noexcept
      : host_(host), saved_(host.active_trace()) {
    host_.set_active_trace(ctx);
  }
  ~ActiveTraceScope() { host_.set_active_trace(saved_); }
  ActiveTraceScope(const ActiveTraceScope&) = delete;
  ActiveTraceScope& operator=(const ActiveTraceScope&) = delete;

 private:
  ShmRuntime& host_;
  telemetry::SpanContext saved_;
};

/// One consistency protocol: owns the space state of its class and the full
/// protocol state machine. One instance per (runtime, class-in-use).
class ProtocolEngine {
 public:
  explicit ProtocolEngine(ShmRuntime& host) : host_(host), obs_(host.observatory()) {}
  virtual ~ProtocolEngine() = default;
  ProtocolEngine(const ProtocolEngine&) = delete;
  ProtocolEngine& operator=(const ProtocolEngine&) = delete;

  [[nodiscard]] virtual ConsistencyClass cls() const noexcept = 0;
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  // -- Spaces -----------------------------------------------------------------
  virtual void add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas) = 0;
  /// Declares a space of this class the switch does NOT replicate (§9).
  /// Engines without a remote-access path reject it.
  virtual void add_remote_space(const SpaceConfig& config);
  [[nodiscard]] virtual bool hosts_space(std::uint32_t space) const noexcept = 0;
  /// True when the engine can serve any operation on the space (hosted or
  /// remotely accessible) — used by the runtime's space -> engine map.
  [[nodiscard]] virtual bool serves_space(std::uint32_t space) const noexcept {
    return hosts_space(space);
  }

  // -- Lifecycle ---------------------------------------------------------------
  /// Called once after configuration bootstrap; register periodic ticks here.
  virtual void start() {}
  /// Wipes all protocol and space state (a replacement switch boots empty).
  virtual void reset() = 0;
  /// A controller push changed placements (bootstrap, failover, readmission,
  /// migration); called once per push, after routing and every placement of
  /// the push are installed.
  virtual void on_config_update() {}

  // -- Datapath (NF-facing, uniform across engines) -----------------------------
  /// Read during packet processing. `ctx` enables redirection; engines that
  /// never redirect ignore it (and accept nullptr).
  virtual ReadStatus read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                          std::uint64_t& value) = 0;
  /// Longest-prefix-match read over a sparse space holding lpm_pack()ed
  /// keys; always local (no redirect — prefix tables are config-like state).
  /// nullopt when the space is dense, unknown, or nothing matches.
  [[nodiscard]] virtual std::optional<std::uint64_t> read_lpm(std::uint32_t space,
                                                              std::uint64_t key);
  /// Write of one or more ops (all in spaces of this engine), applied as one
  /// atomic unit. `release` runs on this switch when the write has committed
  /// per the engine's contract — immediately for eventually-consistent
  /// engines.
  virtual void write(std::vector<pkt::WriteOp> ops, pkt::Packet output, WriteRelease release) = 0;
  /// Read-modify-write (counters). Returns the new value when the update
  /// applied before returning; nullopt when it is deferred (queued behind an
  /// ownership migration), the engine has no read-modify-write, or the space
  /// is unknown. `done`, when set, receives the new value whenever the update
  /// applies — before the return or later.
  virtual std::optional<std::uint64_t> update(std::uint32_t space, std::uint64_t key,
                                              std::int64_t delta, UpdateDone done = {});

  // -- Wire --------------------------------------------------------------------
  /// Message types this engine consumes; the runtime registers the engine
  /// for each in its dispatch registry.
  [[nodiscard]] virtual std::vector<pkt::MsgType> message_types() const = 0;
  /// Handles one protocol message. Returns false when the message belongs to
  /// another engine registered for the same type (e.g. chain traffic for a
  /// space of a different class); the runtime then tries the next claimant.
  /// The engine may move from `msg` only once it claims it (returns true).
  virtual bool handle_message(pkt::SwishMessage& msg) = 0;

  /// Handles a message no one reads afterwards (a local delivery, a test).
  bool handle_message(pkt::SwishMessage&& msg) { return handle_message(msg); }

  // -- Recovery (§6.3) ----------------------------------------------------------
  /// Donor side: appends one source per space of this engine's replayable
  /// state (matching `space_filter`, in space-id order), frozen at this
  /// call. The default appends nothing (EWO replicas converge through
  /// anti-entropy sync instead).
  virtual void append_snapshot_sources(std::optional<std::uint32_t> space_filter,
                                       SnapshotSources& out);
  /// Target side: applies one replayed snapshot/live-tap op in stream order.
  virtual void apply_recovery_op(const pkt::WriteOp& op, SeqNum seq);

 protected:
  /// Metrics registry of the simulation this engine's switch runs in. Every
  /// protocol counter (including the engine's own wire bytes) is a cell here;
  /// readers take them from the registry snapshot, not from the engine.
  [[nodiscard]] telemetry::MetricsRegistry& host_metrics() const;
  /// This engine's registry subtree: "shm.sw<id>.<proto_name>.".
  [[nodiscard]] std::string metric_prefix(const char* proto_name) const;

  /// Starts — or continues — the sampled causal chain for a write
  /// originating on this switch. When the current dispatch already carries a
  /// sampled context (the write was triggered by a redirect, grant, or
  /// recovery frame) the chain continues; otherwise the recorder takes a
  /// fresh root-sampling decision. Records the span and returns its context;
  /// the engine re-enters it (ActiveTraceScope) around whatever sends the
  /// resulting protocol traffic — possibly from deferred control-plane work.
  /// Returns an unsampled context when tracing is off or sampled out.
  /// Inline: the enabled-but-unsampled steady state must cost only a few
  /// loads per write (gated at 2% by bench_throughput --overhead-gate).
  telemetry::SpanContext trace_origin(const char* name, std::uint32_t space, std::uint64_t key) {
    telemetry::SpanRecorder& spans = host_.spans();
    if (!spans.enabled()) return {};
    const telemetry::SpanContext parent = host_.active_trace();
    if (parent.sampled()) return spans.record_instant(parent, host_.self(), name, space, key);
    const telemetry::SpanContext ctx = spans.maybe_start_trace();
    if (!ctx.sampled()) return {};
    const TimeNs t = spans.now();
    spans.record({ctx.trace_id, ctx.span_id, 0, host_.self(), name, t, t, 0, space, key});
    return ctx;
  }

  /// Roots a fresh sampled trace for background/periodic protocol traffic
  /// (anti-entropy sync, backup flushes) when no trace is already active;
  /// returns an unsampled context when tracing is off, a trace is already
  /// active, or root sampling skips this round.
  telemetry::SpanContext trace_root(const char* name) {
    telemetry::SpanRecorder& spans = host_.spans();
    if (!spans.enabled() || host_.active_trace().sampled()) return {};
    const telemetry::SpanContext ctx = spans.maybe_start_trace();
    if (!ctx.sampled()) return {};
    const TimeNs t = spans.now();
    spans.record({ctx.trace_id, ctx.span_id, 0, host_.self(), name, t, t, 0, 0, 0});
    return ctx;
  }

  /// Records a point span continuing the active trace (e.g. a replica
  /// apply); returns the recorded context without changing the active trace.
  telemetry::SpanContext trace_point(const char* name, std::uint32_t space, std::uint64_t key) {
    telemetry::SpanRecorder& spans = host_.spans();
    if (!spans.enabled()) return {};
    const telemetry::SpanContext parent = host_.active_trace();
    if (!parent.sampled()) return {};
    return spans.record_instant(parent, host_.self(), name, space, key);
  }

  /// Sends `msg` to `dst`, or handles it here when `dst` is this switch (one
  /// switch may hold several roles of a protocol; local hops skip the
  /// wire). Returns the wire bytes sent: 0 for a local hop.
  std::size_t deliver(SwitchId dst, pkt::SwishMessage msg);

  /// The runtime this engine runs on, and its consistency-lag observatory
  /// (every observatory method returns early while it is disabled).
  ShmRuntime& host_;
  telemetry::ConsistencyObservatory& obs_;
};

/// Creates the engine implementing `cls` (the only place that maps a
/// consistency class to its protocol).
std::unique_ptr<ProtocolEngine> make_engine(ConsistencyClass cls, ShmRuntime& host);

}  // namespace swish::shm
