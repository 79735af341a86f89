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
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "packet/packet.hpp"
#include "packet/swish_wire.hpp"
#include "swishmem/config.hpp"
#include "swishmem/spaces.hpp"
#include "swishmem/store/ordered_index.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/observatory.hpp"
#include "telemetry/records.hpp"
#include "telemetry/span.hpp"

namespace swish::pisa {
class Switch;
struct PacketContext;
}  // namespace swish::pisa

namespace swish::shm {

/// Outcome of a strong read during packet processing.
enum class ReadStatus {
  kOk,          ///< value is valid (read served locally or authoritatively)
  kMiss,        ///< table-backed space has no entry for the key
  kRedirected,  ///< original packet was forwarded to the chain tail; the NF
                ///< must stop processing this packet and emit no output
};

/// Runs when a buffered output packet may be released (write committed).
using WriteRelease = std::function<void(pkt::Packet&&)>;

/// Completion of a read-modify-write; receives the new value when it applies.
using UpdateDone = std::function<void(std::uint64_t)>;

/// Pull-based donor snapshot stream (§6.3). The source is created — and its
/// state frozen — synchronously at start_recovery_stream time; the runtime
/// then drains it one chunk per in-flight frame, so a sparse space's CoW pin
/// is held only as long as the drain and a million-key snapshot never
/// materializes in memory at once.
class SnapshotSource {
 public:
  virtual ~SnapshotSource() = default;
  SnapshotSource() = default;
  SnapshotSource(const SnapshotSource&) = delete;
  SnapshotSource& operator=(const SnapshotSource&) = delete;

  /// Appends up to `max_ops` snapshot ops to `out`; returns true while more
  /// remain (false = drained; pinned pages are released at that point).
  virtual bool next(std::size_t max_ops, std::vector<SnapshotOp>& out) = 0;
};

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
/// Concatenates sub-sources in order (multi-space donors).
std::unique_ptr<SnapshotSource> make_chained_source(
    std::vector<std::unique_ptr<SnapshotSource>> sources);

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

/// Donor stream of the engines that store SroSpaceState spaces (chain and
/// kCON): a sparse space streams a CoW pin taken at this call, a dense one
/// its snapshot() collected now — either way, writes after this call reach
/// the target only through the runtime's live tap.
template <typename SpaceMap>
[[nodiscard]] std::unique_ptr<SnapshotSource> sro_snapshot_source(
    const SpaceMap& spaces, std::optional<std::uint32_t> space_filter) {
  std::vector<std::unique_ptr<SnapshotSource>> parts;
  for (const std::uint32_t id : sorted_space_ids(spaces, space_filter)) {
    const SroSpaceState& sp = *spaces.at(id);
    if (sp.sparse_store() != nullptr) {
      parts.push_back(make_pinned_source(
          sp.pin_snapshot(), [id](const store::Entry& e, SnapshotOp& op) {
            op = {pkt::WriteOp{id, e.key, e.value}, static_cast<SeqNum>(e.aux)};
            return true;  // tombstones stream too — they carry deletions
          }));
    } else {
      parts.push_back(make_vector_source(sp.snapshot()));
    }
  }
  return make_chained_source(std::move(parts));
}

/// Services the runtime provides to its engines: transport with byte
/// accounting, placements pushed by the controller, timers, and hooks back
/// into the NF / the recovery stream. Implemented by ShmRuntime.
class EngineHost {
 public:
  virtual ~EngineHost() = default;

  [[nodiscard]] virtual pisa::Switch& sw() noexcept = 0;
  [[nodiscard]] virtual const RuntimeConfig& config() const noexcept = 0;
  [[nodiscard]] virtual SwitchId self() const noexcept = 0;

  /// A space's placement as the controller last pushed it: chain order and
  /// epoch for SRO/ERO, acceptors (coordinator = lowest id) and ballot epoch
  /// for kCON, mirror group for EWO, home set for OWN. Before the first push
  /// (and after a state reset) an SRO/ERO space has no members and any other
  /// space holds its add_space replica set at epoch 0.
  [[nodiscard]] virtual const Placement& placement(std::uint32_t space) const noexcept = 0;

  /// Sends one protocol message into the fabric; returns the wire bytes so
  /// the engine can account its own protocol bandwidth.
  virtual std::size_t send(SwitchId dst, const pkt::SwishMessage& msg) = 0;

  /// Registers a periodic background task (packet-generator driven); valid
  /// from ProtocolEngine::start().
  virtual void every(TimeNs period, std::function<void()> tick) = 0;

  /// True while this switch is serving a redirected read at the tail (the
  /// tail's state is authoritative, §6.1).
  [[nodiscard]] virtual bool authoritative() const noexcept = 0;

  /// Feeds a committed write into the active recovery stream, if any (the
  /// donor-side tap of §6.3).
  virtual void recovery_tap(const std::vector<pkt::WriteOp>& ops,
                            const std::vector<SeqNum>& seqs) = 0;

  /// Mirror-on-drop: reports a protocol-level reject/abandon (queue
  /// overflow, retry exhaustion, quorum loss) into the simulation's record
  /// log. `detail` is site-specific (usually the key or peer involved).
  /// Defaulted to a no-op: external hosts need no forensics.
  virtual void report_drop(telemetry::DropReason reason, std::uint64_t detail) {
    (void)reason;
    (void)detail;
  }

  // -- Observability (defaulted: external hosts need no tracing) ----------------
  /// Span recorder of this simulation, or nullptr when causal tracing is
  /// unavailable. Engines cache the pointer; a disabled recorder is one
  /// branch per call, so they need not re-check enablement.
  [[nodiscard]] virtual telemetry::SpanRecorder* spans() noexcept { return nullptr; }
  /// Consistency-lag observatory, or nullptr when unavailable.
  [[nodiscard]] virtual telemetry::ConsistencyObservatory* observatory() noexcept {
    return nullptr;
  }
  /// Trace context of the causal chain currently executing on this switch —
  /// set by the runtime around message dispatch and by engines around
  /// deferred work (control-plane closures, timers). send() attaches it to
  /// outgoing messages.
  [[nodiscard]] virtual telemetry::SpanContext active_trace() const noexcept { return {}; }
  virtual void set_active_trace(const telemetry::SpanContext&) noexcept {}
  /// Stable pointer to the host's active-trace slot, or nullptr when the
  /// host keeps none. Engines cache it at construction so the frequent
  /// "tracing on but this chain unsampled" check is two loads instead of a
  /// virtual call per datapath operation (bench_throughput --overhead-gate).
  [[nodiscard]] virtual const telemetry::SpanContext* active_trace_ptr() const noexcept {
    return nullptr;
  }
};

/// RAII guard installing `ctx` as the host's active trace context for the
/// current scope; restores the previous context on exit. Used by engines to
/// re-enter a causal chain from deferred work (control-plane submissions,
/// retry timers, flush buffers).
class ActiveTraceScope {
 public:
  ActiveTraceScope(EngineHost& host, const telemetry::SpanContext& ctx) noexcept
      : host_(host), saved_(host.active_trace()) {
    host_.set_active_trace(ctx);
  }
  ~ActiveTraceScope() { host_.set_active_trace(saved_); }
  ActiveTraceScope(const ActiveTraceScope&) = delete;
  ActiveTraceScope& operator=(const ActiveTraceScope&) = delete;

 private:
  EngineHost& host_;
  telemetry::SpanContext saved_;
};

/// One consistency protocol: owns the space state of its class and the full
/// protocol state machine. One instance per (runtime, class-in-use).
class ProtocolEngine {
 public:
  explicit ProtocolEngine(EngineHost& host)
      : host_(host),
        obs_(host.observatory()),
        spans_(host.spans()),
        active_ctx_(host.active_trace_ptr()) {}
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
  virtual bool handle_message(const pkt::SwishMessage& msg) = 0;

  // -- Recovery (§6.3) ----------------------------------------------------------
  /// Donor side: a stream of this engine's replayable state, frozen at this
  /// call. The default streams nothing (EWO replicas converge through
  /// anti-entropy sync instead).
  [[nodiscard]] virtual std::unique_ptr<SnapshotSource> snapshot_source(
      std::optional<std::uint32_t> space_filter);
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
    if (spans_ == nullptr || !spans_->enabled()) return {};
    const telemetry::SpanContext parent = current_trace();
    if (parent.sampled()) return spans_->record_instant(parent, host_.self(), name, space, key);
    const telemetry::SpanContext ctx = spans_->maybe_start_trace();
    if (!ctx.sampled()) return {};
    const TimeNs t = spans_->now();
    spans_->record({ctx.trace_id, ctx.span_id, 0, host_.self(), name, t, t, 0, space, key});
    return ctx;
  }

  /// Roots a fresh sampled trace for background/periodic protocol traffic
  /// (anti-entropy sync, backup flushes) when no trace is already active;
  /// returns an unsampled context when tracing is off, a trace is already
  /// active, or root sampling skips this round.
  telemetry::SpanContext trace_root(const char* name) {
    if (spans_ == nullptr || !spans_->enabled() || current_trace().sampled()) return {};
    const telemetry::SpanContext ctx = spans_->maybe_start_trace();
    if (!ctx.sampled()) return {};
    const TimeNs t = spans_->now();
    spans_->record({ctx.trace_id, ctx.span_id, 0, host_.self(), name, t, t, 0, 0, 0});
    return ctx;
  }

  /// Records a point span continuing the active trace (e.g. a replica
  /// apply); returns the recorded context without changing the active trace.
  telemetry::SpanContext trace_point(const char* name, std::uint32_t space, std::uint64_t key) {
    if (spans_ == nullptr || !spans_->enabled()) return {};
    const telemetry::SpanContext parent = current_trace();
    if (!parent.sampled()) return {};
    return spans_->record_instant(parent, host_.self(), name, space, key);
  }

  EngineHost& host_;
  /// Consistency-lag observatory, cached at construction (nullptr for hosts
  /// without one; a disabled observatory early-returns on every call).
  telemetry::ConsistencyObservatory* obs_ = nullptr;

 private:
  /// Host's active trace context via the cached slot pointer when available.
  [[nodiscard]] telemetry::SpanContext current_trace() const noexcept {
    return active_ctx_ != nullptr ? *active_ctx_ : host_.active_trace();
  }

  /// Span recorder and active-trace slot, cached at construction (both have
  /// stable addresses for the lifetime of the simulation).
  telemetry::SpanRecorder* spans_ = nullptr;
  const telemetry::SpanContext* active_ctx_ = nullptr;
};

/// Creates the engine implementing `cls` (the only place that maps a
/// consistency class to its protocol).
std::unique_ptr<ProtocolEngine> make_engine(ConsistencyClass cls, EngineHost& host);

}  // namespace swish::shm
