// The per-switch SwiShmem runtime: packet classification, protocol-engine
// dispatch, and fabric I/O.
//
// One ShmRuntime is attached to each switch. The consistency protocols
// themselves (SRO/ERO chain replication, EWO asynchronous replication, OWN
// ownership migration) live behind the ProtocolEngine interface in
// swishmem/protocols/; the runtime owns the engines, routes each space's
// operations to its engine, dispatches wire messages through a per-type
// registry, and keeps the cross-engine machinery: the controller's
// placements, heartbeats, the tail redirect re-entry, and the §6.3 recovery
// stream transport. Protocol packets arrive through the installed
// ShmProgram, which dispatches UDP port kSwishPort traffic here before the NF
// logic sees anything.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "packet/flow.hpp"
#include "packet/swish_wire.hpp"
#include "pisa/switch.hpp"
#include "swishmem/config.hpp"
#include "swishmem/spaces.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/observatory.hpp"
#include "telemetry/records.hpp"
#include "telemetry/span.hpp"

namespace swish::shm {

class OwnSpaceState;
class ProtocolEngine;
class SwimAgent;

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

/// Pull-based donor snapshot stream of one space (§6.3). The source is
/// created — and its state frozen — synchronously at start_recovery_stream
/// time; the runtime then drains its sources in order, one chunk per
/// in-flight frame, so a sparse space's CoW pin is held only as long as the
/// drain and a million-key snapshot never materializes in memory at once.
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

/// A donor's frozen sources, drained in order.
using SnapshotSources = std::vector<std::unique_ptr<SnapshotSource>>;

/// Protocol counters live in the simulator's MetricsRegistry, not behind
/// this class: the runtime registers its own cells under `shm.sw<id>.*` and
/// each engine its cells under `shm.sw<id>.<sro|ero|ewo|own|con>.*`; readers
/// take them by name from Fabric::metrics_snapshot(). The per-class byte
/// cells of one switch sum to its `bytes_total` (regression-tested).
class ShmRuntime final {
 public:
  ShmRuntime(pisa::Switch& sw, RuntimeConfig config, NodeId controller);
  ~ShmRuntime();  // out-of-line: SwimAgent is only forward-declared here

  ShmRuntime(const ShmRuntime&) = delete;
  ShmRuntime& operator=(const ShmRuntime&) = delete;

  // -- Setup ------------------------------------------------------------------

  /// Declares a replicated space hosted on this switch; `replicas` is the
  /// replica set the directory holds for it (every switch by default; a
  /// subset for partitioned spaces, §9). An EWO/OWN/kCON space uses it as its
  /// placement until the controller's first push. Call before traffic starts,
  /// or at migration time when this switch joins a space's replica group.
  void add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas);

  /// Declares a space this switch does NOT replicate (§9 partitioning): all
  /// strong reads redirect to the space's chain tail and writes are sent to
  /// its chain head. Only engines with a remote-access path accept this
  /// (EWO and OWN spaces cannot be remote).
  void add_remote_space(const SpaceConfig& config);

  /// True when this switch hosts storage for the space.
  [[nodiscard]] bool hosts_space(std::uint32_t space) const noexcept;

  /// The switch ids a SWIM agent on this switch watches (the full
  /// deployment; self is filtered out). A runtime given peers runs SWIM; one
  /// without beacons heartbeats to the controller. Call before start().
  void set_membership_peers(std::vector<SwitchId> peers) {
    membership_peers_ = std::move(peers);
  }

  /// Starts liveness reporting — the SWIM agent's probe tick when membership
  /// peers are set, heartbeats to the controller otherwise — and the
  /// engines' periodic work (EWO sync/mirror flush, OWN backup flush). Call
  /// after all spaces exist.
  void start();

  /// Installed by ShmProgram: how to re-run the NF logic on a redirected
  /// packet at the tail.
  void set_nf_reentry(std::function<void(pisa::PacketContext&)> reentry) {
    nf_reentry_ = std::move(reentry);
  }

  // -- Placement from the controller (management network) ----------------------

  /// Installs one controller push: each space's placement replaces the
  /// installed one unless its epoch is not newer (a stale push); when any
  /// did, every engine then sees one on_config_update.
  void install_placements(const PlacementTable& table);

  // -- NF-facing register API (§5) ---------------------------------------------
  // Four class-agnostic operations; the space's declared consistency class
  // picks the engine that serves them.

  /// Read, dispatched to the space's engine. On kRedirected the runtime has
  /// already encapsulated ctx's packet to the tail; the caller must return
  /// without emitting output. kMiss (unknown space, or no entry in a
  /// table-backed space) leaves `value` untouched. `ctx` may be nullptr
  /// outside packet processing; such reads never redirect.
  ReadStatus read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                  std::uint64_t& value);

  /// Longest-prefix-match read against a sparse space holding packed
  /// prefixes (store::lpm_pack). Always local; nullopt when no prefix of the
  /// key is present or the space does not support LPM.
  [[nodiscard]] std::optional<std::uint64_t> read_lpm(std::uint32_t space, std::uint64_t key);

  /// Write of one or more ops — possibly in several spaces — as ONE atomic
  /// unit on the engine serving them: under kCON the batch occupies one
  /// consensus log slot and is applied all-or-nothing on every replica,
  /// surviving coordinator failure; chain classes apply it as one write
  /// request (atomic per hop). `release` runs on this switch once the write
  /// has committed per the spaces' consistency class; the output packet may
  /// be empty when the mutating packet produces no output. Returns false —
  /// performing nothing and never running `release` — when `ops` is empty,
  /// names an unknown space, or spans engines.
  bool write(std::vector<pkt::WriteOp> ops, pkt::Packet output, WriteRelease release);

  /// Atomic read-modify-write (counters / allocators), dispatched to the
  /// space's engine. Returns the new value when the update applied before
  /// returning (EWO always; OWN when this switch owns the slot); nullopt when
  /// it is queued behind an OWN migration, the class has no read-modify-write
  /// (SRO, ERO, CON), or the space is unknown. `done`, when set, receives the
  /// new value whenever the update applies.
  std::optional<std::uint64_t> update(std::uint32_t space, std::uint64_t key,
                                      std::int64_t delta, UpdateDone done = {});

  // -- Protocol ingress ----------------------------------------------------------

  /// Consumes SwiShmem protocol packets (UDP dst port kSwishPort). Returns
  /// true when the packet was protocol traffic.
  bool handle_protocol_packet(pisa::PacketContext& ctx);

  // -- Recovery (§6.3) -------------------------------------------------------------

  /// Donor side: streams a snapshot plus all subsequently-committed writes to
  /// `target` (stop-and-wait, retransmitted), invoking `done` when the target
  /// has acknowledged everything. Called on the current tail by the
  /// controller. `space_filter` restricts the stream to one space (used by
  /// migration); by default every hosted space with replayable state is
  /// streamed.
  void start_recovery_stream(SwitchId target, std::function<void()> done,
                             std::optional<std::uint32_t> space_filter = std::nullopt);

  /// Retires this switch's recovery stream to `target`, if any: the
  /// controller's push that lets `target` join its chains is installed, so
  /// live commits now reach it natively.
  void end_recovery_stream(SwitchId target);

  /// Wipes all replicated state and the installed placements (a replacement
  /// switch boots empty and unplaced).
  void reset_state();

  // -- Services the engines call ---------------------------------------------------

  [[nodiscard]] pisa::Switch& sw() noexcept { return sw_; }
  [[nodiscard]] const RuntimeConfig& config() const noexcept { return config_; }
  [[nodiscard]] SwitchId self() const noexcept { return sw_.id(); }
  /// A space's placement as the controller last pushed it: chain order and
  /// epoch for SRO/ERO, acceptors (coordinator = lowest id) and ballot epoch
  /// for kCON, mirror group for EWO, home set for OWN. Before the first push
  /// (and after a state reset) an SRO/ERO space has no members and any other
  /// space holds its add_space replica set at epoch 0.
  [[nodiscard]] const Placement& placement(std::uint32_t space) const noexcept;
  /// Sends one protocol message to each of `dsts`, in order; returns the
  /// wire bytes of all its frames so an engine can account its own protocol
  /// bandwidth. Encodes `msg`'s body once, then gives each destination its
  /// own frame: headers, type byte, trace context, INT trailer when the
  /// sampling countdown picks that send, and its own ECMP hash draw.
  std::size_t send(std::span<const SwitchId> dsts, const pkt::SwishMessage& msg);
  /// The unicast case: a one-destination send.
  std::size_t send(SwitchId dst, const pkt::SwishMessage& msg) {
    return send(std::span<const SwitchId>(&dst, 1), msg);
  }
  /// send() plus control-class byte accounting (heartbeats, SWIM traffic);
  /// keeps the per-class counters summing to bytes_total.
  std::size_t send_control(SwitchId dst, const pkt::SwishMessage& msg);
  /// Mirror-on-drop: reports a protocol-level reject/abandon (queue
  /// overflow, retry exhaustion, quorum loss) into the simulation's record
  /// log. `detail` is site-specific (usually the key or peer involved).
  void report_drop(telemetry::DropReason reason, std::uint64_t detail);
  [[nodiscard]] NodeId controller() const noexcept { return controller_; }
  /// Registers a periodic background task (packet-generator driven); valid
  /// from ProtocolEngine::start().
  void every(TimeNs period, std::function<void()> tick);
  /// True while this switch is serving a redirected read at the tail (the
  /// tail's state is authoritative, §6.1).
  [[nodiscard]] bool authoritative() const noexcept { return authoritative_; }
  /// Feeds a committed write into the active recovery stream, if any (the
  /// donor-side tap of §6.3).
  void recovery_tap(std::span<const pkt::WriteOp> ops, std::span<const SeqNum> seqs);
  /// Span recorder of this switch's simulator; a disabled recorder is one
  /// branch per call.
  [[nodiscard]] telemetry::SpanRecorder& spans() noexcept { return spans_; }
  /// Consistency-lag observatory of this switch's simulator; every method
  /// returns early while it is disabled.
  [[nodiscard]] telemetry::ConsistencyObservatory& observatory() noexcept {
    return observatory_;
  }
  /// Trace context of the causal chain currently executing on this switch —
  /// set around message dispatch and by engines around deferred work
  /// (control-plane closures, timers). send() attaches it to outgoing
  /// messages.
  [[nodiscard]] telemetry::SpanContext active_trace() const noexcept { return active_trace_; }
  void set_active_trace(const telemetry::SpanContext& ctx) noexcept { active_trace_ = ctx; }

  // -- Introspection ------------------------------------------------------------

  /// Number of output packets currently buffered in CP DRAM awaiting acks.
  [[nodiscard]] std::size_t cp_buffered_packets() const noexcept;

  [[nodiscard]] const SroSpaceState* sro_space(std::uint32_t id) const;
  [[nodiscard]] const EwoSpaceState* ewo_space(std::uint32_t id) const;
  [[nodiscard]] const OwnSpaceState* own_space(std::uint32_t id) const;
  [[nodiscard]] const SroSpaceState* con_space(std::uint32_t id) const;

  /// The SWIM detector (nullptr unless started under --membership swim).
  [[nodiscard]] SwimAgent* swim() noexcept { return swim_.get(); }

  /// Engine serving a space (nullptr when the space is unknown here).
  [[nodiscard]] ProtocolEngine* engine_for_space(std::uint32_t space) const noexcept;

 private:
  /// Engine implementing `cls`, created (and registered in the message-type
  /// dispatch table) on first use.
  ProtocolEngine& engine_for_class(ConsistencyClass cls);
  [[nodiscard]] ProtocolEngine* find_engine(ConsistencyClass cls) const noexcept;

  void on_read_redirect(const pkt::ReadRedirect& msg);

  // Recovery stream (donor transport + target cursor).
  struct RecoveryStream {
    SwitchId target = kInvalidNode;
    std::optional<std::uint32_t> space_filter;
    std::uint32_t snapshot_epoch = 0;  ///< stamped on every chunk of this stream
    /// Frozen at start_recovery_stream: one source per space, engines in
    /// creation order (sparse spaces pin a CoW snapshot, dense ones collect
    /// eagerly). Drained lazily, one chunk per ack, so a million-key
    /// snapshot is never materialized whole.
    SnapshotSources sources;
    bool draining = true;  ///< snapshot portion not yet exhausted
    /// Writes committed (and tapped) while the snapshot is still draining.
    /// They post-date the freeze point, so they are flushed behind the last
    /// snapshot chunk — stream order is always snapshot, then live.
    struct Tapped {
      std::vector<pkt::WriteOp> ops;
      std::vector<SeqNum> seqs;
    };
    std::deque<Tapped> tap_backlog;
    std::deque<pkt::WriteRequest> queue;  ///< chunks awaiting transmission
    std::uint64_t next_stream_seq = 1;
    std::uint64_t awaiting_ack = 0;  ///< 0 = idle
    unsigned retries = 0;
    std::function<void()> done;
    sim::TimerHandle timer;
  };
  void recovery_enqueue(std::vector<pkt::WriteOp> ops, std::vector<SeqNum> seqs);
  /// Tops the send queue up from the snapshot sources (then the tap backlog
  /// once they drain); returns true when a chunk is ready to transmit.
  bool recovery_refill();
  void recovery_send_next();
  void arm_recovery_timer(std::uint64_t expect);
  void on_recovery_ack(std::uint64_t stream_seq);
  void on_recovery_chunk(const pkt::WriteRequest& msg);

  /// Trace context to put on the wire for this send. Retransmissions of an
  /// idempotent message (same write_id/req_id to the same destination) reuse
  /// the span of the first transmission so a lossy fabric does not
  /// double-count propagation; first transmissions of a sampled chain record
  /// a send span and return its context.
  telemetry::SpanContext outgoing_trace(SwitchId dst, const pkt::SwishMessage& msg);

  pisa::Switch& sw_;
  RuntimeConfig config_;
  NodeId controller_;

  // Decentralized failure detection (only when membership peers are set).
  std::unique_ptr<SwimAgent> swim_;
  std::vector<SwitchId> membership_peers_;

  // Engines (creation order) and dispatch state.
  std::vector<std::unique_ptr<ProtocolEngine>> engines_;
  std::unordered_map<std::uint32_t, ProtocolEngine*> space_engines_;
  /// Wire dispatch registry: message type -> engines claiming that type.
  std::array<std::vector<ProtocolEngine*>, pkt::kNumMsgTypes + 1> registry_{};

  /// Installed placement of every space, by space id.
  std::unordered_map<std::uint32_t, Placement> placements_;
  /// What placements_ holds before the first push and after reset_state: no
  /// chain for an SRO/ERO space, the add_space replica set for any other.
  std::unordered_map<std::uint32_t, Placement> initial_placements_;

  // Donor-side recovery stream and target-side cursor.
  std::optional<RecoveryStream> recovery_;
  bool recovery_tap_ = false;  ///< tail forwards committed writes into the stream
  std::uint32_t recovery_epoch_counter_ = 0;  ///< donor-local stream counter
  std::uint64_t last_recovery_applied_ = 0;
  /// Stream epoch the cursor above belongs to; a chunk from a different
  /// stream (donor restart, re-homed migration) resets the cursor so the new
  /// stream's write_ids — which start from 1 again — are not dropped as dups.
  std::uint32_t last_recovery_epoch_ = 0;

  // Runtime-level counters (everything not owned by an engine), registry-
  // backed under `shm.sw<id>.*`.
  telemetry::Counter redirects_processed_;
  telemetry::Counter recovery_chunks_sent_;
  telemetry::Counter recovery_chunks_applied_;
  telemetry::Counter recovery_bytes_;  ///< recovery-stream chunks + acks
  telemetry::Counter control_bytes_;   ///< heartbeats
  telemetry::Counter int_bytes_;       ///< INT trailer bytes on sampled sends
  telemetry::Counter total_bytes_;     ///< all protocol sends from this switch
  std::uint64_t int_countdown_ = 0;    ///< 1-in-N INT sampling of protocol sends
  /// Encodes each sent message once and builds its frames. Nothing a send
  /// does re-enters send (network deliveries and recirculations are
  /// scheduled), so one encoder serves every call.
  pkt::FrameEncoder frames_;

  bool authoritative_ = false;  ///< serving a redirected read at the tail
  bool started_ = false;
  std::function<void(pisa::PacketContext&)> nf_reentry_;

  // Causal tracing and lag measurement (the simulator's; one branch each
  // when disabled).
  telemetry::SpanRecorder& spans_;
  telemetry::ConsistencyObservatory& observatory_;
  telemetry::SpanContext active_trace_;
  /// Retry-reuse guard at the send chokepoint: (message tag, idempotency id,
  /// packed sender/destination) -> span of the first transmission. Only
  /// populated while the recorder is enabled; blunt-cleared when oversized.
  std::map<std::tuple<std::uint8_t, std::uint64_t, std::uint64_t>, telemetry::SpanContext>
      send_spans_;

  Rng rng_;
  std::vector<sim::TimerHandle> background_;
};

/// Abstract network function: application logic running on every switch.
class NfApp {
 public:
  virtual ~NfApp() = default;

  /// Allocates NF-private stateful objects on the switch (optional).
  virtual void setup(pisa::Switch& sw, ShmRuntime& runtime) {
    (void)sw;
    (void)runtime;
  }

  /// Per-packet processing, with shared state accessed through the runtime.
  virtual void process(pisa::PacketContext& ctx, ShmRuntime& runtime) = 0;
};

/// The pipeline program installed on every SwiShmem switch: dispatches
/// protocol packets to the runtime, everything else to the NF.
class ShmProgram : public pisa::PipelineProgram {
 public:
  ShmProgram(ShmRuntime& runtime, std::unique_ptr<NfApp> nf);

  void process(pisa::PacketContext& ctx) override;

  [[nodiscard]] NfApp& nf() noexcept { return *nf_; }

 private:
  ShmRuntime& runtime_;
  std::unique_ptr<NfApp> nf_;
};

}  // namespace swish::shm
