#include "swishmem/runtime.hpp"

#include <algorithm>

#include "net/topology.hpp"
#include "packet/int_md.hpp"
#include "swishmem/membership/swim_membership.hpp"
#include "swishmem/protocols/chain_engine.hpp"
#include "swishmem/protocols/consensus_engine.hpp"
#include "swishmem/protocols/ewo_engine.hpp"
#include "swishmem/protocols/own_space.hpp"
#include "swishmem/protocols/owner_engine.hpp"

namespace swish::shm {
namespace {

/// WriteRequest/WriteAck epoch marking recovery-stream traffic, which is
/// sequenced by the donor's stream counter rather than a chain epoch.
constexpr std::uint32_t kRecoveryEpoch = 0xffffffffu;

/// Register-backed ops per recovery chunk (keeps chunks under typical MTUs).
constexpr std::size_t kRecoveryChunkOps = 32;

/// Cap on the retry-reuse span cache; blunt-cleared beyond this (a cleared
/// entry only means a late retransmission starts a fresh span).
constexpr std::size_t kMaxSendSpans = 65536;

/// Idempotency identity of a message for span reuse across retransmissions:
/// (tag, id, packed principal+destination). Messages without a stable retry
/// identity (EwoUpdate mirror batches, periodic sync, heartbeats, SWIM)
/// return nullopt — their re-flushes carry fresh content, so each
/// transmission is a distinct causal event.
std::optional<std::tuple<std::uint8_t, std::uint64_t, std::uint64_t>> send_identity(
    SwitchId dst, const pkt::SwishMessage& msg) noexcept {
  const auto d = static_cast<std::uint64_t>(dst);
  if (const auto* wr = std::get_if<pkt::WriteRequest>(&msg)) {
    return std::tuple{std::uint8_t{1}, wr->write_id,
                      (static_cast<std::uint64_t>(wr->writer) << 32) | d};
  }
  if (const auto* ack = std::get_if<pkt::WriteAck>(&msg)) {
    return std::tuple{std::uint8_t{2}, ack->write_id,
                      (static_cast<std::uint64_t>(ack->writer) << 32) | d};
  }
  if (const auto* req = std::get_if<pkt::OwnRequest>(&msg)) {
    return std::tuple{std::uint8_t{3}, req->req_id,
                      (static_cast<std::uint64_t>(req->requester) << 33) |
                          (static_cast<std::uint64_t>(req->revoke) << 32) | d};
  }
  if (const auto* grant = std::get_if<pkt::OwnGrant>(&msg)) {
    return std::tuple{std::uint8_t{4}, grant->req_id,
                      (static_cast<std::uint64_t>(grant->new_owner) << 32) | d};
  }
  // kCON retransmissions (forward retries, accept/learn repair resends) reuse
  // the first transmission's span — the content is idempotent per identity.
  if (const auto* fwd = std::get_if<pkt::ConForward>(&msg)) {
    return std::tuple{std::uint8_t{5}, fwd->req_id,
                      (static_cast<std::uint64_t>(fwd->writer) << 32) | d};
  }
  if (const auto* prep = std::get_if<pkt::ConPrepare>(&msg)) {
    return std::tuple{std::uint8_t{6}, prep->ballot,
                      (static_cast<std::uint64_t>(prep->coordinator) << 32) | d};
  }
  if (const auto* acc = std::get_if<pkt::ConAccept>(&msg)) {
    return std::tuple{std::uint8_t{7}, acc->slot, (acc->ballot << 16) | d};
  }
  if (const auto* learn = std::get_if<pkt::ConLearn>(&msg)) {
    return std::tuple{std::uint8_t{8}, learn->slot, (learn->ballot << 16) | d};
  }
  return std::nullopt;
}

}  // namespace

ShmRuntime::ShmRuntime(pisa::Switch& sw, RuntimeConfig config, NodeId controller)
    : sw_(sw),
      config_(config),
      controller_(controller),
      spans_(sw.simulator().spans()),
      observatory_(sw.simulator().observatory()),
      rng_(0x5115 ^ (sw.id() * 0x9e3779b9ULL)) {
  telemetry::MetricsRegistry& reg = sw.simulator().metrics();
  const std::string prefix = "shm.sw" + std::to_string(sw.id()) + ".";
  redirects_processed_ = reg.counter(prefix + "redirects_processed");
  recovery_chunks_sent_ = reg.counter(prefix + "recovery_chunks_sent");
  recovery_chunks_applied_ = reg.counter(prefix + "recovery_chunks_applied");
  recovery_bytes_ = reg.counter(prefix + "bytes_recovery");
  control_bytes_ = reg.counter(prefix + "bytes_control");
  int_bytes_ = reg.counter(prefix + "bytes_int");
  total_bytes_ = reg.counter(prefix + "bytes_total");
  int_countdown_ = sw.config().int_sample_every;
}

ShmRuntime::~ShmRuntime() = default;

// ---------------------------------------------------------------------------
// Engines
// ---------------------------------------------------------------------------

ProtocolEngine* ShmRuntime::find_engine(ConsistencyClass cls) const noexcept {
  for (const auto& e : engines_) {
    if (e->cls() == cls) return e.get();
  }
  return nullptr;
}

ProtocolEngine& ShmRuntime::engine_for_class(ConsistencyClass cls) {
  if (ProtocolEngine* existing = find_engine(cls)) return *existing;
  engines_.push_back(make_engine(cls, *this));
  ProtocolEngine& engine = *engines_.back();
  for (pkt::MsgType type : engine.message_types()) {
    registry_[static_cast<std::size_t>(type)].push_back(&engine);
  }
  if (started_) engine.start();  // engines created by migration join the tick loop
  return engine;
}

ProtocolEngine* ShmRuntime::engine_for_space(std::uint32_t space) const noexcept {
  auto it = space_engines_.find(space);
  return it == space_engines_.end() ? nullptr : it->second;
}

void ShmRuntime::add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas) {
  const Placement& initial = initial_placements_[config.id] =
      chain_class(config.cls) ? Placement{} : Placement{0, replicas};
  placements_.try_emplace(config.id, initial);  // a migration joiner keeps its pushed one
  ProtocolEngine& engine = engine_for_class(config.cls);
  engine.add_space(config, replicas);
  space_engines_[config.id] = &engine;
  // All hosts of a space register it with the shared observatory; after the
  // first registration the call is a no-op.
  observatory_.register_space(config.id, config.name, to_string(config.cls));
}

void ShmRuntime::add_remote_space(const SpaceConfig& config) {
  ProtocolEngine& engine = engine_for_class(config.cls);
  engine.add_remote_space(config);  // throws for classes without a remote path
  space_engines_[config.id] = &engine;
}

bool ShmRuntime::hosts_space(std::uint32_t space) const noexcept {
  for (const auto& e : engines_) {
    if (e->hosts_space(space)) return true;
  }
  return false;
}

void ShmRuntime::start() {
  if (!membership_peers_.empty()) {
    // Decentralized detection: no heartbeats at all; the agent probes peers
    // from this switch's own control plane (ROADMAP item 2).
    swim_ = std::make_unique<SwimAgent>(*this, membership_peers_);
    swim_->start();
  } else if (controller_ != kInvalidNode) {
    background_.push_back(sw_.start_packet_generator(config_.heartbeat_period, [this]() {
      control_bytes_ += send(
          controller_, pkt::Heartbeat{sw_.id(), static_cast<std::uint64_t>(sw_.simulator().now())});
    }));
  }
  for (const auto& e : engines_) e->start();
  started_ = true;
}

// ---------------------------------------------------------------------------
// Placement from the controller
// ---------------------------------------------------------------------------

void ShmRuntime::install_placements(const PlacementTable& table) {
  bool changed = false;
  for (const auto& [space, placement] : table) {
    Placement& installed = placements_[space];
    if (placement.epoch <= installed.epoch) continue;  // stale push
    installed = placement;
    changed = true;
  }
  if (!changed) return;
  for (const auto& e : engines_) e->on_config_update();
}

const Placement& ShmRuntime::placement(std::uint32_t space) const noexcept {
  static const Placement kUnplaced;
  auto it = placements_.find(space);
  return it == placements_.end() ? kUnplaced : it->second;
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

telemetry::SpanContext ShmRuntime::outgoing_trace(SwitchId dst, const pkt::SwishMessage& msg) {
  // Fast path for the sampling-disabled steady state: nothing sampled is in
  // flight and no retransmission context is cached, so there is nothing to
  // attach and nothing to look up. Keeps the send chokepoint near-free when
  // tracing is enabled but (almost) never sampling — gated at 2% by
  // bench_throughput --overhead-gate.
  if (!active_trace_.sampled() && send_spans_.empty()) return {};
  const auto identity = send_identity(dst, msg);
  if (identity) {
    auto it = send_spans_.find(*identity);
    if (it != send_spans_.end()) return it->second;  // retransmission: reuse
  }
  if (!active_trace_.sampled()) return {};
  const telemetry::SpanContext ctx =
      spans_.record_instant(active_trace_, sw_.id(), pkt::info_of(msg).name);
  if (identity && ctx.sampled()) {
    if (send_spans_.size() >= kMaxSendSpans) send_spans_.clear();
    send_spans_.emplace(*identity, ctx);
  }
  return ctx;
}

std::size_t ShmRuntime::send(std::span<const SwitchId> dsts, const pkt::SwishMessage& msg) {
  if (dsts.empty()) return 0;
  frames_.encode(msg);
  const pkt::MsgInfo& info = pkt::info_of(msg);
  pkt::PacketSpec spec;
  spec.eth_src = pkt::MacAddr::for_node(sw_.id());
  spec.ip_src = net::node_ip(sw_.id());
  spec.protocol = pkt::kProtoUdp;
  spec.src_port = pkt::kSwishPort;
  spec.dst_port = pkt::kSwishPort;
  std::size_t sent = 0;
  for (const SwitchId dst : dsts) {
    telemetry::SpanContext trace_ctx;
    // Inline what outgoing_trace's fast path would check, so the steady state
    // with tracing enabled but nothing sampled skips the call entirely.
    if (spans_.enabled() && (active_trace_.sampled() || !send_spans_.empty())) {
      trace_ctx = outgoing_trace(dst, msg);
    }
    spec.eth_dst = pkt::MacAddr::for_node(dst);
    spec.ip_dst = net::node_ip(dst);
    pkt::Packet packet = frames_.frame(spec, trace_ctx);
    // INT-MD sampling of protocol traffic: 1-in-N sends get the telemetry
    // trailer. The trailer bytes are charged to the bytes_int class (not the
    // message's own class — the caller-visible size excludes them), keeping
    // the per-class counters summing to bytes_total exactly.
    std::size_t int_overhead = 0;
    const pisa::Switch::Config& sc = sw_.config();
    if (sc.int_sample_every > 0 && --int_countdown_ == 0) {
      int_countdown_ = sc.int_sample_every;
      packet = pkt::with_int_trailer(
          packet, static_cast<std::uint8_t>(std::min<unsigned>(sc.int_hop_cap, 255u)));
      int_overhead = pkt::kIntTrailerBytes;
      int_bytes_ += int_overhead;
    }
    const std::size_t n = packet.size();
    total_bytes_ += n;
    // Per-class protocol-message tracing: every protocol byte leaves through
    // here, so one probe covers all four engines.
    sw_.simulator().records().trace(info.category, sw_.id(), info.name, dst, n);
    sw_.send_to_node(dst, std::move(packet), rng_.next());
    sent += n - int_overhead;
  }
  return sent;
}

std::size_t ShmRuntime::send_control(SwitchId dst, const pkt::SwishMessage& msg) {
  const std::size_t n = send(dst, msg);
  control_bytes_ += n;
  return n;
}

void ShmRuntime::report_drop(telemetry::DropReason reason, std::uint64_t detail) {
  // Protocol-level drops are packetless (the operation died before or after
  // its wire life), so no INT stack rides along — the reason + site suffice.
  sw_.report_drop(reason, nullptr, detail);
}

void ShmRuntime::every(TimeNs period, std::function<void()> tick) {
  background_.push_back(sw_.start_packet_generator(period, std::move(tick)));
}

// ---------------------------------------------------------------------------
// Protocol ingress
// ---------------------------------------------------------------------------

bool ShmRuntime::handle_protocol_packet(pisa::PacketContext& ctx) {
  if (!ctx.parsed || !ctx.parsed->udp || ctx.parsed->udp->dst_port != pkt::kSwishPort) {
    return false;
  }
  // Protocol packets terminate here (transit forwarding already happened in
  // ShmProgram::process), so this is their INT sink. No strip needed:
  // decode_message ignores the trailing trailer bytes.
  if (sw_.int_enabled()) sw_.record_int_sink(ctx.packet);
  telemetry::SpanContext wire_trace;
  auto msg = pkt::decode_message(ctx.packet.l4_payload(*ctx.parsed), &wire_trace);
  if (!msg) {
    // Malformed protocol packet: drop, but with attribution.
    sw_.report_drop(telemetry::DropReason::kParseError, &ctx.packet);
    return true;
  }

  // The carried trace context is active for the whole dispatch, so every
  // span recorded below — and every send a handler triggers — continues the
  // sender's causal chain.
  ActiveTraceScope trace_scope(*this, wire_trace);

  // Cross-engine machinery handled at the runtime level: the recovery-stream
  // transport (which reuses the WriteRequest/WriteAck frames under
  // kRecoveryEpoch), redirected reads, and membership traffic. Placements
  // arrive only over the controller's management network, never in band.
  if (const auto* wr = std::get_if<pkt::WriteRequest>(&*msg)) {
    if (wr->snapshot_replay || wr->epoch == kRecoveryEpoch) {
      on_recovery_chunk(*wr);
      return true;
    }
  } else if (const auto* ack = std::get_if<pkt::WriteAck>(&*msg)) {
    if (ack->epoch == kRecoveryEpoch) {
      on_recovery_ack(ack->write_id);
      return true;
    }
  } else if (const auto* rr = std::get_if<pkt::ReadRedirect>(&*msg)) {
    on_read_redirect(*rr);
    return true;
  } else if (std::holds_alternative<pkt::Heartbeat>(*msg)) {
    return true;  // heartbeats are consumed by the controller node, not switches
  } else if (const auto* ping = std::get_if<pkt::SwimPing>(&*msg)) {
    if (swim_) swim_->on_ping(*ping);
    return true;
  } else if (const auto* ack = std::get_if<pkt::SwimAck>(&*msg)) {
    if (swim_) swim_->on_ack(*ack);
    return true;
  } else if (const auto* req = std::get_if<pkt::SwimPingReq>(&*msg)) {
    if (swim_) swim_->on_ping_req(*req);
    return true;
  } else if (const auto* update = std::get_if<pkt::MembershipUpdate>(&*msg)) {
    if (swim_) swim_->on_update(*update);
    return true;
  }

  // Everything else goes through the message-type registry. Multiple engines
  // may share a type (SRO and ERO both speak the chain protocol); the first
  // engine that claims the message — by the space it names — consumes it.
  for (ProtocolEngine* engine : registry_[static_cast<std::size_t>(pkt::type_of(*msg))]) {
    if (engine->handle_message(*msg)) break;
  }
  return true;
}

// ---------------------------------------------------------------------------
// NF-facing register API (§5)
// ---------------------------------------------------------------------------

ReadStatus ShmRuntime::read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                            std::uint64_t& value) {
  ProtocolEngine* engine = engine_for_space(space);
  if (engine == nullptr) return ReadStatus::kMiss;
  return engine->read(ctx, space, key, value);
}

std::optional<std::uint64_t> ShmRuntime::read_lpm(std::uint32_t space, std::uint64_t key) {
  ProtocolEngine* engine = engine_for_space(space);
  if (engine == nullptr) return std::nullopt;
  return engine->read_lpm(space, key);
}

bool ShmRuntime::write(std::vector<pkt::WriteOp> ops, pkt::Packet output, WriteRelease release) {
  if (ops.empty()) return false;
  ProtocolEngine* engine = engine_for_space(ops.front().space);
  if (engine == nullptr) return false;
  // One engine sequences the whole batch or the write is refused — a
  // cross-engine batch has no single point of atomicity.
  for (std::size_t i = 1; i < ops.size(); ++i) {
    if (engine_for_space(ops[i].space) != engine) return false;
  }
  engine->write(std::move(ops), std::move(output), std::move(release));
  return true;
}

std::optional<std::uint64_t> ShmRuntime::update(std::uint32_t space, std::uint64_t key,
                                                std::int64_t delta, UpdateDone done) {
  ProtocolEngine* engine = engine_for_space(space);
  if (engine == nullptr) return std::nullopt;
  return engine->update(space, key, delta, std::move(done));
}

void ShmRuntime::on_read_redirect(const pkt::ReadRedirect& msg) {
  ++redirects_processed_;
  if (!nf_reentry_) return;
  // Serving the redirected packet continues the origin's causal chain: any
  // write the re-run NF performs parents under this span.
  telemetry::SpanContext serve;
  if (active_trace_.sampled()) {
    serve = spans_.record_instant(active_trace_, sw_.id(), "redirect_serve");
  }
  ActiveTraceScope scope(*this, serve.sampled() ? serve : active_trace_);
  pisa::PacketContext ctx{sw_, pkt::Packet(msg.original_packet), nullptr,
                          net::kInvalidPort, /*from_edge=*/true, /*recirc_count=*/1};
  ctx.parsed = ctx.packet.parsed();
  authoritative_ = true;
  nf_reentry_(ctx);
  authoritative_ = false;
}

// ---------------------------------------------------------------------------
// Recovery (§6.3): the runtime is the stream transport; engines contribute
// snapshots and apply replayed ops.
// ---------------------------------------------------------------------------

void ShmRuntime::start_recovery_stream(SwitchId target, std::function<void()> done,
                                       std::optional<std::uint32_t> space_filter) {
  recovery_.emplace();
  recovery_->target = target;
  recovery_->space_filter = space_filter;
  recovery_->done = std::move(done);
  recovery_->snapshot_epoch =
      (static_cast<std::uint32_t>(sw_.id()) << 16) | (++recovery_epoch_counter_ & 0xffffu);
  // The freeze point and the tap enable are the same instant: sparse spaces
  // pin an O(1) CoW snapshot, dense spaces collect eagerly inside
  // append_snapshot_sources(). Every write committed after this line reaches
  // the target exactly once — through the live tap, never through the
  // snapshot — so there is no window where a commit lands in neither.
  for (const auto& e : engines_) e->append_snapshot_sources(space_filter, recovery_->sources);
  recovery_tap_ = true;
  // Streaming runs on the control plane (§6.3): chunks are pulled from the
  // frozen sources one at a time and replayed through the normal data-plane
  // protocol as seq-guarded writes.
  sw_.control_plane().submit([this]() {
    if (!recovery_) return;
    recovery_send_next();
  });
}

void ShmRuntime::recovery_tap(std::span<const pkt::WriteOp> ops, std::span<const SeqNum> seqs) {
  // While a recovery stream is active, every commit is also fed to the
  // recovering switch, in order, behind the snapshot (§6.3).
  if (!recovery_ || !recovery_tap_) return;
  if (recovery_->space_filter &&
      (ops.empty() || ops.front().space != *recovery_->space_filter)) {
    return;
  }
  if (recovery_->draining) {
    // The snapshot is still streaming; this commit post-dates the freeze
    // point, so it must follow the last snapshot chunk. Buffer it raw —
    // write_ids are assigned at enqueue time so stream order stays
    // snapshot < backlog < live taps.
    recovery_->tap_backlog.push_back({{ops.begin(), ops.end()}, {seqs.begin(), seqs.end()}});
    return;
  }
  recovery_enqueue({ops.begin(), ops.end()}, {seqs.begin(), seqs.end()});
  recovery_send_next();
}

void ShmRuntime::recovery_enqueue(std::vector<pkt::WriteOp> ops, std::vector<SeqNum> seqs) {
  pkt::WriteRequest chunk;
  chunk.epoch = kRecoveryEpoch;
  chunk.writer = sw_.id();
  chunk.snapshot_replay = true;
  chunk.snapshot_epoch = recovery_->snapshot_epoch;
  chunk.write_id = recovery_->next_stream_seq++;
  chunk.ops = std::move(ops);
  chunk.seqs = std::move(seqs);
  recovery_->queue.push_back(std::move(chunk));
}

bool ShmRuntime::recovery_refill() {
  RecoveryStream& rs = *recovery_;
  if (!rs.queue.empty()) return true;
  if (!rs.draining) return false;
  // Pull one chunk's worth of ops from the frozen sources. A source that
  // reports exhaustion is destroyed immediately, releasing its CoW pin (and
  // the nodes it kept alive) as early as possible.
  std::vector<SnapshotOp> snap;
  while (!rs.sources.empty() && snap.size() < kRecoveryChunkOps) {
    if (!rs.sources.front()->next(kRecoveryChunkOps - snap.size(), snap)) {
      rs.sources.erase(rs.sources.begin());
    }
  }
  if (!snap.empty()) {
    std::vector<pkt::WriteOp> ops;
    std::vector<SeqNum> seqs;
    ops.reserve(snap.size());
    seqs.reserve(snap.size());
    for (const auto& entry : snap) {
      ops.push_back(entry.op);
      seqs.push_back(entry.seq);
    }
    recovery_enqueue(std::move(ops), std::move(seqs));
  }
  if (rs.sources.empty()) {
    rs.draining = false;
    // Commits tapped during the drain go behind the snapshot, in tap order.
    while (!rs.tap_backlog.empty()) {
      recovery_enqueue(std::move(rs.tap_backlog.front().ops),
                       std::move(rs.tap_backlog.front().seqs));
      rs.tap_backlog.pop_front();
    }
  }
  return !rs.queue.empty();
}

void ShmRuntime::recovery_send_next() {
  if (!recovery_ || recovery_->awaiting_ack != 0) return;
  if (!recovery_refill()) {
    // Snapshot fully streamed and every chunk acknowledged: recovery is
    // complete. The stream stays alive to tap subsequent commits until the
    // controller's join push retires it (end_recovery_stream).
    if (recovery_->done) {
      auto cb = std::move(recovery_->done);
      recovery_->done = nullptr;
      cb();
    }
    return;
  }
  const pkt::WriteRequest& chunk = recovery_->queue.front();
  recovery_->awaiting_ack = chunk.write_id;
  recovery_->retries = 0;
  ++recovery_chunks_sent_;
  // Recovery chunks root their own causal chains (there is no originating
  // write); retransmissions reuse the first transmission's span through the
  // send-identity cache like any other idempotent frame.
  telemetry::SpanContext root;
  if (spans_.enabled() && !active_trace_.sampled()) {
    root = spans_.maybe_start_trace();
    if (root.sampled()) {
      const TimeNs t = spans_.now();
      spans_.record({root.trace_id, root.span_id, 0, sw_.id(), "recovery_chunk", t, t, 0, 0,
                      chunk.write_id});
    }
  }
  ActiveTraceScope scope(*this, root.sampled() ? root : active_trace_);
  recovery_bytes_ += send(recovery_->target, chunk);
  arm_recovery_timer(chunk.write_id);
}

void ShmRuntime::arm_recovery_timer(std::uint64_t expect) {
  recovery_->timer =
      sw_.control_plane().schedule_after(config_.write_retry_timeout, [this, expect]() {
        if (!recovery_ || recovery_->awaiting_ack != expect) return;
        if (++recovery_->retries > config_.max_write_retries) {
          // Target unreachable: abandon the stream; the controller restarts
          // recovery if the target is still alive.
          sw_.report_drop(telemetry::DropReason::kRecoveryAbandoned, nullptr,
                          recovery_->target);
          recovery_.reset();
          recovery_tap_ = false;
          return;
        }
        ++recovery_chunks_sent_;
        recovery_bytes_ += send(recovery_->target, recovery_->queue.front());
        arm_recovery_timer(expect);
      });
}

void ShmRuntime::on_recovery_ack(std::uint64_t stream_seq) {
  if (!recovery_ || recovery_->awaiting_ack != stream_seq) return;
  recovery_->timer.cancel();
  recovery_->awaiting_ack = 0;
  recovery_->queue.pop_front();
  // Refills lazily from the snapshot sources; fires `done` once everything
  // is drained and acknowledged.
  recovery_send_next();
}

void ShmRuntime::on_recovery_chunk(const pkt::WriteRequest& msg) {
  if (msg.snapshot_epoch != 0 && msg.snapshot_epoch != last_recovery_epoch_) {
    // A different donor stream (restarted recovery, or a second migration
    // from another donor): its write_ids start over from 1, so the cursor
    // must restart with them or every chunk would look like a duplicate.
    last_recovery_epoch_ = msg.snapshot_epoch;
    last_recovery_applied_ = 0;
  }
  if (msg.write_id == last_recovery_applied_ + 1) {
    if (active_trace_.sampled()) {
      spans_.record_instant(active_trace_, sw_.id(), "recovery_apply", 0, msg.write_id);
    }
    for (std::size_t i = 0; i < msg.ops.size(); ++i) {
      // Stream order replays the donor's apply order; each op goes to the
      // engine serving its space.
      if (ProtocolEngine* engine = engine_for_space(msg.ops[i].space)) {
        engine->apply_recovery_op(msg.ops[i], i < msg.seqs.size() ? msg.seqs[i] : 0);
      }
    }
    last_recovery_applied_ = msg.write_id;
    ++recovery_chunks_applied_;
  } else if (msg.write_id > last_recovery_applied_ + 1) {
    return;  // out-of-order future chunk: drop; stop-and-wait resends in order
  }
  // Duplicate or just-applied chunk: (re-)ack.
  recovery_bytes_ +=
      send(msg.writer, pkt::WriteAck{kRecoveryEpoch, msg.writer, msg.write_id, {}, {}});
}

void ShmRuntime::end_recovery_stream(SwitchId target) {
  if (!recovery_ || recovery_->target != target) return;
  recovery_->timer.cancel();
  recovery_.reset();
  recovery_tap_ = false;
}

void ShmRuntime::reset_state() {
  for (const auto& e : engines_) e->reset();
  if (swim_) swim_->reset();
  last_recovery_applied_ = 0;
  last_recovery_epoch_ = 0;
  recovery_.reset();
  recovery_tap_ = false;
  // A replacement switch also forgets its placements; the controller's next
  // push (any epoch) is accepted.
  placements_ = initial_placements_;
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::size_t ShmRuntime::cp_buffered_packets() const noexcept {
  std::size_t n = 0;
  for (const auto& e : engines_) {
    if (const auto* chain = dynamic_cast<const ChainEngine*>(e.get())) {
      n += chain->cp_buffered_packets();
    }
  }
  return n;
}

const SroSpaceState* ShmRuntime::sro_space(std::uint32_t id) const {
  for (const auto& e : engines_) {
    if (const auto* chain = dynamic_cast<const ChainEngine*>(e.get())) {
      if (const SroSpaceState* sp = chain->space_state(id)) return sp;
    }
  }
  return nullptr;
}

const EwoSpaceState* ShmRuntime::ewo_space(std::uint32_t id) const {
  const auto* engine = dynamic_cast<const EwoEngine*>(find_engine(ConsistencyClass::kEWO));
  return engine == nullptr ? nullptr : engine->space_state(id);
}

const OwnSpaceState* ShmRuntime::own_space(std::uint32_t id) const {
  const auto* engine = dynamic_cast<const OwnerEngine*>(find_engine(ConsistencyClass::kOWN));
  return engine == nullptr ? nullptr : engine->space_state(id);
}

const SroSpaceState* ShmRuntime::con_space(std::uint32_t id) const {
  const auto* engine =
      dynamic_cast<const ConsensusEngine*>(find_engine(ConsistencyClass::kCON));
  return engine == nullptr ? nullptr : engine->space_state(id);
}

// ---------------------------------------------------------------------------
// ShmProgram
// ---------------------------------------------------------------------------

ShmProgram::ShmProgram(ShmRuntime& runtime, std::unique_ptr<NfApp> nf)
    : runtime_(runtime), nf_(std::move(nf)) {
  runtime_.set_nf_reentry([this](pisa::PacketContext& ctx) {
    if (nf_) nf_->process(ctx, runtime_);
  });
}

void ShmProgram::process(pisa::PacketContext& ctx) {
  // Protocol packets in transit (multi-hop topologies: the chain successor or
  // the controller may not be a direct neighbour) are forwarded toward their
  // destination switch, not consumed here.
  if (ctx.parsed && ctx.parsed->ipv4 && ctx.parsed->udp &&
      ctx.parsed->udp->dst_port == pkt::kSwishPort &&
      (ctx.parsed->ipv4->dst.value() >> 24) == 10) {
    const NodeId dst = ctx.parsed->ipv4->dst.value() & 0x00ffffff;
    if (dst != runtime_.self()) {
      const auto hash = pkt::FlowKey::from(*ctx.parsed).hash();
      ctx.sw.send_to_node(dst, std::move(ctx.packet), hash, ctx.recirc_count);
      return;
    }
  }
  if (runtime_.handle_protocol_packet(ctx)) return;
  if (nf_) nf_->process(ctx, runtime_);
}

}  // namespace swish::shm
