#include "swishmem/protocols/chain_engine.hpp"

#include <algorithm>

namespace swish::shm {

ChainEngine::ChainEngine(ShmRuntime& host, const char* proto_name) : ProtocolEngine(host) {
  telemetry::MetricsRegistry& reg = host_metrics();
  const std::string p = metric_prefix(proto_name);
  stats_.writes_submitted = reg.counter(p + "writes_submitted");
  stats_.writes_committed = reg.counter(p + "writes_committed");
  stats_.write_retries = reg.counter(p + "write_retries");
  stats_.writes_failed = reg.counter(p + "writes_failed");
  stats_.writes_rejected = reg.counter(p + "writes_rejected");
  stats_.chain_requests_seen = reg.counter(p + "chain_requests_seen");
  stats_.chain_gap_drops = reg.counter(p + "chain_gap_drops");
  stats_.chain_stale_epoch = reg.counter(p + "chain_stale_epoch");
  stats_.reads_local = reg.counter(p + "reads_local");
  stats_.reads_redirected = reg.counter(p + "reads_redirected");
  stats_.bytes_write = reg.counter(p + "bytes_write");
  stats_.bytes_redirect = reg.counter(p + "bytes_redirect");
  stats_.write_latency = reg.histogram(p + "write_latency_ns");
}

void ChainEngine::add_space(const SpaceConfig& config, const std::vector<SwitchId>& replicas) {
  (void)replicas;  // chain membership comes from the space's placement
  if (auto parked = parked_.extract(config.id); !parked.empty()) {
    // Migrated back into a space it left: reuse the storage, but start
    // empty like a revived switch; the donor's stream rebuilds it.
    parked.mapped()->reset(host_.sw().control_plane().token());
    spaces_.insert(std::move(parked));
  } else {
    spaces_.emplace(config.id, std::make_unique<SroSpaceState>(host_.sw(), config));
  }
  remote_spaces_.erase(config.id);  // migration: this switch became a member
}

void ChainEngine::add_remote_space(const SpaceConfig& config) {
  if (auto hosted = spaces_.extract(config.id); !hosted.empty()) {
    // Migrated out of the space: park its storage (the SRAM stays booked
    // for a rejoin) and serve it by the remote path, never from the copy
    // that stopped receiving writes.
    parked_.insert(std::move(hosted));
  }
  remote_spaces_.emplace(config.id, config);
}

bool ChainEngine::hosts_space(std::uint32_t space) const noexcept {
  return spaces_.contains(space);
}

bool ChainEngine::serves_space(std::uint32_t space) const noexcept {
  return spaces_.contains(space) || remote_spaces_.contains(space);
}

const SroSpaceState* ChainEngine::space_state(std::uint32_t id) const {
  auto it = spaces_.find(id);
  return it == spaces_.end() ? nullptr : it->second.get();
}

void ChainEngine::reset() {
  for (auto& [id, sp] : spaces_) sp->reset(host_.sw().control_plane().token());
  for (auto& [id, pw] : pending_writes_) pw.retry_timer.cancel();
  pending_writes_.clear();
  head_assigned_.clear();
}

std::vector<pkt::MsgType> ChainEngine::message_types() const {
  return {pkt::MsgType::kWriteRequest, pkt::MsgType::kWriteAck};
}

bool ChainEngine::handle_message(pkt::SwishMessage& msg) {
  if (auto* req = std::get_if<pkt::WriteRequest>(&msg)) {
    if (req->ops.empty() || !serves_space(req->ops.front().space)) return false;
    on_write_request(std::move(*req));
    return true;
  }
  if (const auto* ack = std::get_if<pkt::WriteAck>(&msg)) {
    if (ack->ops.empty() || !serves_space(ack->ops.front().space)) return false;
    on_write_ack(*ack);
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

void ChainEngine::send_chain_msg(SwitchId dst, const pkt::SwishMessage& msg) {
  stats_.bytes_write += host_.send(dst, msg);
}

bool ChainEngine::chain_contains(const Placement& chain, SwitchId sw) noexcept {
  return std::find(chain.members.begin(), chain.members.end(), sw) != chain.members.end();
}

SwitchId ChainEngine::chain_successor(const Placement& chain) const noexcept {
  auto it = std::find(chain.members.begin(), chain.members.end(), host_.self());
  if (it == chain.members.end() || it + 1 == chain.members.end()) return kInvalidNode;
  return *(it + 1);
}

// ---------------------------------------------------------------------------
// Writer side (§6.1)
// ---------------------------------------------------------------------------

void ChainEngine::write(std::vector<pkt::WriteOp> ops, pkt::Packet output, WriteRelease release) {
  ++stats_.writes_submitted;
  if (pending_writes_.size() >= host_.config().cp_buffer_limit) {
    ++stats_.writes_rejected;
    host_.report_drop(telemetry::DropReason::kCpBufferFull,
                      ops.empty() ? 0 : ops.front().key);
    return;
  }
  const std::uint64_t id = mint_id(host_.self(), next_write_id_);
  PendingWrite pw;
  pw.ops = std::move(ops);
  pw.output = std::move(output);
  pw.release = std::move(release);
  pw.submit_time = host_.sw().simulator().now();
  if (!pw.ops.empty()) {
    pw.trace = trace_origin("chain_write", pw.ops.front().space, pw.ops.front().key);
    if (obs_.enabled()) {
      // Commit-at-origin for lag accounting is the submit: each chain member
      // is one expected apply (the writer re-counts itself if in the chain).
      const auto expected =
          static_cast<std::uint32_t>(host_.placement(pw.ops.front().space).members.size());
      for (const auto& op : pw.ops) obs_.on_commit(op.space, op.key, id, host_.self(), expected);
    }
  }
  const telemetry::SpanContext tr = pw.trace;
  pending_writes_.emplace(id, std::move(pw));
  // The control plane buffers P' and issues the write request (§6.1).
  const bool accepted = host_.sw().control_plane().submit([this, id, tr]() {
    ActiveTraceScope scope(host_, tr);
    send_write_request(id);
    arm_retry(id);
  });
  if (!accepted) {
    pending_writes_.erase(id);
    ++stats_.writes_rejected;
    host_.report_drop(telemetry::DropReason::kCpBufferFull, id);
  }
}

void ChainEngine::send_write_request(std::uint64_t write_id) {
  auto it = pending_writes_.find(write_id);
  if (it == pending_writes_.end()) return;
  if (it->second.ops.empty()) return;
  const Placement& chain = host_.placement(it->second.ops.front().space);
  if (chain.members.empty()) return;  // no chain configured yet; retry later
  pkt::WriteRequest req;
  req.epoch = chain.epoch;
  req.writer = host_.self();
  req.write_id = write_id;
  req.ops = it->second.ops;
  send_chain_msg(chain.members.front(), req);
}

void ChainEngine::arm_retry(std::uint64_t write_id) {
  auto it = pending_writes_.find(write_id);
  if (it == pending_writes_.end()) return;
  it->second.retry_timer = host_.sw().control_plane().schedule_after(
      host_.config().write_retry_timeout, [this, write_id]() {
        auto pit = pending_writes_.find(write_id);
        if (pit == pending_writes_.end()) return;  // already committed
        if (++pit->second.retries > host_.config().max_write_retries) {
          ++stats_.writes_failed;
          host_.report_drop(telemetry::DropReason::kWriteRetriesExhausted, write_id);
          pending_writes_.erase(pit);
          return;
        }
        ++stats_.write_retries;
        // The retransmission stays on the original write's causal chain; the
        // runtime's send-identity cache reuses the first transmission's span.
        ActiveTraceScope scope(host_, pit->second.trace);
        send_write_request(write_id);
        arm_retry(write_id);
      });
}

// ---------------------------------------------------------------------------
// Chain side (§6.1)
// ---------------------------------------------------------------------------

bool ChainEngine::ops_table_backed(const std::vector<pkt::WriteOp>& ops) const {
  for (const auto& op : ops) {
    auto it = spaces_.find(op.space);
    if (it != spaces_.end() && it->second->config().table_backed) return true;
  }
  return false;
}

void ChainEngine::on_write_request(pkt::WriteRequest msg) {
  ++stats_.chain_requests_seen;
  if (msg.ops.empty()) return;
  const Placement& chain = host_.placement(msg.ops.front().space);
  if (msg.epoch != chain.epoch) {
    ++stats_.chain_stale_epoch;
    return;  // writer will retry with the current epoch
  }
  if (!chain_contains(chain, host_.self())) return;
  if (msg.seqs.empty()) {
    if (chain.members.front() != host_.self()) return;  // misrouted; dropped, retried
    head_process(std::move(msg));
  } else {
    relay_process(std::move(msg));
  }
}

void ChainEngine::head_process(pkt::WriteRequest msg) {
  auto work = [this, msg = std::move(msg), tr = host_.active_trace()]() mutable {
    ActiveTraceScope scope(host_, tr);
    auto dedup = head_assigned_.find(msg.write_id);
    if (dedup != head_assigned_.end()) {
      // Retransmitted write already sequenced: re-forward with the same seqs
      // so the chain stays idempotent.
      msg.seqs = dedup->second;
    } else {
      msg.seqs.resize(msg.ops.size());
      for (std::size_t i = 0; i < msg.ops.size(); ++i) {
        const auto& op = msg.ops[i];
        auto it = spaces_.find(op.space);
        if (it == spaces_.end()) continue;
        SroSpaceState& sp = *it->second;
        const SeqNum seq = sp.key_guard_seq(op.key) + 1;
        apply_committed(host_, sp, op);
        sp.set_key_guard_seq(op.key, seq);
        sp.set_key_pending(op.key);
        msg.seqs[i] = seq;
      }
      // Bounded dedup memory: entries are erased on ack; a blunt clear guards
      // against pathological loss keeping the map growing.
      if (head_assigned_.size() > 65536) head_assigned_.clear();
      head_assigned_.emplace(msg.write_id, msg.seqs);
      trace_point("chain_apply", msg.ops.front().space, msg.ops.front().key);
      for (const auto& op : msg.ops) {
        obs_.on_apply(op.space, op.key, msg.writer, msg.write_id, host_.self());
      }
    }
    const Placement& chain = host_.placement(msg.ops.front().space);
    if (chain.members.back() == host_.self()) {
      tail_commit(std::move(msg));
    } else {
      send_chain_msg(chain_successor(chain), std::move(msg));
    }
  };
  // Table-backed state is updated through each hop's control plane (§6.1);
  // register-backed updates run entirely in the data plane.
  if (ops_table_backed(msg.ops)) {
    host_.sw().control_plane().submit(std::move(work));
  } else {
    work();
  }
}

void ChainEngine::relay_process(pkt::WriteRequest msg) {
  auto work = [this, msg = std::move(msg), tr = host_.active_trace()]() mutable {
    ActiveTraceScope scope(host_, tr);
    // Per-slot in-order check: a gap means an earlier write was lost; drop the
    // whole request and let the writer's retransmit repair the chain.
    for (std::size_t i = 0; i < msg.ops.size(); ++i) {
      auto it = spaces_.find(msg.ops[i].space);
      if (it == spaces_.end()) continue;
      const SroSpaceState& sp = *it->second;
      if (msg.seqs[i] > sp.key_guard_seq(msg.ops[i].key) + 1) {
        ++stats_.chain_gap_drops;
        return;
      }
    }
    bool applied_any = false;
    for (std::size_t i = 0; i < msg.ops.size(); ++i) {
      auto it = spaces_.find(msg.ops[i].space);
      if (it == spaces_.end()) continue;
      SroSpaceState& sp = *it->second;
      if (msg.seqs[i] == sp.key_guard_seq(msg.ops[i].key) + 1) {
        apply_committed(host_, sp, msg.ops[i]);
        sp.set_key_guard_seq(msg.ops[i].key, msg.seqs[i]);
        sp.set_key_pending(msg.ops[i].key);
        applied_any = true;
        obs_.on_apply(msg.ops[i].space, msg.ops[i].key, msg.writer, msg.write_id, host_.self());
      }
      // seqs[i] <= guard: duplicate of an already-applied write; still forward
      // so downstream switches that missed it catch up.
    }
    if (applied_any) trace_point("chain_apply", msg.ops.front().space, msg.ops.front().key);
    const Placement& chain = host_.placement(msg.ops.front().space);
    if (chain.members.back() == host_.self()) {
      tail_commit(std::move(msg));
    } else {
      send_chain_msg(chain_successor(chain), std::move(msg));
    }
  };
  if (ops_table_backed(msg.ops)) {
    host_.sw().control_plane().submit(std::move(work));
  } else {
    work();
  }
}

void ChainEngine::tail_commit(pkt::WriteRequest msg) {
  if (!msg.ops.empty()) {
    trace_point("tail_commit", msg.ops.front().space, msg.ops.front().key);
  }
  // The tail's copy is authoritative; it never redirects, so its pending bits
  // can clear immediately.
  for (std::size_t i = 0; i < msg.ops.size(); ++i) {
    auto it = spaces_.find(msg.ops[i].space);
    if (it == spaces_.end()) continue;
    SroSpaceState& sp = *it->second;
    sp.clear_key_pending_up_to(msg.ops[i].key, msg.seqs[i]);
  }
  // One ack, to the writer first and then to every other member.
  const Placement& chain = host_.placement(msg.ops.empty() ? 0 : msg.ops.front().space);
  ack_dsts_.assign(1, msg.writer);
  for (SwitchId member : chain.members) {
    if (member != host_.self() && member != msg.writer) ack_dsts_.push_back(member);
  }
  const pkt::SwishMessage ack =
      pkt::WriteAck{msg.epoch, msg.writer, msg.write_id, std::move(msg.ops), std::move(msg.seqs)};
  stats_.bytes_write += host_.send(ack_dsts_, ack);
  // While a recovery stream is active, every commit is also fed to the
  // recovering switch, in order, behind the snapshot (§6.3).
  const auto& committed = std::get<pkt::WriteAck>(ack);
  host_.recovery_tap(committed.ops, committed.seqs);
}

void ChainEngine::on_write_ack(const pkt::WriteAck& msg) {
  // Writer side: release the buffered output packet (via the CP, which
  // injects it back into the data plane, §7).
  if (msg.writer == host_.self()) {
    auto it = pending_writes_.find(msg.write_id);
    if (it != pending_writes_.end()) {
      it->second.retry_timer.cancel();
      ++stats_.writes_committed;
      if (!msg.ops.empty()) {
        trace_point("commit_ack", msg.ops.front().space, msg.ops.front().key);
      }
      stats_.write_latency.add(static_cast<std::uint64_t>(host_.sw().simulator().now() -
                                                          it->second.submit_time));
      auto release = std::move(it->second.release);
      auto output = std::move(it->second.output);
      pending_writes_.erase(it);
      if (release) {
        host_.sw().control_plane().submit(
            [release = std::move(release), output = std::move(output)]() mutable {
              release(std::move(output));
            });
      }
    }
  }
  // Ack processing in the data plane (§3.3): clear pending bits.
  for (std::size_t i = 0; i < msg.ops.size() && i < msg.seqs.size(); ++i) {
    auto it = spaces_.find(msg.ops[i].space);
    if (it == spaces_.end()) continue;
    SroSpaceState& sp = *it->second;
    sp.clear_key_pending_up_to(msg.ops[i].key, msg.seqs[i]);
  }
  head_assigned_.erase(msg.write_id);
}

// ---------------------------------------------------------------------------
// Reads (§6.1)
// ---------------------------------------------------------------------------

ReadStatus ChainEngine::read(pisa::PacketContext* ctx, std::uint32_t space, std::uint64_t key,
                             std::uint64_t& value) {
  const Placement& chain = host_.placement(space);
  auto it = spaces_.find(space);
  if (it == spaces_.end()) {
    // Not a replica of this space (§9 partitioning): serve from the tail.
    auto rit = remote_spaces_.find(space);
    if (rit == remote_spaces_.end() || chain.members.empty() || ctx == nullptr) {
      return ReadStatus::kMiss;
    }
    ++stats_.reads_redirected;
    stats_.bytes_redirect +=
        host_.send(chain.members.back(), pkt::ReadRedirect{host_.self(), ctx->packet.bytes()});
    return ReadStatus::kRedirected;
  }
  const SroSpaceState& sp = *it->second;

  const bool tail_here = !chain.members.empty() && chain.members.back() == host_.self();
  bool local_ok = always_local()           // ERO: always local
                  || host_.authoritative() // already at the tail
                  || tail_here;            // tail state is committed
  if (!local_ok && chain_contains(chain, host_.self())) {
    local_ok = !sp.key_pending(key);  // CRAQ-style local read (§6.1)
  }
  if (!local_ok) {
    if (chain.members.empty() || ctx == nullptr) {
      // Unreplicated deployment (nothing to redirect to), or a caller that
      // cannot be redirected: serve the local copy.
      local_ok = true;
    } else {
      ++stats_.reads_redirected;
      stats_.bytes_redirect +=
          host_.send(chain.members.back(), pkt::ReadRedirect{host_.self(), ctx->packet.bytes()});
      return ReadStatus::kRedirected;
    }
  }
  ++stats_.reads_local;
  obs_.on_read(space, key, host_.self());
  auto v = sp.read(key);
  if (!v) return ReadStatus::kMiss;
  value = *v;
  return ReadStatus::kOk;
}

std::optional<std::uint64_t> ChainEngine::read_lpm(std::uint32_t space, std::uint64_t key) {
  auto it = spaces_.find(space);
  if (it == spaces_.end()) return std::nullopt;
  ++stats_.reads_local;
  return it->second->read_lpm(key);
}

// ---------------------------------------------------------------------------
// Recovery (§6.3)
// ---------------------------------------------------------------------------

void ChainEngine::apply_recovery_op(const pkt::WriteOp& op, SeqNum seq) {
  auto it = spaces_.find(op.space);
  if (it == spaces_.end()) return;
  SroSpaceState& sp = *it->second;
  // Stream order replays the donor's apply order, so application is
  // unconditional; guards advance monotonically.
  apply_committed(host_, sp, op);
  if (seq > sp.key_guard_seq(op.key)) sp.set_key_guard_seq(op.key, seq);
}

}  // namespace swish::shm
