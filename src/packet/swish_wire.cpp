#include "packet/swish_wire.hpp"

namespace swish::pkt {
namespace {

void encode_ops(ByteWriter& w, const std::vector<WriteOp>& ops, const std::vector<SeqNum>& seqs) {
  w.u16(static_cast<std::uint16_t>(ops.size()));
  w.u8(seqs.empty() ? 0 : 1);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    w.u32(ops[i].space);
    w.u64(ops[i].key);
    w.u64(ops[i].value);
    if (!seqs.empty()) w.u64(seqs[i]);
  }
}

void decode_ops(ByteReader& r, std::vector<WriteOp>& ops, std::vector<SeqNum>& seqs) {
  const std::uint16_t n = r.u16();
  const bool has_seqs = r.u8() != 0;
  ops.resize(n);
  seqs.clear();
  if (has_seqs) seqs.resize(n);
  for (std::uint16_t i = 0; i < n; ++i) {
    ops[i].space = r.u32();
    ops[i].key = r.u64();
    ops[i].value = r.u64();
    if (has_seqs) seqs[i] = r.u64();
  }
}

void encode_body(ByteWriter& w, const WriteRequest& m) {
  w.u32(m.epoch);
  w.u32(m.writer);
  w.u64(m.write_id);
  w.u8(m.snapshot_replay ? 1 : 0);
  w.u32(m.snapshot_epoch);
  encode_ops(w, m.ops, m.seqs);
}

void encode_body(ByteWriter& w, const WriteAck& m) {
  w.u32(m.epoch);
  w.u32(m.writer);
  w.u64(m.write_id);
  encode_ops(w, m.ops, m.seqs);
}

void encode_body(ByteWriter& w, const EwoUpdate& m) {
  w.u32(m.origin);
  w.u8(m.periodic ? 1 : 0);
  w.u16(static_cast<std::uint16_t>(m.entries.size()));
  for (const auto& e : m.entries) {
    w.u32(e.space);
    w.u64(e.key);
    w.u64(e.version);
    w.u64(e.value);
  }
}

void encode_body(ByteWriter& w, const Heartbeat& m) {
  w.u32(m.sender);
  w.u64(m.send_time_ns);
}

void encode_body(ByteWriter& w, const ReadRedirect& m) {
  w.u32(m.origin);
  w.u16(static_cast<std::uint16_t>(m.original_packet.size()));
  w.raw(m.original_packet);
}

void encode_body(ByteWriter& w, const OwnRequest& m) {
  w.u32(m.space);
  w.u64(m.key);
  w.u32(m.requester);
  w.u64(m.req_id);
  w.u8(m.revoke ? 1 : 0);
}

void encode_body(ByteWriter& w, const OwnGrant& m) {
  w.u32(m.space);
  w.u64(m.key);
  w.u32(m.new_owner);
  w.u64(m.req_id);
  w.u64(m.value);
  w.u64(m.version);
}

void encode_body(ByteWriter& w, const OwnUpdate& m) {
  w.u32(m.owner);
  w.u8(m.claim ? 1 : 0);
  w.u16(static_cast<std::uint16_t>(m.entries.size()));
  for (const auto& e : m.entries) {
    w.u32(e.space);
    w.u64(e.key);
    w.u64(e.version);
    w.u64(e.value);
  }
}

void encode_gossip(ByteWriter& w, const std::vector<MemberInfo>& gossip) {
  w.u16(static_cast<std::uint16_t>(gossip.size()));
  for (const auto& g : gossip) {
    w.u32(g.member);
    w.u8(g.state);
    w.u32(g.incarnation);
    w.u64(g.evidence_ns);
  }
}

void decode_gossip(ByteReader& r, std::vector<MemberInfo>& gossip) {
  const std::uint16_t n = r.u16();
  gossip.resize(n);
  for (auto& g : gossip) {
    g.member = r.u32();
    g.state = r.u8();
    g.incarnation = r.u32();
    g.evidence_ns = r.u64();
  }
}

void encode_body(ByteWriter& w, const SwimPing& m) {
  w.u32(m.sender);
  w.u32(m.origin);
  w.u64(m.seq);
  w.u32(m.incarnation);
  encode_gossip(w, m.gossip);
}

void encode_body(ByteWriter& w, const SwimAck& m) {
  w.u32(m.subject);
  w.u64(m.seq);
  w.u32(m.incarnation);
  encode_gossip(w, m.gossip);
}

void encode_body(ByteWriter& w, const SwimPingReq& m) {
  w.u32(m.sender);
  w.u32(m.target);
  w.u64(m.seq);
  encode_gossip(w, m.gossip);
}

void encode_body(ByteWriter& w, const MembershipUpdate& m) {
  w.u32(m.sender);
  encode_gossip(w, m.entries);
}

void encode_body(ByteWriter& w, const ConForward& m) {
  w.u32(m.epoch);
  w.u32(m.writer);
  w.u64(m.req_id);
  encode_ops(w, m.ops, {});
}

void encode_body(ByteWriter& w, const ConPrepare& m) {
  w.u32(m.epoch);
  w.u64(m.ballot);
  w.u32(m.coordinator);
}

void encode_body(ByteWriter& w, const ConPromise& m) {
  w.u32(m.epoch);
  w.u64(m.ballot);
  w.u32(m.acceptor);
  w.u64(m.applied_upto);
  w.u16(static_cast<std::uint16_t>(m.entries.size()));
  for (const auto& e : m.entries) {
    w.u64(e.slot);
    w.u64(e.ballot);
    w.u32(e.writer);
    w.u64(e.req_id);
    encode_ops(w, e.ops, {});
  }
}

void encode_body(ByteWriter& w, const ConAccept& m) {
  w.u32(m.epoch);
  w.u64(m.ballot);
  w.u64(m.slot);
  w.u64(m.commit_upto);
  w.u32(m.writer);
  w.u64(m.req_id);
  encode_ops(w, m.ops, {});
}

void encode_body(ByteWriter& w, const ConAccepted& m) {
  w.u32(m.epoch);
  w.u64(m.ballot);
  w.u64(m.slot);
  w.u32(m.acceptor);
  w.u64(m.applied_upto);
}

void encode_body(ByteWriter& w, const ConLearn& m) {
  w.u32(m.epoch);
  w.u64(m.ballot);
  w.u64(m.slot);
  w.u64(m.commit_upto);
  w.u32(m.writer);
  w.u64(m.req_id);
  encode_ops(w, m.ops, {});
}

std::optional<SwishMessage> decode_body(ByteReader& r, MsgType type);

}  // namespace

std::vector<std::uint8_t> encode_message(const SwishMessage& msg) {
  ByteWriter w(64);
  w.u8(static_cast<std::uint8_t>(type_of(msg)));
  std::visit([&w](const auto& m) { encode_body(w, m); }, msg);
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_message(const SwishMessage& msg,
                                         const telemetry::SpanContext& ctx) {
  if (!ctx.sampled()) return encode_message(msg);
  ByteWriter w(64 + telemetry::kSpanContextWireBytes);
  w.u8(static_cast<std::uint8_t>(type_of(msg)) | kTracedFlag);
  w.u64(ctx.trace_id);
  w.u64(ctx.span_id);
  w.u8(ctx.hop);
  std::visit([&w](const auto& m) { encode_body(w, m); }, msg);
  return std::move(w).take();
}

std::optional<SwishMessage> decode_message(std::span<const std::uint8_t> payload) {
  telemetry::SpanContext ignored;
  return decode_message(payload, &ignored);
}

std::optional<SwishMessage> decode_message(std::span<const std::uint8_t> payload,
                                           telemetry::SpanContext* ctx) {
  *ctx = {};
  try {
    ByteReader r(payload);
    const std::uint8_t type_byte = r.u8();
    if ((type_byte & kTracedFlag) != 0) {
      ctx->trace_id = r.u64();
      ctx->span_id = r.u64();
      ctx->hop = r.u8();
    }
    return decode_body(r, static_cast<MsgType>(type_byte & ~kTracedFlag));
  } catch (const BufferError&) {
    return std::nullopt;
  }
}

namespace {

std::optional<SwishMessage> decode_body(ByteReader& r, MsgType type) {
  try {
    switch (type) {
      case MsgType::kWriteRequest: {
        WriteRequest m;
        m.epoch = r.u32();
        m.writer = r.u32();
        m.write_id = r.u64();
        m.snapshot_replay = r.u8() != 0;
        m.snapshot_epoch = r.u32();
        decode_ops(r, m.ops, m.seqs);
        return m;
      }
      case MsgType::kWriteAck: {
        WriteAck m;
        m.epoch = r.u32();
        m.writer = r.u32();
        m.write_id = r.u64();
        decode_ops(r, m.ops, m.seqs);
        return m;
      }
      case MsgType::kEwoUpdate: {
        EwoUpdate m;
        m.origin = r.u32();
        m.periodic = r.u8() != 0;
        const std::uint16_t n = r.u16();
        m.entries.resize(n);
        for (auto& e : m.entries) {
          e.space = r.u32();
          e.key = r.u64();
          e.version = r.u64();
          e.value = r.u64();
        }
        return m;
      }
      case MsgType::kHeartbeat: {
        Heartbeat m;
        m.sender = r.u32();
        m.send_time_ns = r.u64();
        return m;
      }
      case MsgType::kReadRedirect: {
        ReadRedirect m;
        m.origin = r.u32();
        const std::uint16_t n = r.u16();
        auto raw = r.raw(n);
        m.original_packet.assign(raw.begin(), raw.end());
        return m;
      }
      case MsgType::kOwnRequest: {
        OwnRequest m;
        m.space = r.u32();
        m.key = r.u64();
        m.requester = r.u32();
        m.req_id = r.u64();
        m.revoke = r.u8() != 0;
        return m;
      }
      case MsgType::kOwnGrant: {
        OwnGrant m;
        m.space = r.u32();
        m.key = r.u64();
        m.new_owner = r.u32();
        m.req_id = r.u64();
        m.value = r.u64();
        m.version = r.u64();
        return m;
      }
      case MsgType::kOwnUpdate: {
        OwnUpdate m;
        m.owner = r.u32();
        m.claim = r.u8() != 0;
        const std::uint16_t n = r.u16();
        m.entries.resize(n);
        for (auto& e : m.entries) {
          e.space = r.u32();
          e.key = r.u64();
          e.version = r.u64();
          e.value = r.u64();
        }
        return m;
      }
      case MsgType::kSwimPing: {
        SwimPing m;
        m.sender = r.u32();
        m.origin = r.u32();
        m.seq = r.u64();
        m.incarnation = r.u32();
        decode_gossip(r, m.gossip);
        return m;
      }
      case MsgType::kSwimAck: {
        SwimAck m;
        m.subject = r.u32();
        m.seq = r.u64();
        m.incarnation = r.u32();
        decode_gossip(r, m.gossip);
        return m;
      }
      case MsgType::kSwimPingReq: {
        SwimPingReq m;
        m.sender = r.u32();
        m.target = r.u32();
        m.seq = r.u64();
        decode_gossip(r, m.gossip);
        return m;
      }
      case MsgType::kMembershipUpdate: {
        MembershipUpdate m;
        m.sender = r.u32();
        decode_gossip(r, m.entries);
        return m;
      }
      case MsgType::kConForward: {
        ConForward m;
        m.epoch = r.u32();
        m.writer = r.u32();
        m.req_id = r.u64();
        std::vector<SeqNum> ignored;
        decode_ops(r, m.ops, ignored);
        return m;
      }
      case MsgType::kConPrepare: {
        ConPrepare m;
        m.epoch = r.u32();
        m.ballot = r.u64();
        m.coordinator = r.u32();
        return m;
      }
      case MsgType::kConPromise: {
        ConPromise m;
        m.epoch = r.u32();
        m.ballot = r.u64();
        m.acceptor = r.u32();
        m.applied_upto = r.u64();
        const std::uint16_t n = r.u16();
        m.entries.resize(n);
        std::vector<SeqNum> ignored;
        for (auto& e : m.entries) {
          e.slot = r.u64();
          e.ballot = r.u64();
          e.writer = r.u32();
          e.req_id = r.u64();
          decode_ops(r, e.ops, ignored);
        }
        return m;
      }
      case MsgType::kConAccept: {
        ConAccept m;
        m.epoch = r.u32();
        m.ballot = r.u64();
        m.slot = r.u64();
        m.commit_upto = r.u64();
        m.writer = r.u32();
        m.req_id = r.u64();
        std::vector<SeqNum> ignored;
        decode_ops(r, m.ops, ignored);
        return m;
      }
      case MsgType::kConAccepted: {
        ConAccepted m;
        m.epoch = r.u32();
        m.ballot = r.u64();
        m.slot = r.u64();
        m.acceptor = r.u32();
        m.applied_upto = r.u64();
        return m;
      }
      case MsgType::kConLearn: {
        ConLearn m;
        m.epoch = r.u32();
        m.ballot = r.u64();
        m.slot = r.u64();
        m.commit_upto = r.u64();
        m.writer = r.u32();
        m.req_id = r.u64();
        std::vector<SeqNum> ignored;
        decode_ops(r, m.ops, ignored);
        return m;
      }
    }
    return std::nullopt;
  } catch (const BufferError&) {
    return std::nullopt;
  }
}

}  // namespace

std::size_t encoded_size(const SwishMessage& msg) { return encode_message(msg).size(); }

}  // namespace swish::pkt
