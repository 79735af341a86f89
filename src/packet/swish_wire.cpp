#include "packet/swish_wire.hpp"

#include <concepts>
#include <type_traits>
#include <utility>

namespace swish::pkt {
namespace {

/// Matches `T` and `const T`, so one field list serves both the encoder
/// (const message) and the decoder (message being filled).
template <typename M, typename T>
concept Is = std::same_as<std::remove_const_t<M>, T>;

// Field lists: the one layout of every message and record, walked by Sizer
// to size, by Writer to encode and by Reader to decode. `io(...)` lists
// fields in wire order: integers at their native width, big-endian; bool as
// one byte; a byte vector as a u16 length and the bytes; any other vector as
// a u16 count and its elements. `io.ops` walks an op list: u16 count, a
// has-seqs byte, then each op followed by its seq when the list carries seqs.

void fields(auto& io, Is<WriteOp> auto& m) { io(m.space, m.key, m.value); }

void fields(auto& io, Is<EwoEntry> auto& m) { io(m.space, m.key, m.version, m.value); }

void fields(auto& io, Is<MemberInfo> auto& m) {
  io(m.member, m.state, m.incarnation, m.evidence_ns);
}

void fields(auto& io, Is<ConEntry> auto& m) {
  io(m.slot, m.ballot, m.writer, m.req_id);
  io.ops(m.ops);
}

void fields(auto& io, Is<WriteRequest> auto& m) {
  io(m.epoch, m.writer, m.write_id, m.snapshot_replay, m.snapshot_epoch);
  io.ops(m.ops, &m.seqs);
}

void fields(auto& io, Is<WriteAck> auto& m) {
  io(m.epoch, m.writer, m.write_id);
  io.ops(m.ops, &m.seqs);
}

void fields(auto& io, Is<EwoUpdate> auto& m) { io(m.origin, m.periodic, m.entries); }

void fields(auto& io, Is<Heartbeat> auto& m) { io(m.sender, m.send_time_ns); }

void fields(auto& io, Is<ReadRedirect> auto& m) { io(m.origin, m.original_packet); }

void fields(auto& io, Is<OwnRequest> auto& m) {
  io(m.space, m.key, m.requester, m.req_id, m.revoke);
}

void fields(auto& io, Is<OwnGrant> auto& m) {
  io(m.space, m.key, m.new_owner, m.req_id, m.value, m.version);
}

void fields(auto& io, Is<OwnUpdate> auto& m) { io(m.owner, m.claim, m.entries); }

void fields(auto& io, Is<SwimPing> auto& m) {
  io(m.sender, m.origin, m.seq, m.incarnation, m.gossip);
}

void fields(auto& io, Is<SwimAck> auto& m) { io(m.subject, m.seq, m.incarnation, m.gossip); }

void fields(auto& io, Is<SwimPingReq> auto& m) { io(m.sender, m.target, m.seq, m.gossip); }

void fields(auto& io, Is<MembershipUpdate> auto& m) { io(m.sender, m.entries); }

void fields(auto& io, Is<ConForward> auto& m) {
  io(m.epoch, m.writer, m.req_id);
  io.ops(m.ops);
}

void fields(auto& io, Is<ConPrepare> auto& m) { io(m.epoch, m.ballot, m.coordinator); }

void fields(auto& io, Is<ConPromise> auto& m) {
  io(m.epoch, m.ballot, m.acceptor, m.applied_upto, m.entries);
}

void fields(auto& io, Is<ConAccept> auto& m) {
  io(m.epoch, m.ballot, m.slot, m.commit_upto, m.writer, m.req_id);
  io.ops(m.ops);
}

void fields(auto& io, Is<ConAccepted> auto& m) {
  io(m.epoch, m.ballot, m.slot, m.acceptor, m.applied_upto);
}

void fields(auto& io, Is<ConLearn> auto& m) {
  io(m.epoch, m.ballot, m.slot, m.commit_upto, m.writer, m.req_id);
  io.ops(m.ops);
}

/// Sums the encoded length of field lists, encoding nothing.
class Sizer {
 public:
  void operator()(const auto&... field) { (add(field), ...); }

  void ops(const std::vector<WriteOp>& ops, const std::vector<SeqNum>* seqs = nullptr) {
    const bool has_seqs = seqs != nullptr && !seqs->empty();
    bytes_ += 2 + 1;  // count, has-seqs byte
    for (const WriteOp& op : ops) {
      fields(*this, op);
      if (has_seqs) bytes_ += sizeof(SeqNum);
    }
  }

  /// Sizes a message body; flattened like Writer::body.
  [[gnu::flatten]] void body(const auto& m) { fields(*this, m); }

  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

 private:
  static_assert(sizeof(bool) == 1, "bool travels as one byte");

  template <typename T>
    requires std::is_integral_v<T>
  void add(T) {
    bytes_ += sizeof(T);
  }

  void add(const std::vector<std::uint8_t>& blob) { bytes_ += 2 + blob.size(); }

  template <typename T>
  void add(const std::vector<T>& list) {
    bytes_ += 2;
    for (const T& element : list) fields(*this, element);
  }

  std::size_t bytes_ = 0;
};

/// Encodes field lists through a cursor into a region the Sizer sized.
class Writer {
 public:
  explicit Writer(ByteCursor& out) : out_(out) {}

  void operator()(const auto&... field) { (put(field), ...); }

  void ops(const std::vector<WriteOp>& ops, const std::vector<SeqNum>* seqs = nullptr) {
    const bool has_seqs = seqs != nullptr && !seqs->empty();
    out_.u16(static_cast<std::uint16_t>(ops.size()));
    out_.u8(has_seqs ? 1 : 0);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      fields(*this, ops[i]);
      if (has_seqs) out_.u64((*seqs)[i]);
    }
  }

  /// Writes a message body. Flattened so every field write is inlined into
  /// the body: otherwise the unit's inline budget runs out and leaves
  /// ByteCursor calls out of line on the hottest messages.
  [[gnu::flatten]] void body(const auto& m) { fields(*this, m); }

 private:
  void put(bool v) { out_.u8(v ? 1 : 0); }
  void put(std::uint8_t v) { out_.u8(v); }
  void put(std::uint16_t v) { out_.u16(v); }
  void put(std::uint32_t v) { out_.u32(v); }
  void put(std::uint64_t v) { out_.u64(v); }

  void put(const std::vector<std::uint8_t>& blob) {
    out_.u16(static_cast<std::uint16_t>(blob.size()));
    out_.raw(blob);
  }

  template <typename T>
  void put(const std::vector<T>& list) {
    out_.u16(static_cast<std::uint16_t>(list.size()));
    for (const T& element : list) fields(*this, element);
  }

  ByteCursor& out_;
};

/// Decodes field lists from a payload; a read past its end throws
/// BufferError.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> payload) : in_(payload) {}

  void operator()(auto&... field) { (get(field), ...); }

  /// Seqs carried by a list whose message keeps none (`seqs` null) are read
  /// and dropped.
  void ops(std::vector<WriteOp>& ops, std::vector<SeqNum>* seqs = nullptr) {
    const std::uint16_t n = in_.u16();
    const bool has_seqs = in_.u8() != 0;
    ops.resize(n);
    if (has_seqs && seqs != nullptr) seqs->resize(n);
    for (std::uint16_t i = 0; i < n; ++i) {
      fields(*this, ops[i]);
      if (!has_seqs) continue;
      const SeqNum seq = in_.u64();
      if (seqs != nullptr) (*seqs)[i] = seq;
    }
  }

 private:
  void get(bool& v) { v = in_.u8() != 0; }
  void get(std::uint8_t& v) { v = in_.u8(); }
  void get(std::uint16_t& v) { v = in_.u16(); }
  void get(std::uint32_t& v) { v = in_.u32(); }
  void get(std::uint64_t& v) { v = in_.u64(); }

  void get(std::vector<std::uint8_t>& blob) {
    const auto bytes = in_.raw(in_.u16());
    blob.assign(bytes.begin(), bytes.end());
  }

  template <typename T>
  void get(std::vector<T>& list) {
    list.resize(in_.u16());
    for (T& element : list) fields(*this, element);
  }

  ByteReader in_;
};

template <typename M>
std::optional<SwishMessage> decode_as(Reader& in) {
  M m;
  fields(in, m);
  return m;
}

using DecodeFn = std::optional<SwishMessage> (*)(Reader&);

/// Decoder of each wire type byte, built from kMessages; null for type bytes
/// no message uses, including the retired 5 and 6.
constexpr auto kDecoders = []<std::size_t... I>(std::index_sequence<I...>) {
  std::array<DecodeFn, kNumMsgTypes + 1> table{};
  ((table[static_cast<std::size_t>(kMessages[I].type)] =
        &decode_as<std::variant_alternative_t<I, SwishMessage>>),
   ...);
  return table;
}(std::make_index_sequence<kMessages.size()>{});

/// Length of the type byte plus, when `ctx` is sampled, the trace context.
std::size_t prefix_size(const telemetry::SpanContext& ctx) noexcept {
  return ctx.sampled() ? 1 + telemetry::kSpanContextWireBytes : 1;
}

void write_prefix(std::uint8_t type, const telemetry::SpanContext& ctx, ByteCursor& out) {
  Writer w(out);
  if (ctx.sampled()) {
    w(static_cast<std::uint8_t>(type | kTracedFlag), ctx.trace_id, ctx.span_id, ctx.hop);
  } else {
    w(type);
  }
}

std::size_t body_size(const SwishMessage& msg) {
  Sizer size;
  std::visit([&size](const auto& m) { size.body(m); }, msg);
  return size.bytes();
}

void write_body(const SwishMessage& msg, ByteCursor& out) {
  Writer w(out);
  std::visit([&w](const auto& m) { w.body(m); }, msg);
}

}  // namespace

std::size_t encoded_size(const SwishMessage& msg, const telemetry::SpanContext& ctx) {
  return prefix_size(ctx) + body_size(msg);
}

std::vector<std::uint8_t> encode_message(const SwishMessage& msg) {
  return encode_message(msg, telemetry::SpanContext{});
}

std::vector<std::uint8_t> encode_message(const SwishMessage& msg,
                                         const telemetry::SpanContext& ctx) {
  std::vector<std::uint8_t> out(encoded_size(msg, ctx));
  ByteCursor cursor(out);
  write_prefix(static_cast<std::uint8_t>(type_of(msg)), ctx, cursor);
  write_body(msg, cursor);
  return out;
}

void FrameEncoder::encode(const SwishMessage& msg) {
  type_ = static_cast<std::uint8_t>(type_of(msg));
  body_len_ = body_size(msg);
  if (buf_.size() < kRoom + body_len_) buf_.resize(kRoom + body_len_);
  ByteCursor body(std::span<std::uint8_t>(buf_).subspan(kRoom, body_len_));
  write_body(msg, body);
}

Packet FrameEncoder::frame(const PacketSpec& spec, const telemetry::SpanContext& ctx) {
  const std::size_t head = headers_len(spec.protocol) + prefix_size(ctx);
  const std::span<std::uint8_t> bytes = std::span(buf_).subspan(kRoom - head, head + body_len_);
  ByteCursor out(bytes.first(head));
  write_headers(spec, prefix_size(ctx) + body_len_, out);
  write_prefix(type_, ctx, out);
  return Packet(std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
}

std::optional<SwishMessage> decode_message(std::span<const std::uint8_t> payload) {
  telemetry::SpanContext ignored;
  return decode_message(payload, &ignored);
}

std::optional<SwishMessage> decode_message(std::span<const std::uint8_t> payload,
                                           telemetry::SpanContext* ctx) {
  *ctx = {};
  try {
    Reader in(payload);
    std::uint8_t type = 0;
    in(type);
    if ((type & kTracedFlag) != 0) {
      in(ctx->trace_id, ctx->span_id, ctx->hop);
      type &= static_cast<std::uint8_t>(~kTracedFlag);
    }
    if (type >= kDecoders.size() || kDecoders[type] == nullptr) return std::nullopt;
    return kDecoders[type](in);
  } catch (const BufferError&) {
    return std::nullopt;
  }
}

}  // namespace swish::pkt
