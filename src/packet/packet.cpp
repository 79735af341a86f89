#include "packet/packet.hpp"

#include <array>
#include <atomic>

namespace swish::pkt {

namespace {

std::optional<ParsedPacket> parse_bytes(const std::vector<std::uint8_t>& bytes) {
  try {
    ByteReader r(bytes);
    ParsedPacket out;
    out.eth = EthernetHeader::decode(r);
    if (out.eth.ether_type != kEtherTypeIpv4) {
      out.l4_payload_offset = kEthernetHeaderLen;
      return out;  // non-IP frame: opaque payload (e.g. control messages)
    }
    auto ip = Ipv4Header::decode(r);
    if (!ip) return std::nullopt;
    out.ipv4 = *ip;
    if (ip->protocol == kProtoTcp) {
      if (r.remaining() < kTcpHeaderLen) return std::nullopt;
      out.tcp = TcpHeader::decode(r);
    } else if (ip->protocol == kProtoUdp) {
      if (r.remaining() < kUdpHeaderLen) return std::nullopt;
      out.udp = UdpHeader::decode(r);
    }
    out.l4_payload_offset = r.position();
    return out;
  } catch (const BufferError&) {
    return std::nullopt;
  }
}

/// One thread's slice of the packet counters, alone on its cache line. Only
/// the thread holding the stripe writes `counts`; readers sum every stripe.
struct alignas(64) Stripe {
  std::array<std::atomic<std::uint64_t>, PacketStats::kNumFields> counts{};
  std::atomic<bool> held{false};
  Stripe* next = nullptr;  ///< immutable once published
};

/// Every stripe ever created, newest first. Stripes are never freed: an
/// exited thread's counts stay in the sums, and its stripe goes to the next
/// thread that needs one.
std::atomic<Stripe*> g_stripes{nullptr};

thread_local Stripe* tls_stripe = nullptr;

/// Releases the thread's stripe when the thread exits.
struct StripeLease {
  Stripe* stripe;
  ~StripeLease() { stripe->held.store(false, std::memory_order_release); }
};

Stripe& acquire_stripe() {
  for (Stripe* s = g_stripes.load(std::memory_order_acquire); s != nullptr; s = s->next) {
    bool held = false;
    if (s->held.compare_exchange_strong(held, true, std::memory_order_acq_rel)) return *s;
  }
  auto* s = new Stripe;
  s->held.store(true, std::memory_order_relaxed);
  s->next = g_stripes.load(std::memory_order_relaxed);
  while (!g_stripes.compare_exchange_weak(s->next, s, std::memory_order_release,
                                          std::memory_order_relaxed)) {
  }
  return *s;
}

Stripe& my_stripe() {
  if (tls_stripe == nullptr) {
    tls_stripe = &acquire_stripe();
    thread_local const StripeLease lease{tls_stripe};
  }
  return *tls_stripe;
}

}  // namespace

void PacketStats::Counter::add(std::uint64_t d) noexcept {
  std::atomic<std::uint64_t>& c = my_stripe().counts[field_];
  c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

PacketStats::Counter::operator std::uint64_t() const noexcept {
  std::uint64_t total = 0;
  for (Stripe* s = g_stripes.load(std::memory_order_acquire); s != nullptr; s = s->next) {
    total += s->counts[field_].load(std::memory_order_relaxed);
  }
  return total;
}

void PacketStats::reset() noexcept {
  for (Stripe* s = g_stripes.load(std::memory_order_acquire); s != nullptr; s = s->next) {
    for (auto& c : s->counts) c.store(0, std::memory_order_relaxed);
  }
}

PacketStats& PacketStats::global() noexcept {
  static PacketStats stats;
  return stats;
}

Packet::Packet(std::vector<std::uint8_t> bytes) {
  auto& stats = PacketStats::global();
  ++stats.buffers_created;
  stats.buffer_bytes += bytes.size();
  auto buf = std::make_shared<Buffer>();
  buf->bytes = std::move(bytes);
  buf_ = std::move(buf);
}

const std::vector<std::uint8_t>& Packet::empty_bytes() noexcept {
  static const std::vector<std::uint8_t> empty;
  return empty;
}

const ParsedPacket* Packet::parsed() const {
  if (!buf_) return nullptr;
  if (!buf_->parse_done) {
    ++PacketStats::global().parse_executions;
    buf_->parsed = parse_bytes(buf_->bytes);
    buf_->parse_done = true;
  } else {
    ++PacketStats::global().parse_cache_hits;
  }
  return buf_->parsed ? &*buf_->parsed : nullptr;
}

std::optional<ParsedPacket> Packet::parse() const {
  const ParsedPacket* p = parsed();
  if (!p) return std::nullopt;
  return *p;
}

void write_headers(const PacketSpec& spec, std::size_t payload_len, ByteCursor& out) {
  const std::size_t l4_len =
      (spec.protocol == kProtoTcp ? kTcpHeaderLen : kUdpHeaderLen) + payload_len;
  EthernetHeader{spec.eth_dst, spec.eth_src, kEtherTypeIpv4}.encode(out);

  Ipv4Header ip;
  ip.total_length = static_cast<std::uint16_t>(kIpv4HeaderLen + l4_len);
  ip.ttl = spec.ttl;
  ip.protocol = spec.protocol;
  ip.src = spec.ip_src;
  ip.dst = spec.ip_dst;
  ip.encode(out);

  if (spec.protocol == kProtoTcp) {
    TcpHeader tcp;
    tcp.src_port = spec.src_port;
    tcp.dst_port = spec.dst_port;
    tcp.seq = spec.tcp_seq;
    tcp.flags = spec.tcp_flags;
    tcp.encode(out);
  } else {
    UdpHeader udp;
    udp.src_port = spec.src_port;
    udp.dst_port = spec.dst_port;
    udp.length = static_cast<std::uint16_t>(l4_len);
    udp.encode(out);
  }
}

Packet build_packet(const PacketSpec& spec) {
  std::vector<std::uint8_t> bytes(headers_len(spec.protocol) + spec.payload.size());
  ByteCursor out(bytes);
  write_headers(spec, spec.payload.size(), out);
  out.raw(spec.payload);
  return Packet(std::move(bytes));
}

Packet rewrite_l3l4(const Packet& packet, const ParsedPacket& parsed,
                    std::optional<Ipv4Addr> new_src_ip, std::optional<Ipv4Addr> new_dst_ip,
                    std::optional<std::uint16_t> new_src_port,
                    std::optional<std::uint16_t> new_dst_port) {
  PacketSpec spec;
  spec.eth_src = parsed.eth.src;
  spec.eth_dst = parsed.eth.dst;
  const Ipv4Header& ip = parsed.ipv4.value();
  spec.ip_src = new_src_ip.value_or(ip.src);
  spec.ip_dst = new_dst_ip.value_or(ip.dst);
  spec.protocol = ip.protocol;
  spec.ttl = ip.ttl;
  spec.src_port = new_src_port.value_or(parsed.src_port());
  spec.dst_port = new_dst_port.value_or(parsed.dst_port());
  if (parsed.tcp) {
    spec.tcp_flags = parsed.tcp->flags;
    spec.tcp_seq = parsed.tcp->seq;
  }
  auto payload = packet.l4_payload(parsed);
  spec.payload.assign(payload.begin(), payload.end());
  Packet out = build_packet(spec);
  auto& stats = PacketStats::global();
  ++stats.rewrite_copies;
  stats.rewrite_bytes += out.size();
  return out;
}

}  // namespace swish::pkt
