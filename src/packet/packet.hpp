// The simulated packet: a refcounted immutable byte buffer plus a
// lazily-parsed, cached L2-L4 view.
//
// Copying a Packet never copies bytes — copies share one underlying buffer,
// so forwarding, multicast fan-out, egress-queue closures, and taps are all
// zero-copy. Rewrites (rewrite_l3l4, the NAT/LB data paths) produce a fresh
// buffer: copy-on-write semantics. Because buffers are immutable, the parse
// result is computed at most once per distinct buffer and shared by every
// Packet handle referencing it (a packet parsed at the ingress switch is not
// re-parsed at later hops, taps, or recirculations).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "packet/headers.hpp"

// Marker for code (benches) that reports the data-path instrumentation
// counters; absent in older revisions of this header.
#define SWISH_PACKET_STATS 1

namespace swish::pkt {

/// Parsed view of a packet's stacked headers. Offsets index into the raw
/// bytes so payloads can be sliced without copying.
struct ParsedPacket {
  EthernetHeader eth;
  std::optional<Ipv4Header> ipv4;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::size_t l4_payload_offset = 0;

  [[nodiscard]] std::uint16_t src_port() const noexcept {
    return tcp ? tcp->src_port : (udp ? udp->src_port : 0);
  }
  [[nodiscard]] std::uint16_t dst_port() const noexcept {
    return tcp ? tcp->dst_port : (udp ? udp->dst_port : 0);
  }
};

/// Data-path instrumentation: one process-wide instance, bumped from every
/// shard's thread. Cheap enough to keep always-on: each thread bumps its own
/// cache-line stripe with a plain load and store — no locked RMW, no line
/// shared between cores — and reading a field sums the stripes of every
/// thread that ever bumped one (a stripe outlives its thread, so totals stay
/// exact after workers exit). Read totals and reset() at quiescent points,
/// between runs: a bump racing a reset may survive it.
class PacketStats {
 public:
  enum Field : std::uint8_t {
    kBuffersCreated,
    kBufferBytes,
    kParseExecutions,
    kParseCacheHits,
    kRewriteCopies,
    kRewriteBytes,
    kNumFields,
  };

  /// One field, with plain-integer ergonomics: bumps land in the calling
  /// thread's stripe, the conversion sums all stripes.
  class Counter {
   public:
    void operator++() noexcept { add(1); }
    void operator+=(std::uint64_t d) noexcept { add(d); }
    operator std::uint64_t() const noexcept;  // NOLINT(google-explicit-constructor)

   private:
    friend class PacketStats;
    explicit constexpr Counter(Field field) noexcept : field_(field) {}
    void add(std::uint64_t d) noexcept;
    Field field_;
  };

  Counter buffers_created{kBuffersCreated};    ///< fresh buffer allocations
  Counter buffer_bytes{kBufferBytes};          ///< bytes placed into fresh buffers
  Counter parse_executions{kParseExecutions};  ///< full header-stack parses run
  Counter parse_cache_hits{kParseCacheHits};   ///< parse() answered from the buffer cache
  Counter rewrite_copies{kRewriteCopies};      ///< copy-on-write buffer materializations
  Counter rewrite_bytes{kRewriteBytes};        ///< bytes copied by those rewrites

  /// Zeroes every stripe.
  void reset() noexcept;
  static PacketStats& global() noexcept;

 private:
  PacketStats() = default;
};

/// An immutable network packet backed by a shared buffer. Rewrites go
/// through the builder helpers, producing fresh bytes with fixed checksums.
class Packet {
 public:
  Packet() = default;
  explicit Packet(std::vector<std::uint8_t> bytes);

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_ ? buf_->bytes : empty_bytes();
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_ ? buf_->bytes.size() : 0; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Parses the header stack; returns nullopt on truncation / bad checksum /
  /// non-IPv4. The result is cached on the shared buffer, so repeated calls
  /// (including through copies of this packet) parse at most once.
  [[nodiscard]] std::optional<ParsedPacket> parse() const;

  /// Cached-parse accessor without the optional copy: nullptr when the
  /// packet is empty or unparseable.
  [[nodiscard]] const ParsedPacket* parsed() const;

  [[nodiscard]] std::span<const std::uint8_t> l4_payload(const ParsedPacket& p) const noexcept {
    const auto& b = bytes();
    if (p.l4_payload_offset >= b.size()) return {};
    return std::span<const std::uint8_t>(b).subspan(p.l4_payload_offset);
  }

  /// True when both packets reference the same underlying buffer (i.e. no
  /// byte copy separates them).
  [[nodiscard]] bool shares_buffer_with(const Packet& other) const noexcept {
    return buf_ != nullptr && buf_ == other.buf_;
  }

  /// Number of Packet handles sharing this packet's buffer (0 for empty).
  [[nodiscard]] long buffer_use_count() const noexcept { return buf_ ? buf_.use_count() : 0; }

 private:
  struct Buffer {
    std::vector<std::uint8_t> bytes;
    // Parse cache: valid once parse_done; immutability of `bytes` makes the
    // cache trivially coherent. `mutable` because caching happens through
    // shared_ptr<const Buffer>.
    mutable std::optional<ParsedPacket> parsed;
    mutable bool parse_done = false;
  };

  static const std::vector<std::uint8_t>& empty_bytes() noexcept;

  std::shared_ptr<const Buffer> buf_;
};

/// Fields a caller supplies to build an L3/L4 packet; lengths and checksums
/// are computed by the builder.
struct PacketSpec {
  MacAddr eth_src;
  MacAddr eth_dst;
  Ipv4Addr ip_src;
  Ipv4Addr ip_dst;
  std::uint8_t protocol = kProtoUdp;  // kProtoTcp or kProtoUdp
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t tcp_flags = 0;        // TCP only
  std::uint32_t tcp_seq = 0;         // TCP only
  std::uint8_t ttl = 64;
  std::vector<std::uint8_t> payload;
};

/// Length of the Ethernet, IPv4 and L4 headers of a `protocol` packet.
[[nodiscard]] constexpr std::size_t headers_len(std::uint8_t protocol) noexcept {
  return kEthernetHeaderLen + kIpv4HeaderLen +
         (protocol == kProtoTcp ? kTcpHeaderLen : kUdpHeaderLen);
}

/// Writes the spec's Ethernet, IPv4 and TCP/UDP headers, with lengths and
/// checksum for an L4 payload of `payload_len` bytes, through `out` (which
/// must have headers_len(spec.protocol) bytes left); `spec.payload` is not
/// read. The payload then goes into the same buffer, right after them.
void write_headers(const PacketSpec& spec, std::size_t payload_len, ByteCursor& out);

/// Builds a fully-encoded packet from the spec.
Packet build_packet(const PacketSpec& spec);

/// Returns a copy of `packet` with rewritten IPv4 addresses/ports (the NAT
/// and load-balancer data paths use this). Recomputes lengths and checksums.
/// This is the copy-on-write point: the original packet's buffer and cached
/// parse are untouched.
Packet rewrite_l3l4(const Packet& packet, const ParsedPacket& parsed,
                    std::optional<Ipv4Addr> new_src_ip, std::optional<Ipv4Addr> new_dst_ip,
                    std::optional<std::uint16_t> new_src_port,
                    std::optional<std::uint16_t> new_dst_port);

}  // namespace swish::pkt
