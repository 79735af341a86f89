// L2-L4 header structs with byte-exact encode/decode.
//
// These are real wire formats: 14-byte Ethernet, 20-byte IPv4 (no options),
// 20-byte TCP, 8-byte UDP, with the standard internet checksum. The PISA
// parser (src/pisa/parser) consumes these; the workload generator and the
// SwiShmem protocol build on them. Each header writes through a ByteCursor
// into its fixed-size slot of a pre-sized frame.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/buffer.hpp"
#include "packet/addr.hpp"

namespace swish::pkt {

inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint8_t kProtoTcp = 6;
inline constexpr std::uint8_t kProtoUdp = 17;

inline constexpr std::size_t kEthernetHeaderLen = 14;
inline constexpr std::size_t kIpv4HeaderLen = 20;
inline constexpr std::size_t kTcpHeaderLen = 20;
inline constexpr std::size_t kUdpHeaderLen = 8;

struct EthernetHeader {
  MacAddr dst;
  MacAddr src;
  std::uint16_t ether_type = kEtherTypeIpv4;

  void encode(ByteCursor& w) const;
  /// Appends the header to a growable buffer.
  void encode(ByteWriter& w) const;
  static EthernetHeader decode(ByteReader& r);
};

struct Ipv4Header {
  std::uint8_t dscp = 0;
  std::uint16_t total_length = 0;  // header + payload, filled by the builder
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = kProtoUdp;
  std::uint16_t checksum = 0;  // filled by encode()
  Ipv4Addr src;
  Ipv4Addr dst;

  /// Encodes with a freshly computed header checksum.
  void encode(ByteCursor& w) const;

  /// Decodes and verifies the checksum; returns nullopt on corruption.
  static std::optional<Ipv4Header> decode(ByteReader& r);
};

/// TCP flag bits (subset used by the NFs' connection tracking).
struct TcpFlags {
  static constexpr std::uint8_t kFin = 0x01;
  static constexpr std::uint8_t kSyn = 0x02;
  static constexpr std::uint8_t kRst = 0x04;
  static constexpr std::uint8_t kAck = 0x10;
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
  std::uint16_t window = 65535;

  void encode(ByteCursor& w) const;
  static TcpHeader decode(ByteReader& r);
};

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;  // header + payload, filled by the builder

  void encode(ByteCursor& w) const;
  static UdpHeader decode(ByteReader& r);
};

/// RFC 1071 internet checksum over a byte range.
std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept;

}  // namespace swish::pkt
