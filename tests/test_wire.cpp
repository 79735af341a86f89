// Unit tests: SwiShmem protocol message serialization (golden bytes for every
// message type, round-trips, edge cases, malformed input) including
// parameterized sweeps over payload sizes.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "packet/swish_wire.hpp"

namespace swish::pkt {
namespace {

template <typename T>
T roundtrip(const T& msg) {
  auto bytes = encode_message(msg);
  auto decoded = decode_message(bytes);
  EXPECT_TRUE(decoded.has_value());
  const T* out = std::get_if<T>(&*decoded);
  EXPECT_NE(out, nullptr);
  return *out;
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  const auto nibble = [](char c) { return c <= '9' ? c - '0' : c - 'a' + 10; };
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(nibble(hex[i]) << 4 | nibble(hex[i + 1])));
  }
  return out;
}

/// One filled instance of a SwishMessage alternative and its committed
/// encoding. Multi-byte fields hold distinct multi-byte values, so a swapped
/// field, a changed width or a flipped byte order all change the hex.
struct Golden {
  SwishMessage msg;
  std::string_view hex;
};

/// One golden instance per SwishMessage alternative, in variant order.
const std::vector<Golden>& golden_messages() {
  static const std::vector<Golden> kGolden{
      {WriteRequest{0x0A0B0C0D, 7, 0x0102030405060708, true, 0x00040002,
                    {{0x11, 0x2122232425262728, 0x3132333435363738}}, {0x4142434445464748}},
       "010a0b0c0d000000070102030405060708010004000200010100000011212223"
       "242526272831323334353637384142434445464748"},
      {WriteAck{0x0A0B0C0D, 7, 0x0102030405060708, {{1, 0x1112, 0x2122}, {2, 0x3132, 0x4142}},
                {0x5152, 0x6162}},
       "020a0b0c0d000000070102030405060708000201000000010000000000001112"
       "0000000000002122000000000000515200000002000000000000313200000000"
       "000041420000000000006162"},
      {EwoUpdate{0x01020304, true, {{5, 0x1112131415161718, 0x2122, 0x3132333435363738}}},
       "0301020304010001000000051112131415161718000000000000212231323334"
       "35363738"},
      {Heartbeat{0x01020304, 0x1112131415161718},
       "04010203041112131415161718"},
      {ReadRedirect{0x01020304, {0xDE, 0xAD, 0xBE, 0xEF}},
       "07010203040004deadbeef"},
      {OwnRequest{0x01020304, 0x1112131415161718, 0x21222324, 0x3132333435363738, true},
       "0801020304111213141516171821222324313233343536373801"},
      {OwnGrant{0x01020304, 0x1112131415161718, 0x21222324, 0x3132, 0x4142434445464748,
                0x5152535455565758},
       "0901020304111213141516171821222324000000000000313241424344454647"
       "485152535455565758"},
      {OwnUpdate{0x01020304, false,
                 {{9, 0x1112, 0x2122, 0x3132}, {9, 0x4142, 0x5152, 0x6162}}},
       "0a01020304000002000000090000000000001112000000000000212200000000"
       "0000313200000009000000000000414200000000000051520000000000006162"},
      {SwimPing{0x01020304, 0x11121314, 0x2122232425262728, 0x31323334,
                {{0x41424344, 2, 0x51525354, 0x6162636465666768}}},
       "0b01020304111213142122232425262728313233340001414243440251525354"
       "6162636465666768"},
      {SwimAck{0x01020304, 0x1112131415161718, 0x21222324, {{0x31, 1, 0x41, 0x5152}}},
       "0c01020304111213141516171821222324000100000031010000004100000000"
       "00005152"},
      {SwimPingReq{0x01020304, 0x11121314, 0x2122232425262728, {{0x31, 0, 0x41, 0}}},
       "0d01020304111213142122232425262728000100000031000000004100000000"
       "00000000"},
      {MembershipUpdate{0x01020304, {{0x11, 2, 0x21, 0x3132}, {0x41, 0, 0x51, 0}}},
       "0e01020304000200000011020000002100000000000031320000004100000000"
       "510000000000000000"},
      {ConForward{0x01020304, 0x11121314, 0x2122232425262728, {{3, 0x3132, 0x4142}}},
       "0f01020304111213142122232425262728000100000000030000000000003132"
       "0000000000004142"},
      {ConPrepare{0x01020304, 0x1112131415161718, 0x21222324},
       "1001020304111213141516171821222324"},
      {ConPromise{0x01020304,
                  0x1112131415161718,
                  0x21222324,
                  0x3132,
                  {{0x4142, 0x5152, 6, 0x6162, {{7, 0x7172, 0x8182}}}, {0x91, 0xA1, 8, 0xB1, {}}}},
       "1101020304111213141516171821222324000000000000313200020000000000"
       "0041420000000000005152000000060000000000006162000100000000070000"
       "0000000071720000000000008182000000000000009100000000000000a10000"
       "000800000000000000b1000000"},
      {ConAccept{0x01020304, 0x1112131415161718, 0x2122, 0x3132, 0x41424344, 0x5152,
                 {{6, 0x6162, 0x7172}}},
       "1201020304111213141516171800000000000021220000000000003132414243"
       "4400000000000051520001000000000600000000000061620000000000007172"},
      {ConAccepted{0x01020304, 0x1112131415161718, 0x2122, 0x31323334, 0x4142},
       "1301020304111213141516171800000000000021223132333400000000000041"
       "42"},
      {ConLearn{0x01020304, 0x1112131415161718, 0x2122, 0x3132, 0x41424344, 0x5152,
                {{6, 0x6162, 0x7172}, {7, 0x8182, 0x9192}}},
       "1401020304111213141516171800000000000021220000000000003132414243"
       "4400000000000051520002000000000600000000000061620000000000007172"
       "0000000700000000000081820000000000009192"},
  };
  return kGolden;
}

/// A sampled in-band trace context, and the golden WriteRequest framed with it.
constexpr telemetry::SpanContext kGoldenContext{0x0102030405060708, 0x1112131415161718, 3};
constexpr std::string_view kGoldenTracedHex =
    "8101020304050607081112131415161718030a0b0c0d00000007010203040506"
    "0708010004000200010100000011212223242526272831323334353637384142"
    "434445464748";

TEST(Wire, GoldenBytes) {
  const auto& golden = golden_messages();
  ASSERT_EQ(golden.size(), std::variant_size_v<SwishMessage>);
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const Golden& g = golden[i];
    ASSERT_EQ(g.msg.index(), i) << "golden instances follow variant order";
    EXPECT_EQ(to_hex(encode_message(g.msg)), g.hex) << "alternative " << i;
    const auto decoded = decode_message(from_hex(g.hex));
    ASSERT_TRUE(decoded.has_value()) << "alternative " << i;
    EXPECT_EQ(*decoded, g.msg) << "alternative " << i;
  }

  const SwishMessage& traced = golden.front().msg;
  EXPECT_EQ(to_hex(encode_message(traced, kGoldenContext)), kGoldenTracedHex);
  telemetry::SpanContext ctx;
  const auto decoded = decode_message(from_hex(kGoldenTracedHex), &ctx);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, traced);
  EXPECT_EQ(ctx, kGoldenContext);

  // Payload sizes of the smallest chain and EWO messages.
  WriteRequest one_op;
  one_op.ops = {{1, 2, 3}};
  EXPECT_EQ(encode_message(one_op).size(), 45u);
  one_op.seqs = {4};
  EXPECT_EQ(encode_message(one_op).size(), 53u);
  EXPECT_EQ(encode_message(EwoUpdate{1, false, {{1, 2, 3, 4}}}).size(), 36u);
}

TEST(Wire, SizeWalkerMatchesEncoding) {
  for (const Golden& g : golden_messages()) {
    EXPECT_EQ(encoded_size(g.msg), encode_message(g.msg).size()) << "alternative " << g.msg.index();
    EXPECT_EQ(encoded_size(g.msg, kGoldenContext), encode_message(g.msg, kGoldenContext).size())
        << "alternative " << g.msg.index();
  }
}

TEST(Wire, WriteRequestRoundTripUnsequenced) {
  WriteRequest m;
  m.epoch = 3;
  m.writer = 7;
  m.write_id = 0xABCDEF;
  m.ops = {{1, 42, 100}, {2, 0xFFFFFFFFFFULL, 200}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, WriteRequestRoundTripSequenced) {
  WriteRequest m;
  m.epoch = 1;
  m.writer = 2;
  m.write_id = 5;
  m.snapshot_replay = true;
  m.snapshot_epoch = (4u << 16) | 2u;  // recovery stream id: donor 4, stream 2
  m.ops = {{1, 9, 10}};
  m.seqs = {77};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, WriteAckRoundTrip) {
  WriteAck m;
  m.epoch = 9;
  m.writer = 4;
  m.write_id = 123456789;
  m.ops = {{3, 1, 2}};
  m.seqs = {42};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, EwoUpdateRoundTrip) {
  EwoUpdate m;
  m.origin = 11;
  m.periodic = true;
  m.entries = {{5, 10, 0xAABB, 77}, {5, 11, 0xCCDD, 88}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, HeartbeatRoundTrip) {
  Heartbeat m{13, 999999};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, ReadRedirectRoundTrip) {
  ReadRedirect m{3, {1, 2, 3, 4, 5}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, OwnRequestRoundTrip) {
  OwnRequest m;
  m.space = 9;
  m.key = 0xDEADBEEFCAFEULL;
  m.requester = 3;
  m.req_id = 0x123456789ABCULL;
  m.revoke = true;
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, OwnGrantRoundTrip) {
  OwnGrant m;
  m.space = 9;
  m.key = 42;
  m.new_owner = 2;
  m.req_id = 77;
  m.value = 0xFFFFFFFFFFFFFFFFULL;
  m.version = 1000;
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, OwnUpdateRoundTrip) {
  OwnUpdate m;
  m.owner = 5;
  m.claim = false;
  m.entries = {{9, 1, 0xAA, 3}, {9, 2, 0xBB, 4}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, SwimPingRoundTrip) {
  SwimPing m;
  m.sender = 3;
  m.origin = 1;
  m.seq = 0x1122334455ULL;
  m.incarnation = 7;
  m.gossip = {{2, 1, 4, 123456}, {5, 2, 0, 999}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, SwimAckRoundTrip) {
  SwimAck m;
  m.subject = 9;
  m.seq = 0xFFFFFFFFFFFFFFFFULL;
  m.incarnation = 0xFFFFFFFFu;
  m.gossip = {{1, 0, 0, 0}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, SwimPingReqRoundTrip) {
  SwimPingReq m;
  m.sender = 2;
  m.target = 6;
  m.seq = 42;
  m.gossip = {{4, 2, 11, 50000000}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, MembershipUpdateRoundTrip) {
  MembershipUpdate m;
  m.sender = 5;
  m.entries = {{3, 2, 1, 44000000}, {7, 0, 9, 0}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, SwimGossipTruncationRejected) {
  SwimPing m;
  m.sender = 1;
  m.origin = 1;
  m.seq = 9;
  m.incarnation = 3;
  m.gossip = {{2, 1, 4, 123456}, {5, 2, 0, 999}};
  const auto bytes = encode_message(m);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto cut = decode_message(std::span(bytes.data(), len));
    if (cut) {
      const auto* p = std::get_if<SwimPing>(&*cut);
      EXPECT_TRUE(p == nullptr || !(*p == m));
    }
  }
  EXPECT_TRUE(decode_message(bytes).has_value());
}

TEST(Wire, ConForwardRoundTrip) {
  ConForward m;
  m.epoch = 4;
  m.writer = 2;
  m.req_id = (std::uint64_t{2} << 40) | 17;
  m.ops = {{1, 42, 100}, {12, 3, 1}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, ConPrepareRoundTrip) {
  ConPrepare m;
  m.epoch = 6;
  m.ballot = (std::uint64_t{6} << 32) | 1;
  m.coordinator = 0;
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, ConPromiseRoundTrip) {
  ConPromise m;
  m.epoch = 6;
  m.ballot = (std::uint64_t{6} << 32) | 1;
  m.acceptor = 3;
  m.applied_upto = 12;
  m.entries = {{13, (std::uint64_t{5} << 32) | 2, 1, 99, {{1, 7, 8}, {2, 9, 10}}},
               {14, (std::uint64_t{6} << 32) | 1, 2, 100, {}}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, ConAcceptRoundTrip) {
  ConAccept m;
  m.epoch = 6;
  m.ballot = (std::uint64_t{6} << 32) | 1;
  m.slot = 15;
  m.commit_upto = 14;
  m.writer = 2;
  m.req_id = 31;
  m.ops = {{4, 0xFFFFFFFFFFULL, 7}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, ConAcceptedRoundTrip) {
  ConAccepted m;
  m.epoch = 6;
  m.ballot = (std::uint64_t{6} << 32) | 1;
  m.slot = 15;
  m.acceptor = 1;
  m.applied_upto = 14;
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, ConLearnRoundTrip) {
  ConLearn m;
  m.epoch = 6;
  m.ballot = (std::uint64_t{6} << 32) | 1;
  m.slot = 15;
  m.commit_upto = 15;
  m.writer = 2;
  m.req_id = 31;
  m.ops = {{4, 11, 7}, {4, 12, 8}};
  EXPECT_EQ(roundtrip(m), m);
}

TEST(Wire, ConTruncationRejectedEverywhere) {
  ConPromise m;
  m.epoch = 2;
  m.ballot = (std::uint64_t{2} << 32) | 3;
  m.acceptor = 2;
  m.applied_upto = 5;
  m.entries = {{6, (std::uint64_t{1} << 32) | 1, 0, 12, {{1, 2, 3}}}};
  const auto bytes = encode_message(m);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto cut = decode_message(std::span(bytes.data(), len));
    if (cut) {
      const auto* p = std::get_if<ConPromise>(&*cut);
      EXPECT_TRUE(p == nullptr || !(*p == m));
    }
  }
  EXPECT_TRUE(decode_message(bytes).has_value());
}

TEST(Wire, EmptyCollectionsRoundTrip) {
  EXPECT_EQ(roundtrip(WriteRequest{}), WriteRequest{});
  EXPECT_EQ(roundtrip(EwoUpdate{}), EwoUpdate{});
  EXPECT_EQ(roundtrip(ReadRedirect{}), ReadRedirect{});
  EXPECT_EQ(roundtrip(OwnUpdate{}), OwnUpdate{});
  EXPECT_EQ(roundtrip(SwimPing{}), SwimPing{});
  EXPECT_EQ(roundtrip(SwimAck{}), SwimAck{});
  EXPECT_EQ(roundtrip(SwimPingReq{}), SwimPingReq{});
  EXPECT_EQ(roundtrip(MembershipUpdate{}), MembershipUpdate{});
  EXPECT_EQ(roundtrip(ConForward{}), ConForward{});
  EXPECT_EQ(roundtrip(ConPromise{}), ConPromise{});
  EXPECT_EQ(roundtrip(ConAccept{}), ConAccept{});
  EXPECT_EQ(roundtrip(ConLearn{}), ConLearn{});
}

TEST(Wire, UnknownTypeRejected) {
  std::vector<std::uint8_t> bytes{0x7F, 0, 0, 0};
  EXPECT_FALSE(decode_message(bytes).has_value());
  // Type bytes 5 and 6 are retired (the in-band chain/group configuration
  // frames): a frame shaped like one — epoch, count, one member — is
  // malformed, with or without the traced flag.
  for (std::uint8_t type : {std::uint8_t{5}, std::uint8_t{6}}) {
    for (std::uint8_t flag : {std::uint8_t{0}, kTracedFlag}) {
      ByteWriter w(16);
      w.u8(type | flag);
      if (flag != 0) {
        w.u64(1);
        w.u64(2);
        w.u8(0);
      }
      w.u32(1000);
      w.u16(1);
      w.u32(3);
      const std::vector<std::uint8_t> frame = std::move(w).take();
      EXPECT_FALSE(decode_message(frame).has_value()) << int(type | flag);
    }
  }
}

TEST(Wire, TypeBytesSkipRetiredConfigFrames) {
  const auto type_byte = [](const SwishMessage& msg) { return encode_message(msg).front(); };
  EXPECT_EQ(type_byte(WriteRequest{}), 1);
  EXPECT_EQ(type_byte(WriteAck{}), 2);
  EXPECT_EQ(type_byte(EwoUpdate{}), 3);
  EXPECT_EQ(type_byte(Heartbeat{}), 4);
  EXPECT_EQ(type_byte(ReadRedirect{}), 7);
  EXPECT_EQ(type_byte(OwnRequest{}), 8);
  EXPECT_EQ(type_byte(OwnGrant{}), 9);
  EXPECT_EQ(type_byte(OwnUpdate{}), 10);
  EXPECT_EQ(type_byte(SwimPing{}), 11);
  EXPECT_EQ(type_byte(SwimAck{}), 12);
  EXPECT_EQ(type_byte(SwimPingReq{}), 13);
  EXPECT_EQ(type_byte(MembershipUpdate{}), 14);
  EXPECT_EQ(type_byte(ConForward{}), 15);
  EXPECT_EQ(type_byte(ConPrepare{}), 16);
  EXPECT_EQ(type_byte(ConPromise{}), 17);
  EXPECT_EQ(type_byte(ConAccept{}), 18);
  EXPECT_EQ(type_byte(ConAccepted{}), 19);
  EXPECT_EQ(type_byte(ConLearn{}), 20);
}

TEST(Wire, EmptyPayloadRejected) {
  EXPECT_FALSE(decode_message(std::span<const std::uint8_t>{}).has_value());
}

TEST(Wire, TruncationRejectedEverywhere) {
  WriteRequest m;
  m.ops = {{1, 2, 3}, {4, 5, 6}};
  m.seqs = {7, 8};
  const auto bytes = encode_message(m);
  // Every strict prefix must fail to decode or decode to a different message;
  // none may crash.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto cut = decode_message(std::span(bytes.data(), len));
    if (cut) {
      const auto* wr = std::get_if<WriteRequest>(&*cut);
      EXPECT_TRUE(wr == nullptr || !(*wr == m));
    }
  }
  EXPECT_TRUE(decode_message(bytes).has_value());

  // Every message type, plain and traced: a frame is exactly the bytes its
  // decoder reads, so every strict prefix fails.
  for (const Golden& g : golden_messages()) {
    for (const auto& frame : {encode_message(g.msg), encode_message(g.msg, kGoldenContext)}) {
      for (std::size_t len = 0; len < frame.size(); ++len) {
        EXPECT_FALSE(decode_message(std::span(frame.data(), len)).has_value())
            << "alternative " << g.msg.index() << " cut at " << len;
      }
    }
  }
}

TEST(Wire, SmallMessagesStaySmall) {
  // The paper's premise: NF register updates are tiny (~100 B objects).
  WriteRequest m;
  m.ops = {{1, 2, 3}};
  EXPECT_LE(encode_message(m).size(), 64u);
  EwoUpdate u;
  u.entries = {{1, 2, 3, 4}};
  EXPECT_LE(encode_message(u).size(), 64u);
}

class WireSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WireSweep, EwoUpdateRoundTripAtSize) {
  EwoUpdate m;
  m.origin = 2;
  for (std::size_t i = 0; i < GetParam(); ++i) {
    m.entries.push_back({static_cast<std::uint32_t>(i % 7), i, i * 3 + 1, i * 5});
  }
  EXPECT_EQ(roundtrip(m), m);
  // 28 bytes per entry + 8 header.
  EXPECT_EQ(encode_message(m).size(), 8 + GetParam() * 28);
}

TEST_P(WireSweep, WriteRequestRoundTripAtSize) {
  WriteRequest m;
  m.write_id = GetParam();
  for (std::size_t i = 0; i < GetParam(); ++i) {
    m.ops.push_back({1, i, i * 2});
    m.seqs.push_back(i + 1);
  }
  EXPECT_EQ(roundtrip(m), m);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WireSweep, ::testing::Values(0, 1, 2, 16, 64, 255, 1000));

// ---------------------------------------------------------------------------
// In-band trace context (causal tracing)
// ---------------------------------------------------------------------------

TEST(WireTrace, SampledContextRoundTrips) {
  WriteRequest m;
  m.epoch = 2;
  m.writer = 5;
  m.write_id = 0xFEED;
  m.ops = {{1, 7, 9}};
  const telemetry::SpanContext ctx{0x1122334455667788ULL, 0x99AABBCCDDEEFF00ULL, 3};
  const auto bytes = encode_message(m, ctx);
  EXPECT_EQ(bytes[0] & kTracedFlag, kTracedFlag);
  EXPECT_EQ(bytes.size(), encode_message(m).size() + telemetry::kSpanContextWireBytes);

  telemetry::SpanContext out;
  const auto decoded = decode_message(bytes, &out);
  ASSERT_TRUE(decoded.has_value());
  const auto* req = std::get_if<WriteRequest>(&*decoded);
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(*req, m);
  EXPECT_EQ(out, ctx);

  // The context-less decoder skips the header transparently.
  const auto plain = decode_message(bytes);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(*std::get_if<WriteRequest>(&*plain), m);
}

TEST(WireTrace, UnsampledContextEncodesByteIdentical) {
  // An unsampled write must be indistinguishable on the wire from a run with
  // tracing compiled out — the bandwidth model and pcap-level tests rely on
  // this.
  EwoUpdate m;
  m.origin = 3;
  m.entries = {{5, 10, 0xAABB, 77}};
  EXPECT_EQ(encode_message(m, telemetry::SpanContext{}), encode_message(m));

  telemetry::SpanContext out{1, 2, 3};  // poison: decode must reset it
  const auto decoded = decode_message(encode_message(m), &out);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(out.sampled());
}

TEST(WireTrace, TruncatedTracedHeaderRejected) {
  OwnRequest m;
  m.space = 1;
  m.key = 2;
  m.requester = 3;
  m.req_id = 4;
  const telemetry::SpanContext ctx{7, 8, 1};
  auto bytes = encode_message(m, ctx);
  // Any cut inside the 17-byte context (or the body behind it) must fail
  // cleanly rather than mis-frame the message.
  for (std::size_t len = 1; len < bytes.size(); ++len) {
    telemetry::SpanContext out;
    EXPECT_FALSE(decode_message({bytes.data(), len}, &out).has_value())
        << "truncated at " << len;
  }
}

TEST(WireTrace, EveryMessageTypeCarriesContext) {
  const telemetry::SpanContext ctx{42, 43, 2};
  const auto check = [&](const SwishMessage& msg) {
    telemetry::SpanContext out;
    const auto decoded = decode_message(encode_message(msg, ctx), &out);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->index(), msg.index());
    EXPECT_EQ(out, ctx);
  };
  check(WriteRequest{1, 2, 3, false, 0, {{1, 2, 3}}, {}});
  check(WriteAck{1, 2, 3, {{1, 2, 3}}, {4}});
  check(EwoUpdate{1, false, {{1, 2, 3, 4}}});
  check(Heartbeat{1, 2});
  check(ReadRedirect{1, {2}});
  check(OwnRequest{1, 2, 3, 4, false});
  check(SwimPing{1, 2, 3, 4, {{5, 1, 6, 7}}});
  check(SwimAck{1, 2, 3, {{4, 2, 5, 6}}});
  check(SwimPingReq{1, 2, 3, {{4, 0, 5, 6}}});
  check(MembershipUpdate{1, {{2, 2, 3, 4}}});
  for (const Golden& g : golden_messages()) check(g.msg);
}

}  // namespace
}  // namespace swish::pkt
