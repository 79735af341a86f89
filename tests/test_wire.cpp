// Unit tests: SwiShmem protocol message serialization (round-trips, edge
// cases, malformed input) including parameterized sweeps over payload sizes.
#include <gtest/gtest.h>

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
}

TEST(Wire, EncodedSizeMatchesEncoding) {
  EwoUpdate m;
  m.origin = 1;
  for (int i = 0; i < 10; ++i) {
    m.entries.push_back({1, static_cast<std::uint64_t>(i), 1, 2});
  }
  EXPECT_EQ(encoded_size(m), encode_message(m).size());
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
  EXPECT_EQ(encoded_size(m), 8 + GetParam() * 28);
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
}

}  // namespace
}  // namespace swish::pkt
