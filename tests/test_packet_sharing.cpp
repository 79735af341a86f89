// Tests for the zero-copy packet fast path: copies share one refcounted
// buffer, the parse cache runs the header parser at most once per buffer,
// and rewrites are copy-on-write (the original is never mutated). Also the
// per-thread striping of the PacketStats counters those paths bump.
#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "packet/packet.hpp"

namespace swish {
namespace {

pkt::Packet make_udp_packet() {
  pkt::PacketSpec spec;
  spec.ip_src = pkt::Ipv4Addr(10, 0, 0, 1);
  spec.ip_dst = pkt::Ipv4Addr(10, 0, 0, 2);
  spec.src_port = 1234;
  spec.dst_port = 5678;
  spec.payload = {1, 2, 3, 4};
  return pkt::build_packet(spec);
}

TEST(PacketSharing, CopiesShareOneBuffer) {
  pkt::Packet original = make_udp_packet();
  EXPECT_EQ(original.buffer_use_count(), 1);

  pkt::Packet copy = original;
  pkt::Packet another = copy;
  EXPECT_TRUE(copy.shares_buffer_with(original));
  EXPECT_TRUE(another.shares_buffer_with(original));
  EXPECT_EQ(original.buffer_use_count(), 3);
  // Same bytes object, not equal bytes: no copy happened.
  EXPECT_EQ(&copy.bytes(), &original.bytes());

  pkt::Packet moved = std::move(copy);
  EXPECT_TRUE(moved.shares_buffer_with(original));
  EXPECT_EQ(original.buffer_use_count(), 3);  // move transfers, not adds
}

TEST(PacketSharing, EmptyPacketsShareNothing) {
  pkt::Packet a;
  pkt::Packet b;
  EXPECT_FALSE(a.shares_buffer_with(b));
  EXPECT_EQ(a.buffer_use_count(), 0);
  EXPECT_TRUE(a.bytes().empty());
  EXPECT_FALSE(a.parse().has_value());
  EXPECT_EQ(a.parsed(), nullptr);
}

TEST(PacketSharing, ParseRunsOncePerBufferAcrossCopies) {
  pkt::Packet original = make_udp_packet();
  pkt::Packet copy = original;

  auto& stats = pkt::PacketStats::global();
  stats.reset();
  auto p1 = original.parse();
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(stats.parse_executions, 1u);

  // Second parse through a *different handle* of the same buffer: cache hit.
  auto p2 = copy.parse();
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(stats.parse_executions, 1u);
  EXPECT_EQ(stats.parse_cache_hits, 1u);
  EXPECT_EQ(p2->ipv4->src.value(), p1->ipv4->src.value());

  // parsed() returns the same cached object for every sharing handle.
  EXPECT_EQ(original.parsed(), copy.parsed());
  EXPECT_EQ(stats.parse_executions, 1u);
}

TEST(PacketSharing, RewriteIsCopyOnWrite) {
  pkt::Packet original = make_udp_packet();
  const std::vector<std::uint8_t> bytes_before = original.bytes();
  auto parsed = original.parse();
  ASSERT_TRUE(parsed.has_value());
  const pkt::ParsedPacket* cached_before = original.parsed();

  auto& stats = pkt::PacketStats::global();
  stats.reset();
  pkt::Packet rewritten = pkt::rewrite_l3l4(original, *parsed, pkt::Ipv4Addr(9, 9, 9, 9),
                                            std::nullopt, std::nullopt, std::nullopt);
  EXPECT_GE(stats.rewrite_copies, 1u);

  // The rewrite produced a fresh buffer; the original is untouched: same
  // bytes, same cached parse object, and no sharing with the rewrite.
  EXPECT_FALSE(rewritten.shares_buffer_with(original));
  EXPECT_EQ(original.bytes(), bytes_before);
  EXPECT_EQ(original.parsed(), cached_before);
  ASSERT_TRUE(rewritten.parse().has_value());
  EXPECT_EQ(rewritten.parse()->ipv4->src.value(), pkt::Ipv4Addr(9, 9, 9, 9).value());
  EXPECT_EQ(original.parse()->ipv4->src.value(), pkt::Ipv4Addr(10, 0, 0, 1).value());
}

TEST(PacketStats, ThreadStripesSumExactlyAndResetZeroesEveryStripe) {
  // Every thread bumps its own stripe; a read sums all of them, including
  // the stripes of threads that have already exited, and reset() zeroes
  // every stripe (a sum of zero over unsigned stripes means each is zero).
  auto& stats = pkt::PacketStats::global();
  const std::vector<pkt::PacketStats::Counter*> counters{
      &stats.buffers_created,  &stats.buffer_bytes,   &stats.parse_executions,
      &stats.parse_cache_hits, &stats.rewrite_copies, &stats.rewrite_bytes};
  constexpr std::uint64_t kBumps = 10'000;
  constexpr std::uint64_t kThreads = 4;
  auto run_threads = [&counters]() {
    std::vector<std::thread> threads;
    for (std::uint64_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&counters]() {
        for (std::uint64_t i = 0; i < kBumps; ++i) {
          for (pkt::PacketStats::Counter* c : counters) {
            ++*c;
            *c += 2;
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  };

  stats.reset();
  run_threads();
  for (const pkt::PacketStats::Counter* c : counters) {
    EXPECT_EQ(std::uint64_t{*c}, kThreads * kBumps * 3);
  }
  stats.reset();
  for (const pkt::PacketStats::Counter* c : counters) EXPECT_EQ(std::uint64_t{*c}, 0u);

  // A second round reuses the exited threads' stripes and counts from zero.
  run_threads();
  for (const pkt::PacketStats::Counter* c : counters) {
    EXPECT_EQ(std::uint64_t{*c}, kThreads * kBumps * 3);
  }
  stats.reset();
}

}  // namespace
}  // namespace swish
