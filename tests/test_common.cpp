// Unit tests: RNG/distributions, statistics, byte buffers, table printer.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/buffer.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace swish {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    EXPECT_NE(va, c.next());  // astronomically unlikely to collide every draw
  }
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextRangeInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.next_range(3, 5);
    ASSERT_GE(v, 3u);
    ASSERT_LE(v, 5u);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanApproximates) {
  Rng rng(13);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(250.0);
  EXPECT_NEAR(sum / n, 250.0, 10.0);
}

TEST(Rng, BoundedParetoWithinBounds) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.bounded_pareto(2.0, 100.0, 1.3);
    ASSERT_GE(v, 2.0 - 1e-9);
    ASSERT_LE(v, 100.0 + 1e-9);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(21);
  Rng b = a.split();
  EXPECT_NE(a.next(), b.next());
}

TEST(Zipf, RankZeroMostPopular) {
  Rng rng(23);
  ZipfGenerator zipf(100, 0.99);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[0], counts[50]);
  EXPECT_GT(counts[0], counts[99]);
  // Zipf(0.99) rank-0 share is ~19% for n=100.
  EXPECT_GT(counts[0], 100000 / 10);
}

TEST(Zipf, ThetaZeroIsUniform) {
  Rng rng(29);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[zipf.sample(rng)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 500);
}

TEST(Zipf, RejectsZeroN) { EXPECT_THROW(ZipfGenerator(0, 1.0), std::invalid_argument); }

TEST(RunningStats, MomentsMatchClosedForm) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double() * 100;
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Histogram, ExactBelow128) {
  Histogram h;
  for (std::uint64_t v = 0; v < 128; ++v) h.add(v);
  EXPECT_EQ(h.count(), 128u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 127u);
  EXPECT_EQ(h.percentile(0.5), 63u);
}

TEST(Histogram, PercentileErrorBounded) {
  Histogram h;
  Rng rng(37);
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.next_below(1'000'000);
    values.push_back(v);
    h.add(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const auto exact = values[static_cast<std::size_t>(q * (values.size() - 1))];
    const auto approx = h.percentile(q);
    EXPECT_NEAR(static_cast<double>(approx), static_cast<double>(exact),
                static_cast<double>(exact) * 0.03 + 2);
  }
}

TEST(Histogram, MergeAddsCounts) {
  Histogram a, b;
  a.add(10);
  a.add(1000);
  b.add(5);
  b.add(1'000'000);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.min(), 5u);
  EXPECT_EQ(a.max(), 1'000'000u);
}

TEST(Histogram, MeanTracksSum) {
  Histogram h;
  h.add(10);
  h.add(20);
  h.add(30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
}

// Buckets are allocated on the first sample, so the empty state must read as
// zero through every accessor however it was produced.
void expect_empty(const Histogram& h) {
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  for (int i = 0; i <= 100; ++i) EXPECT_EQ(h.percentile(i / 100.0), 0u) << "q=" << i;
}

void expect_same(const Histogram& got, const Histogram& want) {
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.mean(), want.mean());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
  for (double q : {0.0, 0.5, 0.99, 1.0}) EXPECT_EQ(got.percentile(q), want.percentile(q)) << q;
}

Histogram filled() {
  Histogram h;
  for (std::uint64_t v : {3u, 90u, 127u, 128u, 5000u, 70'000u, 1'000'000u}) h.add(v);
  return h;
}

TEST(Histogram, EmptyReadsZeroWhenDefaultedOrCopied) {
  const Histogram empty;
  expect_empty(empty);
  const Histogram copied(empty);
  expect_empty(copied);
  Histogram assigned = filled();
  assigned = empty;
  expect_empty(assigned);
}

TEST(Histogram, EmptyMergeEmptyStaysEmpty) {
  Histogram a;
  const Histogram b;
  a.merge(b);
  expect_empty(a);
}

TEST(Histogram, FreshMergedFromFilledMatchesIt) {
  const Histogram src = filled();
  Histogram fresh;
  fresh.merge(src);
  expect_same(fresh, src);
  EXPECT_EQ(fresh.count(), 7u);
  EXPECT_EQ(fresh.percentile(1.0), 1'000'000u);
}

TEST(Histogram, MergingEmptyChangesNothing) {
  Histogram h = filled();
  h.merge(Histogram{});
  expect_same(h, filled());
}

TEST(Histogram, EmptyCopyAcceptsAdd) {
  const Histogram empty;
  Histogram h(empty);
  h.add(42);
  h.add(4242);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 4242u);
  EXPECT_EQ(h.percentile(0.5), 42u);
  expect_empty(empty);
}

TEST(ByteBuffer, RoundTripAllWidths) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xCDEF);
  w.u32(0x01234567);
  w.u64(0x89ABCDEF01234567ULL);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xCDEF);
  EXPECT_EQ(r.u32(), 0x01234567u);
  EXPECT_EQ(r.u64(), 0x89ABCDEF01234567ULL);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteBuffer, BigEndianLayout) {
  ByteWriter w;
  w.u16(0x0102);
  EXPECT_EQ(w.bytes()[0], 0x01);
  EXPECT_EQ(w.bytes()[1], 0x02);
}

TEST(ByteBuffer, UnderrunThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.bytes());
  r.u8();
  EXPECT_THROW(r.u16(), BufferError);
}

TEST(ByteBuffer, PatchU16) {
  ByteWriter w;
  w.u32(0);
  w.patch_u16(1, 0xBEEF);
  ByteReader r(w.bytes());
  r.u8();
  EXPECT_EQ(r.u16(), 0xBEEF);
}

TEST(ByteBuffer, PatchOutOfRangeThrows) {
  ByteWriter w;
  w.u8(1);
  EXPECT_THROW(w.patch_u16(0, 1), BufferError);
}

TEST(TextTable, AlignsColumns) {
  TextTable t("caption");
  t.header({"a", "long_header"});
  t.row({"xx", "y"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("caption"), std::string::npos);
  EXPECT_NE(out.find("a  | long_header"), std::string::npos);
  EXPECT_NE(out.find("xx | y"), std::string::npos);
  EXPECT_EQ(t.row_count(), 1u);
}

TEST(FormatDouble, Decimals) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(0.0005, 3), "0.001");
}

}  // namespace
}  // namespace swish
