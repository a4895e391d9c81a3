// Unit tests for the util module: RNG determinism and distribution quality,
// sparse per-position histograms, running statistics.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/histogram.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace ehja {
namespace {

// ---------------------------------------------------------------- SplitMix64

TEST(SplitMix64Test, SameSeedSameSequence) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(123), b(124);
  int same = 0;
  for (int i = 0; i < 1000; ++i) {
    same += a.next_u64() == b.next_u64() ? 1 : 0;
  }
  EXPECT_EQ(same, 0);
}

TEST(SplitMix64Test, StreamsAreIndependentOfConsumptionOrder) {
  // Stream 7's output must not depend on how much of stream 3 was consumed.
  SplitMix64 s3_first(42, 3);
  for (int i = 0; i < 100; ++i) s3_first.next_u64();
  SplitMix64 s7_after(42, 7);
  SplitMix64 s7_fresh(42, 7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(s7_after.next_u64(), s7_fresh.next_u64());
  }
}

TEST(SplitMix64Test, DoubleInUnitInterval) {
  SplitMix64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(SplitMix64Test, DoubleMeanNearHalf) {
  SplitMix64 rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(SplitMix64Test, NextBelowRespectsBound) {
  SplitMix64 rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(SplitMix64Test, GaussianMomentsMatchStandardNormal) {
  SplitMix64 rng(11);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(SplitMix64Test, MixIsBijectiveOnSamples) {
  // mix() must not collide on a large sample (it is a bijection; collisions
  // would indicate an implementation bug).
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    outputs.insert(SplitMix64::mix(i));
  }
  EXPECT_EQ(outputs.size(), 10000u);
}

// --------------------------------------------------------- PositionHistogram

using Cell = PositionHistogram::Cell;

TEST(PositionHistogramTest, CellsAndTotals) {
  PositionHistogram hist(100, 1100);
  EXPECT_EQ(hist.lo(), 100u);
  EXPECT_EQ(hist.hi(), 1100u);
  EXPECT_TRUE(hist.cells().empty());
  hist.push(100, 1);
  hist.push(1099, 5);
  EXPECT_EQ(hist.total(), 6u);
  EXPECT_EQ(hist.cells(), (std::vector<Cell>{{100, 1}, {1099, 5}}));
}

TEST(PositionHistogramTest, MergeSumsDisjointCells) {
  PositionHistogram a(0, 100), b(0, 100);
  a.push(10, 2);
  a.push(50, 1);
  b.push(5, 3);
  b.push(90, 7);
  a.merge(b);
  EXPECT_EQ(a.cells(),
            (std::vector<Cell>{{5, 3}, {10, 2}, {50, 1}, {90, 7}}));
  EXPECT_EQ(a.total(), 13u);
}

TEST(PositionHistogramTest, MergeSumsOverlappingCells) {
  PositionHistogram a(0, 100), b(0, 100);
  a.push(10, 2);
  a.push(90, 1);
  b.push(10, 3);
  b.push(90, 7);
  b.push(99, 4);
  a.merge(b);
  EXPECT_EQ(a.cells(), (std::vector<Cell>{{10, 5}, {90, 8}, {99, 4}}));
  EXPECT_EQ(a.total(), 17u);
  // Merging an empty histogram changes nothing.
  a.merge(PositionHistogram(0, 100));
  EXPECT_EQ(a.total(), 17u);
  EXPECT_EQ(a.cells().size(), 3u);
}

TEST(PositionHistogramDeathTest, OutOfOrderPushAborts) {
  PositionHistogram hist(0, 100);
  hist.push(10, 1);
  EXPECT_DEATH(hist.push(10, 1), "out of order");
  EXPECT_DEATH(hist.push(9, 1), "out of order");
}

TEST(PositionHistogramDeathTest, MergeRangeMismatchAborts) {
  PositionHistogram a(0, 100), b(0, 101);
  EXPECT_DEATH(a.merge(b), "range mismatch");
}

// -------------------------------------------------------------- RunningStats

TEST(RunningStatsTest, BasicMoments) {
  RunningStats stats;
  for (double v : {1.0, 2.0, 3.0, 4.0}) stats.add(v);
  EXPECT_EQ(stats.count(), 4u);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.variance(), 1.25);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(stats.imbalance(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  SplitMix64 rng(3);
  RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double() * 100;
    whole.add(v);
    (i < 400 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStatsTest, ImbalanceOfPerfectBalanceIsOne) {
  RunningStats stats;
  for (int i = 0; i < 10; ++i) stats.add(5.0);
  EXPECT_DOUBLE_EQ(stats.imbalance(), 1.0);
}

TEST(RunningStatsTest, SummarizeVector) {
  const auto stats = summarize(std::vector<std::uint64_t>{2, 4, 6});
  EXPECT_DOUBLE_EQ(stats.mean(), 4.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 12.0);
}

// --------------------------------------------------------------------- math

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 7), 0u);
  EXPECT_EQ(ceil_div(1, 7), 1u);
  EXPECT_EQ(ceil_div(7, 7), 1u);
  EXPECT_EQ(ceil_div(8, 7), 2u);
  EXPECT_EQ(ceil_div(14, 7), 2u);
  EXPECT_EQ(ceil_div(~0ull, 1), ~0ull);           // no intermediate overflow
  EXPECT_EQ(ceil_div(~0ull, ~0ull), 1u);
  static_assert(ceil_div(10, 3) == 4);             // usable in constant context
}

// -------------------------------------------------------------------- units

TEST(UnitsTest, Constants) {
  EXPECT_EQ(kMiB, 1024u * 1024u);
  EXPECT_EQ(kMB, 1000u * 1000u);
  EXPECT_DOUBLE_EQ(bits_per_sec(100e6), 12.5e6);
}

}  // namespace
}  // namespace ehja
