// Unit tests for the hybrid reshuffle planner, including a differential
// test of its sparse sweep against a dense greedy over one weight per
// position (the planner's pre-sparse form, kept here as the oracle).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/reshuffle.hpp"
#include "net/wire.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace ehja {
namespace {

// ------------------------------------------------------ dense oracle

struct PartitionResult {
  /// `cuts[i]` is the first weight index of part i+1; parts are
  /// [0, cuts[0]), [cuts[0], cuts[1]), ..., [cuts.back(), n).
  /// Always exactly parts-1 cuts (some parts may be empty).
  std::vector<std::size_t> cuts;
  /// Total weight assigned to each part.
  std::vector<std::uint64_t> part_weights;
};

/// Split `weights` into `parts` contiguous groups with near-equal weight:
/// a left-to-right sweep that closes a part once its weight reaches its
/// fair share of what the remaining parts must cover.  The heaviest part
/// exceeds the ideal share by at most the largest single weight.
PartitionResult greedy_contiguous_partition(
    const std::vector<std::uint64_t>& weights, std::size_t parts) {
  EHJA_CHECK(parts >= 1);
  PartitionResult result;
  result.cuts.reserve(parts - 1);
  result.part_weights.assign(parts, 0);

  const std::uint64_t total =
      std::accumulate(weights.begin(), weights.end(), std::uint64_t{0});

  std::size_t part = 0;
  std::uint64_t closed = 0;  // weight placed into already-closed parts
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (part + 1 < parts && result.part_weights[part] > 0) {
      const std::uint64_t remaining_total = total - closed;
      const std::size_t remaining_parts = parts - part;
      const double ideal =
          static_cast<double>(remaining_total) / remaining_parts;
      if (static_cast<double>(result.part_weights[part]) +
              static_cast<double>(weights[i]) / 2.0 >
          ideal) {
        result.cuts.push_back(i);
        closed += result.part_weights[part];
        ++part;
      }
    }
    result.part_weights[part] += weights[i];
  }
  // Pad with empty parts when the sweep used fewer than `parts` groups.
  while (result.cuts.size() + 1 < parts) {
    result.cuts.push_back(weights.size());
  }
  EHJA_CHECK(result.cuts.size() + 1 == parts);
  return result;
}

/// The dense planner: densify to one weight per position of [lo, hi), run
/// the greedy above, then apply the same non-empty-range clamp as
/// plan_reshuffle.  Returns the k+1 boundaries.
std::vector<std::uint64_t> dense_plan_bounds(const PositionHistogram& hist,
                                             std::size_t k) {
  const std::uint64_t lo = hist.lo();
  const std::uint64_t hi = hist.hi();
  std::vector<std::uint64_t> weights(hi - lo, 0);
  for (const auto& c : hist.cells()) weights[c.position - lo] = c.count;
  const PartitionResult parts = greedy_contiguous_partition(weights, k);
  std::vector<std::uint64_t> bounds{lo};
  for (std::size_t cut : parts.cuts) bounds.push_back(lo + cut);
  bounds.push_back(hi);
  for (std::size_t i = 1; i + 1 < bounds.size(); ++i) {
    const std::uint64_t least = bounds[i - 1] + 1;
    const std::uint64_t most = hi - (k - i);
    bounds[i] = std::min(std::max(bounds[i], least), most);
  }
  return bounds;
}

std::vector<std::uint64_t> plan_bounds(
    const std::vector<PartitionMap::Entry>& plan) {
  std::vector<std::uint64_t> bounds;
  for (const auto& entry : plan) bounds.push_back(entry.range.lo);
  bounds.push_back(plan.back().range.hi);
  return bounds;
}

// ------------------------------------------------ the oracle's own tests

TEST(GreedyPartitionTest, UniformWeightsSplitEvenly) {
  std::vector<std::uint64_t> weights(100, 10);
  const auto result = greedy_contiguous_partition(weights, 4);
  ASSERT_EQ(result.part_weights.size(), 4u);
  for (const auto w : result.part_weights) {
    EXPECT_NEAR(static_cast<double>(w), 250.0, 10.0);
  }
}

TEST(GreedyPartitionTest, CoversAllWeight) {
  std::vector<std::uint64_t> weights = {5, 0, 100, 3, 3, 3, 50, 0, 1};
  const auto result = greedy_contiguous_partition(weights, 3);
  const std::uint64_t total =
      std::accumulate(weights.begin(), weights.end(), std::uint64_t{0});
  std::uint64_t assigned = 0;
  for (const auto w : result.part_weights) assigned += w;
  EXPECT_EQ(assigned, total);
}

TEST(GreedyPartitionTest, SinglePartTakesEverything) {
  std::vector<std::uint64_t> weights = {1, 2, 3};
  const auto result = greedy_contiguous_partition(weights, 1);
  EXPECT_TRUE(result.cuts.empty());
  EXPECT_EQ(result.part_weights[0], 6u);
}

TEST(GreedyPartitionTest, MorePartsThanWeights) {
  std::vector<std::uint64_t> weights = {9, 9};
  const auto result = greedy_contiguous_partition(weights, 5);
  ASSERT_EQ(result.cuts.size(), 4u);
  std::uint64_t assigned = 0;
  for (const auto w : result.part_weights) assigned += w;
  EXPECT_EQ(assigned, 18u);
}

TEST(GreedyPartitionTest, GreedyBoundHolds) {
  // The heaviest part must not exceed ideal + max single weight.
  SplitMix64 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> weights(200);
    std::uint64_t total = 0, biggest = 0;
    for (auto& w : weights) {
      w = rng.next_below(1000);
      total += w;
      biggest = std::max(biggest, w);
    }
    const std::size_t parts = 1 + rng.next_below(16);
    const auto result = greedy_contiguous_partition(weights, parts);
    const double ideal = static_cast<double>(total) / parts;
    for (const auto w : result.part_weights) {
      EXPECT_LE(static_cast<double>(w), ideal + biggest + 1);
    }
  }
}

TEST(GreedyPartitionTest, CutsAreMonotone) {
  std::vector<std::uint64_t> weights = {100, 0, 0, 0, 0, 0, 0, 100};
  const auto result = greedy_contiguous_partition(weights, 4);
  for (std::size_t i = 1; i < result.cuts.size(); ++i) {
    EXPECT_LE(result.cuts[i - 1], result.cuts[i]);
  }
}

// ------------------------------------------------------ reshuffle planner

/// `cells` equally spaced cells of weight `per_cell` over [lo, hi), the
/// first at lo.
PositionHistogram uniform_hist(std::uint64_t lo, std::uint64_t hi,
                               std::size_t cells, std::uint64_t per_cell) {
  PositionHistogram hist(lo, hi);
  const std::uint64_t step = (hi - lo) / cells;
  for (std::size_t c = 0; c < cells; ++c) hist.push(lo + c * step, per_cell);
  return hist;
}

void expect_covers(const std::vector<PartitionMap::Entry>& plan,
                   std::uint64_t lo, std::uint64_t hi) {
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(plan.front().range.lo, lo);
  EXPECT_EQ(plan.back().range.hi, hi);
  for (std::size_t i = 1; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i - 1].range.hi, plan[i].range.lo);
    EXPECT_LT(plan[i].range.lo, plan[i].range.hi);
  }
}

TEST(ReshuffleTest, UniformLoadSplitsEvenly) {
  const auto hist = uniform_hist(0, 65536, 256, 100);
  const std::vector<ActorId> members = {5, 6, 7, 8};
  const auto plan = plan_reshuffle(hist, members);
  ASSERT_EQ(plan.size(), 4u);
  expect_covers(plan, 0, 65536);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(plan[i].owners.front(), members[i]);
    EXPECT_NEAR(static_cast<double>(plan[i].range.width()), 16384.0, 512.0);
  }
}

TEST(ReshuffleTest, SkewedLoadGivesHotBinOwnerNarrowRange) {
  // All weight on one position near the middle, over a thin background.
  PositionHistogram hist(0, 65536);
  for (std::uint64_t pos = 0; pos < 65536; pos += 256) {
    hist.push(pos, pos == 32768 ? 100001 : 1);
  }
  const auto plan = plan_reshuffle(hist, {1, 2, 3, 4});
  expect_covers(plan, 0, 65536);
  // One member's range must contain the hot position; its range should be
  // far narrower than an even split.
  bool hot_found = false;
  for (const auto& entry : plan) {
    if (entry.range.contains(32768)) {
      hot_found = true;
    }
  }
  EXPECT_TRUE(hot_found);
}

TEST(ReshuffleTest, EveryMemberGetsNonEmptyRangeUnderExtremeSkew) {
  PositionHistogram hist(1000, 2000);
  hist.push(1000, 999999);  // everything on the first position
  const auto plan = plan_reshuffle(hist, {1, 2, 3, 4, 5, 6, 7, 8});
  ASSERT_EQ(plan.size(), 8u);
  expect_covers(plan, 1000, 2000);
  for (const auto& entry : plan) {
    EXPECT_GE(entry.range.width(), 1u);
  }
}

TEST(ReshuffleTest, SingleMemberTakesWholeRange) {
  const auto hist = uniform_hist(500, 1500, 64, 3);
  const auto plan = plan_reshuffle(hist, {42});
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].range, (PosRange{500, 1500}));
  EXPECT_EQ(plan[0].owners.front(), 42);
}

TEST(ReshuffleTest, EmptyHistogramStillCovers) {
  PositionHistogram hist(0, 4096);  // no weight at all
  const auto plan = plan_reshuffle(hist, {1, 2, 3});
  expect_covers(plan, 0, 4096);
}

TEST(ReshuffleTest, BalanceWithinGreedyBound) {
  SplitMix64 rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    PositionHistogram hist(0, 1u << 16);
    std::uint64_t total = 0, biggest = 0;
    for (std::uint64_t pos = 0; pos < (1u << 16); pos += 128) {
      const std::uint64_t w = rng.next_below(500);
      if (w > 0) hist.push(pos, w);
      total += w;
      biggest = std::max(biggest, w);
    }
    const std::size_t k = 2 + rng.next_below(8);
    std::vector<ActorId> members(k);
    std::iota(members.begin(), members.end(), 1);
    const auto plan = plan_reshuffle(hist, members);
    // Recompute per-member weight from the cells and check the greedy
    // bound.
    for (const auto& entry : plan) {
      std::uint64_t w = 0;
      for (const auto& c : hist.cells()) {
        if (entry.range.contains(c.position)) w += c.count;
      }
      EXPECT_LE(static_cast<double>(w),
                static_cast<double>(total) / k + biggest + 1);
    }
  }
}

TEST(ReshuffleTest, CutLandsOnFirstEmptyPositionAfterShareIsPassed) {
  // Total 60 over two members, ideal 30: the first part passes its share
  // at position 2 (weight 31), so the cut lands at position 3 -- the first
  // empty position of the run -- not at the next occupied position 50.
  PositionHistogram hist(0, 100);
  hist.push(0, 10);
  hist.push(1, 10);
  hist.push(2, 11);
  hist.push(50, 29);
  const auto plan = plan_reshuffle(hist, {1, 2});
  EXPECT_EQ(plan_bounds(plan), (std::vector<std::uint64_t>{0, 3, 100}));
  EXPECT_EQ(plan_bounds(plan), dense_plan_bounds(hist, 2));
}

// ------------------------------------------------------ differential

enum class Shape { kSparse, kDense90, kOneHot, kHotLast, kEmpty };

/// A random histogram over [lo, hi): sparse (0.1-2% of positions
/// occupied), about 90% occupied, either of those with one hot position
/// (anywhere, or the range's last position), or empty.
PositionHistogram random_histogram(SplitMix64& rng, std::uint64_t lo,
                                   std::uint64_t hi, Shape shape) {
  PositionHistogram hist(lo, hi);
  if (shape == Shape::kEmpty) return hist;
  const std::uint64_t permille =
      shape == Shape::kDense90 ? 900 : 1 + rng.next_below(20);
  const std::uint64_t hot =
      shape == Shape::kOneHot    ? lo + rng.next_below(hi - lo)
      : shape == Shape::kHotLast ? hi - 1
                                 : hi;  // none
  for (std::uint64_t pos = lo; pos < hi; ++pos) {
    if (pos == hot) {
      hist.push(pos, 1'000'000 + rng.next_below(1'000'000));
    } else if (rng.next_below(1000) < permille) {
      hist.push(pos, 1 + rng.next_below(rng.next_below(4) == 0 ? 500 : 8));
    }
  }
  return hist;
}

TEST(ReshuffleTest, SparsePlanMatchesDensePerPositionGreedy) {
  SplitMix64 rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t k = 1 + rng.next_below(12);
    // The full position range, or a width log-uniform below 2^20; never
    // narrower than the set.
    const std::uint64_t width =
        rng.next_below(10) == 0
            ? kPositionCount
            : std::max<std::uint64_t>(
                  k, (std::uint64_t{1} << rng.next_below(20)) +
                         rng.next_below(std::uint64_t{1}
                                        << rng.next_below(20)));
    const std::uint64_t lo = rng.next_below(kPositionCount - width + 1);
    const auto shape = static_cast<Shape>(rng.next_below(5));
    const PositionHistogram hist =
        random_histogram(rng, lo, lo + width, shape);
    std::vector<ActorId> members(k);
    std::iota(members.begin(), members.end(), 1);
    SCOPED_TRACE(::testing::Message()
                 << "trial " << trial << ": [" << lo << ", " << lo + width
                 << ") k=" << k << " shape=" << static_cast<int>(shape)
                 << " cells=" << hist.cells().size());

    const auto plan = plan_reshuffle(hist, members);
    ASSERT_EQ(plan_bounds(plan), dense_plan_bounds(hist, k));
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_EQ(plan[i].owners, std::vector<ActorId>{members[i]});
    }

    // The histogram survives its codec, at the size the cost model
    // charges.
    const std::vector<std::uint8_t> bytes = wire::encode_body(hist);
    EXPECT_EQ(bytes.size(), hist.wire_bytes());
    PositionHistogram decoded;
    ASSERT_TRUE(wire::decode_body(bytes, decoded));
    EXPECT_EQ(decoded.cells(), hist.cells());
    EXPECT_EQ(decoded.total(), hist.total());
  }
}

}  // namespace
}  // namespace ehja
