// Unit tests for the serial reference join and the hybrid-hash spiller.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "join/grace_join.hpp"
#include "join/serial_join.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"

namespace ehja {
namespace {

Relation make_relation(RelTag tag, std::uint64_t count, DistributionSpec dist,
                       std::uint64_t seed = 7) {
  RelationSpec spec;
  spec.tag = tag;
  spec.tuple_count = count;
  spec.schema = Schema{100};
  spec.dist = dist;
  return materialize(spec, seed, 2);
}

TEST(SerialJoinTest, DisjointKeysNoMatches) {
  Relation r(RelTag::kR, Schema{100});
  Relation s(RelTag::kS, Schema{100});
  r.add({1, 100});
  s.add({2, 200});
  const auto result = serial_hash_join(r, s);
  EXPECT_EQ(result.matches, 0u);
  EXPECT_EQ(result.checksum, 0u);
}

TEST(SerialJoinTest, CrossProductOnDuplicateKeys) {
  Relation r(RelTag::kR, Schema{100});
  Relation s(RelTag::kS, Schema{100});
  for (std::uint64_t i = 0; i < 3; ++i) r.add({i, 42});
  for (std::uint64_t i = 0; i < 4; ++i) s.add({100 + i, 42});
  const auto result = serial_hash_join(r, s);
  EXPECT_EQ(result.matches, 12u);
}

TEST(SerialJoinTest, ChecksumMatchesManualComputation) {
  Relation r(RelTag::kR, Schema{100});
  Relation s(RelTag::kS, Schema{100});
  r.add({1, 5});
  r.add({2, 6});
  s.add({3, 5});
  s.add({4, 6});
  const auto result = serial_hash_join(r, s);
  EXPECT_EQ(result.matches, 2u);
  EXPECT_EQ(result.checksum, match_signature(1, 3) + match_signature(2, 4));
}

TEST(SerialJoinTest, EmptyRelations) {
  Relation r(RelTag::kR, Schema{100});
  Relation s(RelTag::kS, Schema{100});
  EXPECT_EQ(serial_hash_join(r, s).matches, 0u);
  s.add({1, 1});
  EXPECT_EQ(serial_hash_join(r, s).matches, 0u);
}

// ------------------------------------------------------------- sort-merge

// Serial sort-merge equi-join -- a second, structurally independent oracle.
// It shares no code or data structure with any hash-based path, so its
// agreement with serial_hash_join() rules out a common-mode bug in the
// reference every distributed run is compared against.  (Li, Gao &
// Snodgrass's sort-merge work is the paper's ss3 point of comparison for
// skew handling.)  Duplicate keys produce the full cross product, exactly
// like the hash-based joins.
JoinResult sort_merge_join(const Relation& build, const Relation& probe) {
  std::vector<Tuple> r = build.tuples();
  std::vector<Tuple> s = probe.tuples();
  const auto by_key = [](const Tuple& a, const Tuple& b) {
    return a.key < b.key;
  };
  std::sort(r.begin(), r.end(), by_key);
  std::sort(s.begin(), s.end(), by_key);

  JoinResult result;
  std::size_t i = 0, j = 0;
  while (i < r.size() && j < s.size()) {
    if (r[i].key < s[j].key) {
      ++i;
    } else if (s[j].key < r[i].key) {
      ++j;
    } else {
      // Equal-key run on both sides: emit the cross product.
      const std::uint64_t key = r[i].key;
      std::size_t i_end = i;
      while (i_end < r.size() && r[i_end].key == key) ++i_end;
      std::size_t j_end = j;
      while (j_end < s.size() && s[j_end].key == key) ++j_end;
      for (std::size_t a = i; a < i_end; ++a) {
        for (std::size_t b = j; b < j_end; ++b) {
          ++result.matches;
          result.checksum += match_signature(r[a].id, s[b].id);
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  return result;
}

TEST(SortMergeJoinTest, AgreesWithHashJoinAcrossDistributions) {
  for (const auto& dist :
       {DistributionSpec::Uniform(), DistributionSpec::SmallDomain(512),
        DistributionSpec::Zipf(1.2, 300),
        DistributionSpec::Gaussian(0.5, 1e-3)}) {
    const auto r = make_relation(RelTag::kR, 8000, dist);
    const auto s = make_relation(RelTag::kS, 8000, dist);
    EXPECT_EQ(sort_merge_join(r, s), serial_hash_join(r, s))
        << dist.to_string();
  }
}

TEST(SortMergeJoinTest, CrossProductOnAllEqualKeys) {
  Relation r(RelTag::kR, Schema{100});
  Relation s(RelTag::kS, Schema{100});
  for (std::uint64_t i = 0; i < 7; ++i) r.add({i, 42});
  for (std::uint64_t i = 0; i < 11; ++i) s.add({100 + i, 42});
  const auto result = sort_merge_join(r, s);
  EXPECT_EQ(result.matches, 77u);
  EXPECT_EQ(result, serial_hash_join(r, s));
}

TEST(SortMergeJoinTest, EmptySidesYieldNothing) {
  Relation r(RelTag::kR, Schema{100});
  Relation s(RelTag::kS, Schema{100});
  EXPECT_EQ(sort_merge_join(r, s).matches, 0u);
  r.add({1, 5});
  EXPECT_EQ(sort_merge_join(r, s).matches, 0u);
}

// ------------------------------------------------------------ grace / OOC

struct GraceFixture {
  SimDisk disk{DiskConfig{}};
  CostModel cost;
};

TEST(GraceJoinTest, InCoreWhenBudgetSuffices) {
  GraceFixture fx;
  const auto r = make_relation(RelTag::kR, 5000, DistributionSpec::SmallDomain(256));
  const auto s = make_relation(RelTag::kS, 5000, DistributionSpec::SmallDomain(256));
  const auto expected = serial_hash_join(r, s);
  const auto outcome = grace_join(r, s, /*budget=*/64 * kMiB, 16, fx.disk, fx.cost);
  EXPECT_EQ(outcome.result, expected);
  EXPECT_EQ(outcome.spilled_build_tuples, 0u);
  EXPECT_EQ(fx.disk.bytes_written(), 0u);
}

TEST(GraceJoinTest, SpillsAndStillMatchesOracle) {
  GraceFixture fx;
  const auto r = make_relation(RelTag::kR, 20000, DistributionSpec::SmallDomain(512));
  const auto s = make_relation(RelTag::kS, 20000, DistributionSpec::SmallDomain(512));
  const auto expected = serial_hash_join(r, s);
  // Budget for ~4000 tuples: most partitions must spill.
  const std::uint64_t budget = 4000 * tuple_footprint(r.schema());
  const auto outcome = grace_join(r, s, budget, 16, fx.disk, fx.cost);
  EXPECT_EQ(outcome.result, expected);
  EXPECT_GT(outcome.spilled_build_tuples, 0u);
  EXPECT_GT(outcome.spilled_probe_tuples, 0u);
  EXPECT_GT(fx.disk.bytes_written(), 0u);
  EXPECT_GT(outcome.seconds, 0.0);
}

TEST(GraceJoinTest, MultiPassWhenPartitionExceedsBudget) {
  GraceFixture fx;
  // All keys in one tiny band -> one partition holds everything.
  const auto r = make_relation(RelTag::kR, 8000, DistributionSpec::Gaussian(0.5, 1e-7));
  const auto s = make_relation(RelTag::kS, 8000, DistributionSpec::Gaussian(0.5, 1e-7));
  const auto expected = serial_hash_join(r, s);
  const std::uint64_t budget = 1000 * tuple_footprint(r.schema());
  const auto outcome = grace_join(r, s, budget, 16, fx.disk, fx.cost);
  EXPECT_EQ(outcome.result, expected);
  // The hot partition is ~8x the budget: S must be rescanned several times.
  EXPECT_GT(fx.disk.bytes_read(),
            outcome.spilled_build_tuples * 100 +
                2 * outcome.spilled_probe_tuples * 100);
}

TEST(GraceJoinTest, SmallerBudgetNeverCheaper) {
  const auto r = make_relation(RelTag::kR, 10000, DistributionSpec::Uniform());
  const auto s = make_relation(RelTag::kS, 10000, DistributionSpec::Uniform());
  double prev = -1.0;
  for (const std::uint64_t tuples : {16000u, 4000u, 1000u}) {
    GraceFixture fx;
    const auto outcome = grace_join(
        r, s, tuples * tuple_footprint(r.schema()), 16, fx.disk, fx.cost);
    EXPECT_GE(outcome.seconds, prev);
    prev = outcome.seconds;
  }
}

TEST(HybridHashSpillerTest, EvictsLargestPartitionFirst) {
  GraceFixture fx;
  const Schema schema{100};
  HybridHashSpiller spiller(schema, PosRange{0, kPositionCount},
                            200 * tuple_footprint(schema), 4, fx.disk,
                            fx.cost, 1);
  // Load partition 0 (positions near 0) much heavier than the rest.
  SplitMix64 rng(3);
  for (int i = 0; i < 150; ++i) {
    spiller.add_build(Tuple{static_cast<std::uint64_t>(i),
                            rng.next_below(kPositionCount / 8)
                                << (64 - kPositionBits)});
  }
  for (int i = 0; i < 100; ++i) {
    spiller.add_build(Tuple{1000 + static_cast<std::uint64_t>(i),
                            (kPositionCount / 2 + rng.next_below(100))
                                << (64 - kPositionBits)});
  }
  ASSERT_GT(spiller.spilled_partitions(), 0u);
  // The heavy first partition must be on disk.
  EXPECT_GT(spiller.spilled_build_tuples(), 100u);
}

TEST(HybridHashSpillerTest, BuildTupleConservation) {
  GraceFixture fx;
  const Schema schema{100};
  HybridHashSpiller spiller(schema, PosRange{0, kPositionCount},
                            500 * tuple_footprint(schema), 8, fx.disk,
                            fx.cost, 1);
  SplitMix64 rng(4);
  const std::uint64_t n = 5000;
  for (std::uint64_t i = 0; i < n; ++i) {
    spiller.add_build(Tuple{i, rng.next_u64()});
  }
  EXPECT_EQ(spiller.build_tuples(), n);
  // In-memory + spilled must cover every build tuple.
  const std::uint64_t in_memory =
      spiller.memory_footprint() / tuple_footprint(schema);
  EXPECT_EQ(in_memory + spiller.spilled_build_tuples(), n);
}

TEST(HybridHashSpillerTest, WideFanoutKeepsSpillStreamsDistinct) {
  // Build rows alternating between two sub-partitions of a 64-way spiller
  // must pay the same seeks whichever two they are: every sub-partition's
  // spill files are their own disk streams, however wide the fanout.
  const auto seeks_alternating = [](std::uint64_t other) {
    GraceFixture fx;
    const Schema schema{100};
    constexpr std::uint64_t kFanout = 64;
    HybridHashSpiller spiller(schema, PosRange{0, kPositionCount},
                              tuple_footprint(schema), kFanout, fx.disk,
                              fx.cost, 1, SpillPolicy::kEvictAll);
    const std::uint64_t width = kPositionCount / kFanout;
    for (std::uint64_t i = 0; i < 100'000; ++i) {
      const std::uint64_t part = i % 2 == 0 ? 0 : other;
      spiller.add_build(Tuple{i, (part * width) << (64 - kPositionBits)});
    }
    JoinResult acc;
    spiller.finish(acc);
    return fx.disk.seeks();
  };
  EXPECT_EQ(seeks_alternating(32), seeks_alternating(1));
}

}  // namespace
}  // namespace ehja
