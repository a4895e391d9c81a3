// Unit tests for the serial reference join and the hybrid-hash spiller.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "join/grace_join.hpp"
#include "join/serial_join.hpp"
#include "util/rng.hpp"
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

// ---------------------------------- batch calls against one-row calls

enum class KeyShape { kUniform, kSmallDomain, kHotSubPartition };

/// `n` rows with positions in `range`, ids from `id_base`.  Small-domain
/// and hot keys repeat exactly, so builds and probes match; hot keys put
/// nine rows in ten into the range's first 64 positions.
std::vector<Tuple> shaped_rows(KeyShape shape, PosRange range, std::size_t n,
                               std::uint64_t id_base, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t pos = range.lo + rng.next_below(range.width());
    std::uint64_t low = rng.next_u64() >> kPositionBits;
    if (shape == KeyShape::kSmallDomain) {
      pos = range.lo + rng.next_below(256) * (range.width() / 256);
      low = rng.next_below(4);
    } else if (shape == KeyShape::kHotSubPartition && rng.next_below(10) != 0) {
      pos = range.lo + rng.next_below(64);
      low = rng.next_below(16);
    }
    rows.push_back(Tuple{id_base + i, (pos << (64 - kPositionBits)) | low});
  }
  return rows;
}

/// One store, fed either in batches of `batch_rows` or (0) one row at a
/// time through add_build/add_probe.
struct FedStore {
  SimDisk disk{DiskConfig{}};
  CostModel cost;
  std::unique_ptr<HybridHashSpiller> store;
  std::size_t batch_rows;
  JoinResult result;
  std::vector<Tuple> captured;
  double seconds = 0.0;

  template <typename Batch, typename Row>
  void feed(const std::vector<Tuple>& rows, Batch batch_call, Row row_call) {
    if (batch_rows == 0) {
      for (const Tuple& t : rows) seconds += row_call(t);
      return;
    }
    for (std::size_t i = 0; i < rows.size(); i += batch_rows) {
      TupleBatch batch;
      for (std::size_t j = i; j < std::min(rows.size(), i + batch_rows); ++j) {
        batch.push_back(rows[j]);
      }
      seconds += batch_call(batch);
    }
  }
  void build(const std::vector<Tuple>& rows) {
    feed(
        rows, [&](const TupleBatch& b) { return store->build(b); },
        [&](const Tuple& t) { return store->add_build(t); });
  }
  void probe(const std::vector<Tuple>& rows) {
    feed(
        rows,
        [&](const TupleBatch& b) {
          return store->probe(b, result, &captured);
        },
        [&](const Tuple& t) {
          return store->add_probe(t, result, &captured);
        });
  }
};

struct DiffCase {
  KeyShape shape;
  std::uint64_t budget_tuples;
  std::size_t fanout;
  SpillPolicy policy;
  std::size_t batch_rows;
  /// Start resident on two lanes and switch with spill(kEvictLargest)
  /// after the first build rows, as an EHJA node denied an expansion does.
  bool start_resident;
};

/// Runs `c` with batches and with one-row calls: build, (switch,) build,
/// probe, a recovery reset that discards a sub-range and regrows the range,
/// more build and probe rows, finish.
void expect_batches_match_rows(const DiffCase& c) {
  SCOPED_TRACE(::testing::Message()
               << "shape " << static_cast<int>(c.shape) << ", budget "
               << c.budget_tuples << ", fanout " << c.fanout << ", policy "
               << static_cast<int>(c.policy) << ", batch " << c.batch_rows
               << ", resident start " << c.start_resident);
  const Schema schema{100};
  // A narrow range keeps finish() cheap at a one-tuple budget, where every
  // spilled build row is a pass of its own.
  const PosRange range{4096, 8192};
  const PosRange regrown{4096, 10240};
  const std::vector<PosRange> discard = {PosRange{5120, 6144}};
  const auto build1 = shaped_rows(c.shape, range, 1200, 0, 11);
  const auto build2 = shaped_rows(c.shape, range, 1200, 1200, 12);
  const auto probe1 = shaped_rows(c.shape, range, 800, 0, 13);
  const auto build3 = shaped_rows(c.shape, regrown, 600, 2400, 14);
  const auto probe2 = shaped_rows(c.shape, regrown, 800, 800, 15);

  FedStore fed[2];
  fed[0].batch_rows = c.batch_rows;
  fed[1].batch_rows = 0;
  for (FedStore& f : fed) {
    const std::uint64_t budget = c.budget_tuples * tuple_footprint(schema);
    if (c.start_resident) {
      f.store = std::make_unique<HybridHashSpiller>(
          schema, range, 2, budget, c.fanout, f.disk, f.cost, 1);
      f.build(build1);
      f.seconds += f.store->spill(SpillPolicy::kEvictLargest);
    } else {
      f.store = std::make_unique<HybridHashSpiller>(
          schema, range, budget, c.fanout, f.disk, f.cost, 1, c.policy);
      f.build(build1);
    }
    f.build(build2);
    f.probe(probe1);
    f.seconds += f.store->reset(discard, regrown, f.result, &f.captured);
    f.build(build3);
    f.probe(probe2);
    f.seconds += f.store->finish(f.result, &f.captured);
  }
  const FedStore& batched = fed[0];
  const FedStore& rows = fed[1];
  EXPECT_EQ(batched.store->spilled_partitions(),
            rows.store->spilled_partitions());
  EXPECT_EQ(batched.store->spilled_build_tuples(),
            rows.store->spilled_build_tuples());
  EXPECT_EQ(batched.store->spilled_probe_tuples(),
            rows.store->spilled_probe_tuples());
  EXPECT_EQ(batched.store->memory_footprint(), rows.store->memory_footprint());
  EXPECT_EQ(batched.disk.bytes_written(), rows.disk.bytes_written());
  EXPECT_EQ(batched.disk.bytes_read(), rows.disk.bytes_read());
  EXPECT_EQ(batched.disk.seeks(), rows.disk.seeks());
  EXPECT_EQ(batched.result, rows.result);
  EXPECT_EQ(batched.captured, rows.captured);
  EXPECT_NEAR(batched.seconds, rows.seconds, 1e-9 * rows.seconds);
}

TEST(HybridHashSpillerTest, BatchCallsMatchOneRowCalls) {
  for (const KeyShape shape : {KeyShape::kUniform, KeyShape::kSmallDomain,
                               KeyShape::kHotSubPartition}) {
    for (const std::uint64_t budget : {1u, 40u, 700u, 5000u}) {
      for (const std::size_t batch : {1u, 7u, 300u, 5000u}) {
        for (const std::size_t fanout : {1u, 5u, 64u}) {
          for (const SpillPolicy policy :
               {SpillPolicy::kEvictLargest, SpillPolicy::kEvictAll}) {
            expect_batches_match_rows(
                {shape, budget, fanout, policy, batch, false});
          }
        }
        expect_batches_match_rows(
            {shape, budget, 16, SpillPolicy::kEvictLargest, batch, true});
      }
    }
  }
}

}  // namespace
}  // namespace ehja
