// Unit tests for the hash module: position map, linear hashing invariants,
// partition maps, and the local hash table's accounting, range surgery and
// probe run.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/node_table.hpp"
#include "hash/hash_family.hpp"
#include "hash/local_hash_table.hpp"
#include "hash/partition_map.hpp"
#include "util/rng.hpp"
#include "workload/distribution.hpp"

namespace ehja {
namespace {

// ------------------------------------------------------------ position map

TEST(PositionTest, HighBitsPreserveOrder) {
  EXPECT_LE(position_of(key_from_unit(0.1)), position_of(key_from_unit(0.2)));
  EXPECT_EQ(position_of(0), 0u);
  EXPECT_EQ(position_of(UINT64_MAX), kPositionCount - 1);
}

TEST(EqualRangesTest, CoverAndDisjoint) {
  const auto ranges = equal_ranges(6, 1000);
  EXPECT_EQ(ranges.front().lo, 0u);
  EXPECT_EQ(ranges.back().hi, 1000u);
  for (std::size_t i = 1; i < ranges.size(); ++i) {
    EXPECT_EQ(ranges[i - 1].hi, ranges[i].lo);
  }
}

// ----------------------------------------------------------- linear hashing

TEST(LinearHashMapTest, InitialState) {
  LinearHashMap lh(4, 1024);
  EXPECT_EQ(lh.bucket_count(), 4u);
  EXPECT_EQ(lh.level(), 0u);
  EXPECT_EQ(lh.split_ptr(), 0u);
  EXPECT_EQ(lh.bucket_range(0), (PosRange{0, 256}));
  EXPECT_EQ(lh.bucket_range(3), (PosRange{768, 1024}));
}

TEST(LinearHashMapTest, SplitsWalkThePointer) {
  LinearHashMap lh(4, 1024);
  // First split targets bucket 0 ([0,256)) regardless of who overflowed.
  auto s0 = lh.split_next();
  EXPECT_EQ(s0.kept, (PosRange{0, 128}));
  EXPECT_EQ(s0.moved, (PosRange{128, 256}));
  EXPECT_EQ(lh.split_ptr(), 1u);
  EXPECT_EQ(lh.bucket_count(), 5u);
  // Second split targets the original bucket 1 ([256,512)).
  auto s1 = lh.split_next();
  EXPECT_EQ(s1.kept, (PosRange{256, 384}));
  EXPECT_EQ(s1.moved, (PosRange{384, 512}));
}

TEST(LinearHashMapTest, LevelIncrementsWhenPointerWraps) {
  LinearHashMap lh(2, 1024);
  lh.split_next();  // splits [0,512)
  EXPECT_EQ(lh.level(), 0u);
  lh.split_next();  // splits [512,1024): pointer wraps
  EXPECT_EQ(lh.level(), 1u);
  EXPECT_EQ(lh.split_ptr(), 0u);
  EXPECT_EQ(lh.bucket_count(), 4u);
  // Next round re-splits the now-256-wide buckets left to right.
  auto s = lh.split_next();
  EXPECT_EQ(s.kept, (PosRange{0, 128}));
}

TEST(LinearHashMapTest, AtMostTwoBucketWidthsExist) {
  // The "at most two hash functions active" invariant: bucket widths take
  // at most two distinct values at any time.
  SplitMix64 rng(1);
  LinearHashMap lh(4, 1u << 16);
  for (int i = 0; i < 40; ++i) {
    lh.split_next();
    std::vector<std::uint64_t> widths;
    for (std::size_t b = 0; b < lh.bucket_count(); ++b) {
      widths.push_back(lh.bucket_range(b).width());
    }
    std::sort(widths.begin(), widths.end());
    widths.erase(std::unique(widths.begin(), widths.end()), widths.end());
    EXPECT_LE(widths.size(), 2u);
    if (widths.size() == 2) {
      EXPECT_EQ(widths[0] * 2, widths[1]);
    }
  }
}

TEST(LinearHashMapTest, BucketIndexOfAgreesWithRanges) {
  LinearHashMap lh(3, 10000);
  for (int i = 0; i < 10; ++i) lh.split_next();
  for (std::uint64_t pos = 0; pos < 10000; pos += 7) {
    const std::size_t idx = lh.bucket_index_of(pos);
    EXPECT_TRUE(lh.bucket_range(idx).contains(pos));
  }
}

TEST(LinearHashMapTest, BoundsStayCoveringAndSorted) {
  LinearHashMap lh(4);
  for (int i = 0; i < 30; ++i) lh.split_next();
  const auto& bounds = lh.bounds();
  EXPECT_EQ(bounds.front(), 0u);
  EXPECT_EQ(bounds.back(), kPositionCount);
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

TEST(LinearHashMapTest, SplitPossibleFalseAtPositionResolution) {
  LinearHashMap lh(2, 4);  // four positions, two buckets of width 2
  EXPECT_TRUE(lh.split_possible());
  lh.split_next();
  lh.split_next();
  // All buckets now width 1: nothing left to split.
  EXPECT_FALSE(lh.split_possible());
}

// ------------------------------------------------------------ partition map

TEST(PartitionMapTest, InitialEqualRanges) {
  const auto map = PartitionMap::initial({10, 11, 12, 13});
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(map.entry_for(0).active_owner(), 10);
  EXPECT_EQ(map.entry_for(kPositionCount - 1).active_owner(), 13);
  EXPECT_EQ(map.owner_slots(), 4u);
}

TEST(PartitionMapTest, SplitEntry) {
  auto map = PartitionMap::initial({10, 11});
  const std::uint64_t mid = kPositionCount / 4;
  map.split_entry(0, mid, 99);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.entry_for(mid - 1).active_owner(), 10);
  EXPECT_EQ(map.entry_for(mid).active_owner(), 99);
  map.check();
}

TEST(PartitionMapTest, AddReplicaMakesNewestActive) {
  auto map = PartitionMap::initial({10, 11});
  map.add_replica(1, 99);
  const auto& entry = map.entries()[1];
  EXPECT_EQ(entry.active_owner(), 99);
  ASSERT_EQ(entry.owners.size(), 2u);
  EXPECT_EQ(entry.owners[1], 11);
  EXPECT_EQ(map.owner_slots(), 3u);
}

TEST(PartitionMapTest, ReplaceEntrySubdivides) {
  auto map = PartitionMap::initial({10, 11});
  const PosRange original = map.entries()[0].range;
  const std::uint64_t third = original.lo + original.width() / 3;
  std::vector<PartitionMap::Entry> plan = {
      {PosRange{original.lo, third}, {20}},
      {PosRange{third, original.hi}, {21}},
  };
  map.replace_entry(0, plan);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.entry_for(original.lo).active_owner(), 20);
  EXPECT_EQ(map.entry_for(third).active_owner(), 21);
}

TEST(PartitionMapTest, IndexForBoundaries) {
  // Maps of 1..33 entries grown by random splits; every entry's first and
  // last position, and the position just below it, against a linear scan.
  SplitMix64 rng(19);
  auto map = PartitionMap::initial({1});
  for (ActorId owner = 2; map.size() <= 33; ++owner) {
    const auto linear = [&map](std::uint64_t pos) {
      std::size_t i = 0;
      while (!map.entries()[i].range.contains(pos)) ++i;
      return i;
    };
    for (const PartitionMap::Entry& e : map.entries()) {
      for (const std::uint64_t pos : {e.range.lo, e.range.hi - 1}) {
        EXPECT_EQ(map.index_for(pos), linear(pos)) << map.size();
      }
      if (e.range.lo > 0) {
        EXPECT_EQ(map.index_for(e.range.lo - 1), linear(e.range.lo - 1));
      }
    }
    std::size_t victim = rng.next_u64() % map.size();
    while (map.entries()[victim].range.width() < 2) {
      victim = (victim + 1) % map.size();
    }
    const PosRange r = map.entries()[victim].range;
    map.split_entry(victim, r.lo + 1 + rng.next_u64() % (r.width() - 1),
                    owner);
  }
}

TEST(PartitionMapTest, WireBytesGrowWithEntries) {
  auto map = PartitionMap::initial({1, 2});
  const std::size_t before = map.wire_bytes();
  map.add_replica(0, 3);
  EXPECT_GT(map.wire_bytes(), before);
}

TEST(PartitionMapDeathTest, SplittingReplicatedRangeAborts) {
  auto map = PartitionMap::initial({1, 2});
  map.add_replica(0, 3);
  EXPECT_DEATH(map.split_entry(0, kPositionCount / 4, 9), "replicated");
}

// --------------------------------------------------------- local hash table

LocalHashTable small_table(PosRange range = PosRange{0, 1024}) {
  return LocalHashTable(Schema{100}, range);
}

Tuple tuple_at_position(std::uint64_t pos, std::uint64_t id = 0) {
  return Tuple{id, pos << (64 - kPositionBits)};
}

TEST(LocalHashTableTest, InsertAccountsFootprint) {
  auto table = small_table();
  table.insert(tuple_at_position(5, 1));
  table.insert(tuple_at_position(5, 2));
  EXPECT_EQ(table.tuple_count(), 2u);
  EXPECT_EQ(table.footprint_bytes(), 2 * (100 + kHashEntryOverheadBytes));
}

TEST(LocalHashTableTest, ProbeFindsAllKeyMatches) {
  auto table = small_table();
  const Tuple a = tuple_at_position(5, 1);
  Tuple b = tuple_at_position(5, 2);
  b.key = a.key;  // same join attribute
  Tuple c = tuple_at_position(5, 3);
  c.key = a.key + 1;  // same position, different attribute
  table.insert(a);
  table.insert(b);
  table.insert(c);
  Tuple probe = a;
  probe.id = 99;
  const auto result = table.probe(probe);
  EXPECT_EQ(result.matches, 2u);
  // Binary search over the 3-entry chain plus one comparison per match.
  EXPECT_GE(result.comparisons, result.matches);
  EXPECT_LE(result.comparisons, 3u + result.matches);
  EXPECT_EQ(result.checksum_delta,
            match_signature(1, 99) + match_signature(2, 99));
}

TEST(LocalHashTableTest, ProbeMissReturnsZero) {
  auto table = small_table();
  table.insert(tuple_at_position(5, 1));
  const auto result = table.probe(tuple_at_position(6, 9));
  EXPECT_EQ(result.matches, 0u);
  EXPECT_GE(result.comparisons, 1u);  // the miss still costs a lookup
}

TEST(LocalHashTableTest, ExtractRangeRemovesAndReturns) {
  auto table = small_table();
  for (std::uint64_t pos = 0; pos < 100; ++pos) {
    table.insert(tuple_at_position(pos, pos));
  }
  const auto extracted = table.extract_range(PosRange{50, 100});
  EXPECT_EQ(extracted.size(), 50u);
  EXPECT_EQ(table.tuple_count(), 50u);
  EXPECT_EQ(table.footprint_bytes(), 50 * (100 + kHashEntryOverheadBytes));
  for (const Tuple& t : extracted) {
    EXPECT_GE(position_of(t.key), 50u);
  }
}

TEST(LocalHashTableTest, SetRangeAfterExtraction) {
  auto table = small_table();
  for (std::uint64_t pos = 0; pos < 100; ++pos) {
    table.insert(tuple_at_position(pos, pos));
  }
  table.extract_range(PosRange{50, 1024});
  table.set_range(PosRange{0, 50});
  EXPECT_EQ(table.tuple_count(), 50u);
  // Probing inside the shrunken range still works.
  EXPECT_EQ(table.probe(tuple_at_position(10, 999)).matches, 1u);
}

TEST(LocalHashTableDeathTest, SetRangeOrphaningTuplesAborts) {
  auto table = small_table();
  table.insert(tuple_at_position(5, 1));
  EXPECT_DEATH(table.set_range(PosRange{100, 200}), "orphan");
}

TEST(LocalHashTableDeathTest, InsertOutsideRangeAborts) {
  auto table = small_table(PosRange{0, 10});
  EXPECT_DEATH(table.insert(tuple_at_position(10, 1)), "outside");
}

TEST(LocalHashTableTest, HistogramCountsEntries) {
  auto table = small_table(PosRange{0, 100});
  for (int i = 0; i < 10; ++i) table.insert(tuple_at_position(5, 100 + i));
  table.insert(tuple_at_position(95, 1));
  const auto hist = table.histogram();
  EXPECT_EQ(hist.total(), 11u);
  using Cell = PositionHistogram::Cell;
  EXPECT_EQ(hist.cells(), (std::vector<Cell>{{5, 10}, {95, 1}}));
}

// ------------------------------------------ scalar/batched equivalence fuzz
//
// insert_batch/probe_batch must be byte-identical to driving the scalar
// calls tuple by tuple: same matches, comparisons, checksum, footprint, and
// the same extracted tuples in the same order.  The fuzz drives two tables
// through random interleavings of batch inserts, probes, and extract_range
// surgery (which invalidates the lazy key index) over random ranges and
// both uniform and heavily skewed position distributions.  A shadow list
// of the live rows in insertion order pins what extraction returns.

/// Random batch whose positions all lie in `range`; `hot_positions` > 0
/// concentrates all rows onto that many distinct positions (skew), and a
/// quarter of the keys are duplicated to exercise same-key match lists.
TupleBatch random_batch(SplitMix64& rng, const PosRange& range,
                        std::size_t rows, std::size_t hot_positions) {
  TupleBatch batch;
  batch.reserve(rows);
  std::uint64_t last_key = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t pos = range.lo + rng.next_u64() % range.width();
    if (hot_positions > 0) {
      pos = range.lo + rng.next_u64() % hot_positions;
    }
    std::uint64_t key = (pos << (64 - kPositionBits)) |
                        (rng.next_u64() & ((1ull << (64 - kPositionBits)) - 1));
    if (i > 0 && rng.next_u64() % 4 == 0) key = last_key;  // duplicate key
    last_key = key;
    batch.append(rng.next_u64(), key);
  }
  return batch;
}

TEST(BatchEquivalenceFuzz, InsertProbeExtractInterleavings) {
  SplitMix64 rng(2026);
  for (int round = 0; round < 24; ++round) {
    // Random owned range, sometimes not starting at zero.
    const std::uint64_t lo = (rng.next_u64() % 8) * 1000;
    const std::uint64_t width = 64 + rng.next_u64() % 4000;
    const PosRange range{lo, lo + width};
    const Schema schema{100};
    LocalHashTable scalar_table(schema, range);
    LocalHashTable batched_table(schema, range);
    std::vector<Tuple> shadow;  // live rows, in insertion order
    const std::size_t hot = (round % 3 == 0) ? 1 + rng.next_u64() % 5 : 0;

    for (int step = 0; step < 12; ++step) {
      const std::uint64_t op = rng.next_u64() % 4;
      if (op <= 1) {  // build batch
        const auto batch =
            random_batch(rng, range, 1 + rng.next_u64() % 500, hot);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          scalar_table.insert(batch.tuple(i));
          shadow.push_back(batch.tuple(i));
        }
        batched_table.insert_batch(batch);
      } else if (op == 2) {  // probe batch
        const auto batch =
            random_batch(rng, range, 1 + rng.next_u64() % 500, hot);
        LocalHashTable::BatchProbeResult want;
        want.probed = batch.size();
        for (std::size_t i = 0; i < batch.size(); ++i) {
          const auto r = scalar_table.probe(batch.tuple(i));
          want.matches += r.matches;
          want.comparisons += r.comparisons;
          want.checksum_delta += r.checksum_delta;
        }
        const auto got = batched_table.probe_batch(batch);
        EXPECT_EQ(got.probed, want.probed);
        EXPECT_EQ(got.matches, want.matches);
        EXPECT_EQ(got.comparisons, want.comparisons);
        EXPECT_EQ(got.checksum_delta, want.checksum_delta);
      } else {  // extract a random sub-range from both
        const std::uint64_t a = lo + rng.next_u64() % width;
        const std::uint64_t b = lo + rng.next_u64() % width;
        const PosRange sub{std::min(a, b), std::max(a, b) + 1};
        // Expected: the shadow's rows inside `sub`, stably sorted by
        // position (ascending position, then insertion order).
        const auto in_sub = [&sub](const Tuple& t) {
          return sub.contains(position_of(t.key));
        };
        std::vector<Tuple> want;
        std::copy_if(shadow.begin(), shadow.end(), std::back_inserter(want),
                     in_sub);
        std::stable_sort(want.begin(), want.end(),
                         [](const Tuple& x, const Tuple& y) {
                           return position_of(x.key) < position_of(y.key);
                         });
        shadow.erase(std::remove_if(shadow.begin(), shadow.end(), in_sub),
                     shadow.end());
        const TupleBatch got = batched_table.extract_range(sub);
        EXPECT_EQ(got, TupleBatch::from_tuples(want));
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got.position(i), position_of(got.key(i)));
        }
        EXPECT_EQ(scalar_table.extract_range(sub), got);
      }
      EXPECT_EQ(scalar_table.tuple_count(), batched_table.tuple_count());
      EXPECT_EQ(scalar_table.footprint_bytes(),
                batched_table.footprint_bytes());
    }
  }
}

// ------------------------------------------------------ probe run oracle
//
// The probe run against a shadow list of the live rows in insertion order.
// Per probe row the matches must be the shadow's rows with the probe key,
// in insertion order, with their checksum and the modeled comparisons: a
// binary search over the rows at the key's position (std::bit_width(n)
// comparisons, or 1 at an empty position) plus one per match.  One
// LocalHashTable (probed per row and per batch) and NodeTables at 1, 2 and
// 4 lanes go through the same steps: probes of an empty table, then
// probes after inserts, an extract_range and a set_range on a table that
// was already probed, so every step finds the run stale.

struct RunOracle {
  std::vector<Tuple> live;  // insertion order

  void insert(const TupleBatch& batch) {
    for (const Tuple& t : batch) live.push_back(t);
  }

  struct Expected {
    std::vector<Tuple> rows;  // {build id, probe id}, probe row by probe row
    std::vector<LocalHashTable::ProbeResult> per_row;
    LocalHashTable::BatchProbeResult total;
  };

  Expected probe(const TupleBatch& batch) const {
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> ids_of;
    std::unordered_map<std::uint64_t, std::uint64_t> rows_at;
    for (const Tuple& r : live) {
      ids_of[r.key].push_back(r.id);
      ++rows_at[position_of(r.key)];
    }
    Expected want;
    want.total.probed = batch.size();
    for (const Tuple& s : batch) {
      LocalHashTable::ProbeResult row;
      const auto at = rows_at.find(position_of(s.key));
      row.comparisons = at == rows_at.end() ? 1 : std::bit_width(at->second);
      if (const auto it = ids_of.find(s.key); it != ids_of.end()) {
        for (const std::uint64_t id : it->second) {
          ++row.matches;
          ++row.comparisons;
          row.checksum_delta += match_signature(id, s.id);
          want.rows.push_back(Tuple{id, s.id});
        }
      }
      want.total.matches += row.matches;
      want.total.comparisons += row.comparisons;
      want.total.checksum_delta += row.checksum_delta;
      want.per_row.push_back(row);
    }
    return want;
  }
};

/// Positions of the oracle's build rows, relative to the range start: a
/// few hot ones that grow segments of hundreds of rows, a warm block whose
/// segments cross the 16-row scan limit as batches land, and the rest.
constexpr std::uint64_t kHot[] = {7, 100, 2000};
constexpr std::uint64_t kWarm = 256;

/// Build rows with fresh ids.  Hot positions draw from 40 low-bit values
/// and often repeat the previous row's key (runs of duplicates); other
/// positions draw from 3 (short segments with equal and distinct keys).
TupleBatch run_build_rows(SplitMix64& rng, const PosRange& range,
                          std::size_t rows, std::uint64_t& next_id) {
  TupleBatch batch;
  std::uint64_t last_hot_key = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t pick = rng.next_u64() % 6;
    std::uint64_t key = 0;
    if (pick < 2) {
      const std::uint64_t pos = range.lo + kHot[rng.next_u64() % 3];
      key = (pos << (64 - kPositionBits)) | (rng.next_u64() % 40);
      if (last_hot_key != 0 && rng.next_u64() % 3 == 0) key = last_hot_key;
      last_hot_key = key;
    } else {
      const std::uint64_t span = pick < 5 ? kWarm : range.width();
      const std::uint64_t pos = range.lo + rng.next_u64() % span;
      key = (pos << (64 - kPositionBits)) | (rng.next_u64() % 3);
    }
    batch.append(next_id++, key);
  }
  return batch;
}

/// Probe rows with fresh ids: half reuse a live key, a quarter land on the
/// hot and warm positions, the rest anywhere in `range`.
TupleBatch run_probe_rows(SplitMix64& rng, const PosRange& range,
                          const std::vector<Tuple>& live, std::size_t rows,
                          std::uint64_t& next_id) {
  TupleBatch batch;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t pick = rng.next_u64() % 4;
    std::uint64_t key = 0;
    if (pick < 2 && !live.empty()) {
      key = live[rng.next_u64() % live.size()].key;
    } else if (pick == 2) {
      const std::uint64_t pos =
          range.lo + (rng.next_u64() % 2 == 0 ? kHot[rng.next_u64() % 3]
                                              : rng.next_u64() % kWarm);
      key = (pos << (64 - kPositionBits)) | (rng.next_u64() % 40);
    } else {
      const std::uint64_t pos = range.lo + rng.next_u64() % range.width();
      key = (pos << (64 - kPositionBits)) | (rng.next_u64() % 3);
    }
    batch.append(next_id++, key);
  }
  return batch;
}

TEST(ProbeRunOracle, MatchesShadowRowsInInsertionOrder) {
  SplitMix64 rng(21);
  const Schema schema{100};
  PosRange range{1000, 1000 + 4096};
  LocalHashTable table(schema, range);
  std::vector<std::unique_ptr<NodeTable>> lanes;
  for (const std::uint32_t threads : {1u, 2u, 4u}) {
    lanes.push_back(std::make_unique<NodeTable>(schema, range, threads));
  }
  RunOracle oracle;
  std::uint64_t next_build_id = 1;
  std::uint64_t next_probe_id = 1u << 30;
  // Past every fan-out cutoff, so the 4-lane table probes on 4 lanes.
  const std::size_t rows = NodeTable::kMinRowsPerLane * 4 + 500;

  const auto check_probe = [&](const char* step) {
    SCOPED_TRACE(step);
    const TupleBatch probe =
        run_probe_rows(rng, range, oracle.live, rows, next_probe_id);
    const RunOracle::Expected want = oracle.probe(probe);
    const auto check_total = [&](const LocalHashTable::BatchProbeResult& got) {
      EXPECT_EQ(got.probed, want.total.probed);
      EXPECT_EQ(got.matches, want.total.matches);
      EXPECT_EQ(got.comparisons, want.total.comparisons);
      EXPECT_EQ(got.checksum_delta, want.total.checksum_delta);
    };
    std::vector<Tuple> got_rows;
    check_total(table.probe_batch(probe, &got_rows));
    EXPECT_EQ(got_rows, want.rows);
    std::size_t at = 0;  // this probe row's first row in want.rows
    for (std::size_t i = 0; i < probe.size(); ++i) {
      std::vector<Tuple> row_rows;
      const auto got = table.probe(probe.tuple(i), &row_rows);
      const auto& w = want.per_row[i];
      ASSERT_EQ(got.matches, w.matches) << "row " << i;
      EXPECT_EQ(got.comparisons, w.comparisons) << "row " << i;
      EXPECT_EQ(got.checksum_delta, w.checksum_delta) << "row " << i;
      EXPECT_TRUE(std::equal(row_rows.begin(), row_rows.end(),
                             want.rows.begin() + at))
          << "row " << i;
      at += w.matches;
    }
    for (std::size_t t = 0; t < lanes.size(); ++t) {
      SCOPED_TRACE(::testing::Message() << "node table " << t);
      std::vector<Tuple> lane_rows;
      check_total(lanes[t]->probe_batch(probe, &lane_rows));
      EXPECT_EQ(lane_rows, want.rows);
    }
  };
  const auto insert_batch = [&](const TupleBatch& batch) {
    table.insert_batch(batch);
    for (auto& t : lanes) t->insert_batch(batch);
    oracle.insert(batch);
  };
  const auto extract = [&](const PosRange& sub) {
    const TupleBatch want = table.extract_range(sub);
    for (auto& t : lanes) EXPECT_EQ(t->extract_range(sub), want);
    std::erase_if(oracle.live, [&](const Tuple& r) {
      return sub.contains(position_of(r.key));
    });
  };

  check_probe("empty table");
  insert_batch(run_build_rows(rng, range, rows, next_build_id));
  check_probe("first build");
  insert_batch(run_build_rows(rng, range, rows, next_build_id));
  check_probe("after insert_batch");
  {
    // The one-row insert on the LocalHashTable, the batch on the others.
    const TupleBatch batch = run_build_rows(rng, range, rows, next_build_id);
    for (const Tuple& t : batch) table.insert(t);
    for (auto& t : lanes) t->insert_batch(batch);
    oracle.insert(batch);
  }
  check_probe("after insert");
  // A middle slice holding hot position 2000's long segment.
  extract(PosRange{range.lo + 1990, range.lo + 2010});
  check_probe("after extract_range");
  // Drop the tail, then slide the range: offsets are relative to its start.
  extract(PosRange{range.lo + 3000, range.hi});
  range = PosRange{range.lo - 16, range.lo + 3000};
  table.set_range(range);
  for (auto& t : lanes) t->set_range(range);
  check_probe("after set_range");
  // Rows land again on the position whose entries were unlinked.
  insert_batch(run_build_rows(rng, PosRange{range.lo + 16, range.hi}, rows,
                              next_build_id));
  check_probe("after extraction and insert");
  extract(range);
  check_probe("emptied table");
}

}  // namespace
}  // namespace ehja
