// Intra-node lanes over one shared hash table, and the pool that runs them.
//
// Three layers of assurance for the concurrent hot path inside a join
// process (DESIGN.md §11):
//
//   * IntraPool unit tests -- every lane runs, generations reuse the same
//     workers, a 1-lane pool degenerates to a plain call;
//   * differential fuzz -- NodeTable at 1..8 lanes against the serial
//     LocalHashTable across uniform, small-domain and zipf-skewed key
//     distributions, interleaving inserts, probes and range extraction,
//     with extraction order required to match exactly, and the lane merge
//     of probe results (sums, captured rows in the same order) likewise;
//   * raw stress -- LocalHashTable's link and probe_rows driven by bare
//     std::threads so TSan sees the unwrapped access pattern.
//
// The stress test is sized to finish quickly under TSan's ~10x slowdown;
// CI's tsan job runs this binary on every PR.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/node_table.hpp"
#include "hash/local_hash_table.hpp"
#include "runtime/intra_pool.hpp"
#include "util/rng.hpp"

namespace ehja {
namespace {

// --------------------------------------------------------------- IntraPool

TEST(IntraPoolTest, SingleLaneRunsInline) {
  IntraPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  const auto caller = std::this_thread::get_id();
  unsigned ran = 0;
  pool.run([&](unsigned t) {
    EXPECT_EQ(t, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++ran;
  });
  EXPECT_EQ(ran, 1u);
}

TEST(IntraPoolTest, EveryLaneRunsOncePerGeneration) {
  IntraPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> hits(4);
    pool.run([&](unsigned t) { hits[t].fetch_add(1); });
    for (unsigned t = 0; t < 4; ++t) EXPECT_EQ(hits[t].load(), 1);
  }
}

TEST(IntraPoolTest, RunIsABarrier) {
  IntraPool pool(4);
  // Writes from one region must be visible to the next with plain reads --
  // the property NodeTable's serial bookkeeping depends on.
  std::vector<int> data(4, 0);
  pool.run([&](unsigned t) { data[t] = static_cast<int>(t) + 1; });
  int sum = 0;
  for (const int v : data) sum += v;
  EXPECT_EQ(sum, 1 + 2 + 3 + 4);
}

TEST(IntraPoolTest, SlicesPartitionExactly) {
  for (const std::size_t n : {0ul, 1ul, 7ul, 4096ul, 10001ul}) {
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      std::size_t covered = 0, prev_end = 0;
      for (unsigned t = 0; t < threads; ++t) {
        const auto [begin, end] = IntraPool::slice(n, threads, t);
        EXPECT_EQ(begin, prev_end);
        covered += end - begin;
        prev_end = end;
      }
      EXPECT_EQ(prev_end, n);
      EXPECT_EQ(covered, n);
    }
  }
}

// --------------------------------------------------------- workload shapes

enum class Shape { kUniform, kSmallDomain, kZipf };

/// Random batch in `range` shaped by `shape`: uniform positions with ~25%
/// duplicated keys, a small closed key domain (every key collides), or a
/// zipf-like concentration where most rows hit a handful of hot positions.
TupleBatch shaped_batch(SplitMix64& rng, const PosRange& range,
                        std::size_t rows, Shape shape) {
  TupleBatch batch;
  batch.reserve(rows);
  constexpr std::uint64_t kLowMask = (1ull << (64 - kPositionBits)) - 1;
  std::uint64_t last_key = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    std::uint64_t key = 0;
    switch (shape) {
      case Shape::kUniform: {
        const std::uint64_t pos = range.lo + rng.next_u64() % range.width();
        key = (pos << (64 - kPositionBits)) | (rng.next_u64() & kLowMask);
        if (i > 0 && rng.next_u64() % 4 == 0) key = last_key;
        break;
      }
      case Shape::kSmallDomain: {
        // 64 distinct keys total: long same-key match lists everywhere.
        const std::uint64_t k = rng.next_u64() % 64;
        const std::uint64_t pos = range.lo + k % range.width();
        key = (pos << (64 - kPositionBits)) | k;
        break;
      }
      case Shape::kZipf: {
        // Crude zipf: rank r with probability ~ 1/(r+1); a few positions
        // soak up most rows, the tail stays wide.
        std::uint64_t rank = 0;
        while (rank < 30 && (rng.next_u64() & 1) == 0) ++rank;
        const std::uint64_t pos =
            range.lo + (rank * 97) % std::min<std::uint64_t>(range.width(),
                                                             rank * 97 + 1);
        key = (pos << (64 - kPositionBits)) | (rng.next_u64() & kLowMask);
        if (i > 0 && rng.next_u64() % 3 == 0) key = last_key;
        break;
      }
    }
    last_key = key;
    batch.append(rng.next_u64(), key);
  }
  return batch;
}

// ---------------------------------------------------- differential fuzzing

/// NodeTable at `threads` lanes must reproduce the serial table exactly:
/// probe aggregates, counts, footprint, and extract_range output in order.
void run_differential(std::uint32_t threads, Shape shape, std::uint64_t seed) {
  SplitMix64 rng(seed);
  const std::uint64_t lo = (rng.next_u64() % 8) * 500;
  const std::uint64_t width = 64 + rng.next_u64() % 3000;
  const PosRange range{lo, lo + width};
  const Schema schema{100};
  LocalHashTable oracle(schema, range);
  NodeTable table(schema, range, threads);

  for (int step = 0; step < 8; ++step) {
    const std::uint64_t op = rng.next_u64() % 4;
    if (op <= 1) {
      // NodeTable's fan-out only engages above kMinRowsPerLane * lanes;
      // size some batches past that so the parallel path is really hit.
      const std::size_t rows = (step % 2 == 0)
                                   ? NodeTable::kMinRowsPerLane * threads + 512
                                   : 1 + rng.next_u64() % 400;
      const auto batch = shaped_batch(rng, range, rows, shape);
      oracle.insert_batch(batch);
      table.insert_batch(batch);
    } else if (op == 2) {
      const std::size_t rows = NodeTable::kMinRowsPerLane * threads + 256;
      const auto batch = shaped_batch(rng, range, rows, shape);
      const auto want = oracle.probe_batch(batch);
      const auto got = table.probe_batch(batch);
      EXPECT_EQ(got.probed, want.probed);
      EXPECT_EQ(got.matches, want.matches);
      EXPECT_EQ(got.comparisons, want.comparisons);
      EXPECT_EQ(got.checksum_delta, want.checksum_delta);
    } else {
      const std::uint64_t a = lo + rng.next_u64() % width;
      const std::uint64_t b = lo + rng.next_u64() % width;
      const PosRange sub{std::min(a, b), std::max(a, b) + 1};
      // Lanes link rows in batch order, so even the emission order matches.
      EXPECT_EQ(table.extract_range(sub), oracle.extract_range(sub));
    }
    EXPECT_EQ(table.tuple_count(), oracle.tuple_count());
    EXPECT_EQ(table.footprint_bytes(), oracle.footprint_bytes());
  }
}

TEST(ConcurrentDifferentialFuzz, SharedMatchesOracle) {
  std::uint64_t k = 0;
  for (const std::uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
    for (const Shape shape :
         {Shape::kUniform, Shape::kSmallDomain, Shape::kZipf}) {
      for (const std::uint64_t seed : {100 + k, 200 + k}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                          << " seed=" << seed);
        run_differential(threads, shape, seed);
      }
      ++k;
    }
  }
}

/// Probe ids of captured rows, in capture order: one run per probe row.
std::vector<std::uint64_t> probe_ids(const std::vector<Tuple>& rows) {
  std::vector<std::uint64_t> ids;
  ids.reserve(rows.size());
  for (const Tuple& r : rows) ids.push_back(r.key);
  return ids;
}

/// NodeTable's probe merges its lanes' results: sums added, captured rows
/// concatenated in lane order.  Against the serial oracle the merge must
/// give the same aggregates and exactly the same rows: probe-row order,
/// and within one probe row the build insertion order both tables' probe
/// runs give.  Probe sizes straddle the fan-out cutoff, and inserts land
/// after probes, so both runs go stale and are rebuilt.
void run_merge_differential(std::uint32_t threads, Shape shape,
                            std::uint64_t seed) {
  SplitMix64 rng(seed);
  const PosRange range{0, 512 + rng.next_u64() % 2048};
  const Schema schema{100};
  LocalHashTable oracle(schema, range);
  NodeTable table(schema, range, threads);
  const std::size_t cutoff = NodeTable::kMinRowsPerLane * threads;

  for (int round = 0; round < 3; ++round) {
    const auto build =
        shaped_batch(rng, range, cutoff + rng.next_u64() % 256, shape);
    oracle.insert_batch(build);
    table.insert_batch(build);
    for (int p = 0; p < 2; ++p) {
      const auto probe =
          shaped_batch(rng, range, cutoff - 32 + rng.next_u64() % 128, shape);
      std::vector<Tuple> want_rows;
      std::vector<Tuple> got_rows;
      const auto want = oracle.probe_batch(probe, &want_rows);
      const auto got = table.probe_batch(probe, &got_rows);
      EXPECT_EQ(got.probed, want.probed);
      EXPECT_EQ(got.matches, want.matches);
      EXPECT_EQ(got.comparisons, want.comparisons);
      EXPECT_EQ(got.checksum_delta, want.checksum_delta);
      EXPECT_EQ(probe_ids(got_rows), probe_ids(want_rows));
      EXPECT_EQ(got_rows, want_rows);
    }
  }
}

TEST(ConcurrentDifferentialFuzz, MergeMatchesOracle) {
  std::uint64_t seed = 300;
  for (const std::uint32_t threads : {1u, 2u, 3u, 4u, 8u}) {
    for (const Shape shape :
         {Shape::kUniform, Shape::kSmallDomain, Shape::kZipf}) {
      SCOPED_TRACE(::testing::Message() << "threads=" << threads
                                        << " seed=" << seed);
      run_merge_differential(threads, shape, seed++);
    }
  }
}

TEST(ConcurrentDifferentialFuzz, ExtractOrderIsBitIdenticalToSerial) {
  // The determinism contract the docs promise: chain linkage -- and
  // therefore extraction order -- equals the serial insert order at every
  // thread count.
  SplitMix64 rng(7);
  const PosRange range{0, 2048};
  const auto batch = shaped_batch(rng, range, 6000, Shape::kUniform);
  LocalHashTable oracle(Schema{100}, range);
  oracle.insert_batch(batch);
  const auto want = oracle.extract_range(range);
  for (const std::uint32_t threads : {2u, 4u, 8u}) {
    NodeTable table(Schema{100}, range, threads);
    table.insert_batch(batch);
    EXPECT_EQ(table.extract_range(range), want) << "threads=" << threads;
  }
}

// ----------------------------------------------------------- raw stress

constexpr unsigned kStressThreads = 4;

/// Run body(t) for t in [0, kStressThreads) on bare std::threads.
template <typename Body>
void run_lanes(const Body& body) {
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kStressThreads; ++t) {
    threads.emplace_back([&body, t] { body(t); });
  }
  for (auto& th : threads) th.join();
}

/// Bare std::threads drive the two shared-table steps NodeTable fans out --
/// link over disjoint position sub-ranges, then probe_rows over disjoint
/// row slices -- so TSan sees the unwrapped write pattern.  Several batches
/// land on a live table, and the result must equal the serial table's.
TEST(ConcurrentStress, ParallelInsertMatchesSerial) {
  SplitMix64 rng(42);
  const PosRange range{0, 1024};
  const Schema schema{100};
  LocalHashTable table(schema, range);
  LocalHashTable oracle(schema, range);

  for (int round = 0; round < 6; ++round) {
    const auto batch = shaped_batch(
        rng, range, 8'000, round % 2 == 0 ? Shape::kUniform : Shape::kZipf);
    oracle.insert_batch(batch);
    const std::size_t base = table.claim(batch);
    run_lanes([&](unsigned t) {
      const auto [lo, hi] = IntraPool::slice(range.width(), kStressThreads, t);
      table.link(batch, base, PosRange{range.lo + lo, range.lo + hi});
    });
    table.commit(batch);

    const auto probe = shaped_batch(rng, range, 8'000, Shape::kUniform);
    table.ensure_index();
    std::vector<LocalHashTable::BatchProbeResult> lane(kStressThreads);
    std::vector<std::vector<Tuple>> lane_rows(kStressThreads);
    run_lanes([&](unsigned t) {
      const auto [begin, end] =
          IntraPool::slice(probe.size(), kStressThreads, t);
      lane[t] = table.probe_rows(probe, begin, end, &lane_rows[t]);
    });
    LocalHashTable::BatchProbeResult got;
    std::vector<Tuple> got_rows;
    for (unsigned t = 0; t < kStressThreads; ++t) {
      got.probed += lane[t].probed;
      got.matches += lane[t].matches;
      got.comparisons += lane[t].comparisons;
      got.checksum_delta += lane[t].checksum_delta;
      got_rows.insert(got_rows.end(), lane_rows[t].begin(),
                      lane_rows[t].end());
    }
    std::vector<Tuple> want_rows;
    const auto want = oracle.probe_batch(probe, &want_rows);
    EXPECT_EQ(got.probed, want.probed);
    EXPECT_EQ(got.matches, want.matches);
    EXPECT_EQ(got.comparisons, want.comparisons);
    EXPECT_EQ(got.checksum_delta, want.checksum_delta);
    // Same matches in the same order: probe rows in lane order, each
    // row's matches in build insertion order.
    EXPECT_EQ(got_rows, want_rows);
    EXPECT_EQ(table.tuple_count(), oracle.tuple_count());
    EXPECT_EQ(table.footprint_bytes(), oracle.footprint_bytes());
  }
  EXPECT_EQ(table.extract_range(range), oracle.extract_range(range));
}

/// Bare std::threads run probe_rows over disjoint row slices of one indexed
/// table, the read side NodeTable fans out.  Long small-domain match lists
/// keep every lane busy.  The summed results must equal the same table's
/// serial probe and the lane-ordered captured rows must equal its rows
/// exactly; the aggregates must also equal an independently built table's.
TEST(ConcurrentStress, ParallelProbeMatchesSerial) {
  SplitMix64 rng(43);
  const PosRange range{0, 1024};
  const Schema schema{100};
  const auto build = shaped_batch(rng, range, 6'000, Shape::kSmallDomain);
  const auto probe = shaped_batch(rng, range, 6'000, Shape::kSmallDomain);

  LocalHashTable table(schema, range);
  table.insert_batch(build);
  table.ensure_index();
  std::vector<LocalHashTable::BatchProbeResult> lane(kStressThreads);
  std::vector<std::vector<Tuple>> lane_rows(kStressThreads);
  run_lanes([&](unsigned t) {
    const auto [begin, end] = IntraPool::slice(probe.size(), kStressThreads, t);
    lane[t] = table.probe_rows(probe, begin, end, &lane_rows[t]);
  });
  LocalHashTable::BatchProbeResult got;
  std::vector<Tuple> got_rows;
  for (unsigned t = 0; t < kStressThreads; ++t) {
    got.probed += lane[t].probed;
    got.matches += lane[t].matches;
    got.comparisons += lane[t].comparisons;
    got.checksum_delta += lane[t].checksum_delta;
    got_rows.insert(got_rows.end(), lane_rows[t].begin(), lane_rows[t].end());
  }

  std::vector<Tuple> serial_rows;
  const auto serial = table.probe_batch(probe, &serial_rows);
  EXPECT_EQ(got.probed, serial.probed);
  EXPECT_EQ(got.matches, serial.matches);
  EXPECT_EQ(got.comparisons, serial.comparisons);
  EXPECT_EQ(got.checksum_delta, serial.checksum_delta);
  EXPECT_EQ(got_rows, serial_rows);

  LocalHashTable oracle(schema, range);
  for (std::size_t i = 0; i < build.size(); ++i) oracle.insert(build.tuple(i));
  const auto want = oracle.probe_batch(probe);
  EXPECT_EQ(got.probed, want.probed);
  EXPECT_EQ(got.matches, want.matches);
  EXPECT_EQ(got.comparisons, want.comparisons);
  EXPECT_EQ(got.checksum_delta, want.checksum_delta);
}

}  // namespace
}  // namespace ehja
