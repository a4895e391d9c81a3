// Failure injection: pool exhaustion, pathological key distributions,
// degenerate configurations.  The protocol must degrade (spill) rather than
// crash or lose tuples.
#include <gtest/gtest.h>

#include "core/driver.hpp"
#include "util/units.hpp"

namespace ehja {
namespace {

EhjaConfig tight_config(Algorithm algorithm) {
  EhjaConfig config;
  config.algorithm = algorithm;
  config.initial_join_nodes = 2;
  config.join_pool_nodes = 3;  // only ONE potential node
  config.data_sources = 2;
  config.build_rel.tuple_count = 20'000;
  config.probe_rel.tuple_count = 20'000;
  config.build_rel.dist = DistributionSpec::SmallDomain(1024);
  config.probe_rel.dist = DistributionSpec::SmallDomain(1024);
  config.chunk_tuples = 500;
  config.generation_slice_tuples = 500;
  // Budget for ~1000 tuples per node: 3 nodes hold 3000 of 20000 tuples.
  config.node_hash_memory_bytes =
      1000 * tuple_footprint(config.build_rel.schema);
  return config;
}

class PoolExhaustionSuite : public ::testing::TestWithParam<Algorithm> {};

TEST_P(PoolExhaustionSuite, DegradesToSpillingAndStaysCorrect) {
  const auto config = tight_config(GetParam());
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_TRUE(run.metrics.pool_exhausted);
  // At least one node had to spill.
  std::uint64_t spilled = 0;
  for (const auto& node : run.metrics.nodes) {
    spilled += node.spilled_build_tuples;
  }
  EXPECT_GT(spilled, 0u);
  EXPECT_EQ(run.metrics.build_tuples_total, config.build_rel.tuple_count);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, PoolExhaustionSuite,
                         ::testing::Values(Algorithm::kSplit,
                                           Algorithm::kReplicate,
                                           Algorithm::kHybrid),
                         [](const ::testing::TestParamInfo<Algorithm>& info) {
                           std::string n = algorithm_name(info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(FailureTest, SourcesFinishBeforeOverflowWithEmptyPool) {
  // Regression (found by RandomConfigFuzz seed 10): every source finishes
  // the build before the first memory-full arrives, and the pool is empty.
  // The spill switch resolves the request without starting an expansion
  // op, so the scheduler itself must re-arm the build drain or the run
  // wedges.
  EhjaConfig config;
  config.algorithm = Algorithm::kReplicate;
  config.initial_join_nodes = 2;
  config.join_pool_nodes = 2;  // empty potential pool
  config.data_sources = 5;
  config.build_rel.tuple_count = 9'000;
  config.probe_rel.tuple_count = 9'000;
  config.build_rel.dist = DistributionSpec::SmallDomain(1575);
  config.probe_rel.dist = config.build_rel.dist;
  config.chunk_tuples = 1000;
  config.generation_slice_tuples = 1000;
  config.node_hash_memory_bytes =
      2000 * tuple_footprint(config.build_rel.schema);
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_TRUE(run.metrics.pool_exhausted);
}

TEST(FailureTest, NoPotentialNodesAtAll) {
  auto config = tight_config(Algorithm::kSplit);
  config.join_pool_nodes = config.initial_join_nodes;  // empty pool
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_TRUE(run.metrics.pool_exhausted);
  EXPECT_EQ(run.metrics.expansions, 0u);
}

TEST(FailureTest, AllKeysIdentical) {
  // Every tuple hashes to one position: the ultimate skew.  The join output
  // is the full cross product.
  auto config = tight_config(Algorithm::kReplicate);
  config.build_rel.tuple_count = 3'000;
  config.probe_rel.tuple_count = 3'000;
  config.build_rel.dist = DistributionSpec::SmallDomain(1);
  config.probe_rel.dist = DistributionSpec::SmallDomain(1);
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join().matches, 9'000'000u);
  EXPECT_EQ(run.join(), reference_join(config));
}

TEST(FailureTest, AllKeysIdenticalSplitCannotSubdivide) {
  // The split pointer eventually reaches a one-position-wide hot bucket it
  // cannot split further; the node must fall back to spilling.
  auto config = tight_config(Algorithm::kSplit);
  config.join_pool_nodes = 10;
  config.build_rel.tuple_count = 5'000;
  config.probe_rel.tuple_count = 1'000;
  config.build_rel.dist = DistributionSpec::SmallDomain(1);
  config.probe_rel.dist = DistributionSpec::SmallDomain(1);
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
}

TEST(FailureTest, EmptyProbeRelation) {
  auto config = tight_config(Algorithm::kHybrid);
  config.probe_rel.tuple_count = 1;  // effectively empty
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
}

TEST(FailureTest, TinyBuildRelation) {
  auto config = tight_config(Algorithm::kSplit);
  config.build_rel.tuple_count = 3;
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.expansions, 0u);
}

TEST(FailureTest, SingleNodeSingleSource) {
  auto config = tight_config(Algorithm::kOutOfCore);
  config.initial_join_nodes = 1;
  config.join_pool_nodes = 1;
  config.data_sources = 1;
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
}

TEST(FailureTest, ChunkLargerThanRelation) {
  auto config = tight_config(Algorithm::kReplicate);
  config.build_rel.tuple_count = 900;
  config.probe_rel.tuple_count = 900;
  config.chunk_tuples = 100'000;
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
}

TEST(FailureDeathTest, InvalidConfigAborts) {
  EhjaConfig config;
  config.initial_join_nodes = 30;
  config.join_pool_nodes = 24;
  EXPECT_DEATH(config.validate(), "pool");
}

TEST(FailureDeathTest, ZeroSourcesAborts) {
  EhjaConfig config;
  config.data_sources = 0;
  EXPECT_DEATH(config.validate(), "");
}

}  // namespace
}  // namespace ehja
