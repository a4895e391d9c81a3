// Integration tests: full distributed runs compared against the serial
// oracle, across algorithms, distributions, initial node counts and both
// runtimes.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/driver.hpp"
#include "util/units.hpp"

namespace ehja {
namespace {

/// A scaled-down workload that still overflows: ~20k tuples against a
/// budget of ~2000 tuples per node.
EhjaConfig small_config(Algorithm algorithm,
                        DistributionSpec dist = DistributionSpec::SmallDomain(4096),
                        std::uint32_t initial_nodes = 4) {
  EhjaConfig config;
  config.algorithm = algorithm;
  config.initial_join_nodes = initial_nodes;
  config.join_pool_nodes = 24;
  config.data_sources = 3;
  config.build_rel.tuple_count = 20'000;
  config.probe_rel.tuple_count = 20'000;
  config.build_rel.dist = dist;
  config.probe_rel.dist = dist;
  config.chunk_tuples = 500;
  config.generation_slice_tuples = 500;
  config.node_hash_memory_bytes = 2000 * tuple_footprint(config.build_rel.schema);
  return config;
}

class AlgorithmSuite : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AlgorithmSuite, MatchesSerialOracleSmallDomain) {
  const auto config = small_config(GetParam());
  const JoinResult expected = reference_join(config);
  ASSERT_GT(expected.matches, 0u) << "workload must produce matches";
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join().matches, expected.matches);
  EXPECT_EQ(run.join().checksum, expected.checksum);
}

TEST_P(AlgorithmSuite, MatchesSerialOracleUniform) {
  auto config = small_config(GetParam(), DistributionSpec::Uniform());
  const JoinResult expected = reference_join(config);
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), expected);
}

TEST_P(AlgorithmSuite, MatchesSerialOracleGaussianSkew) {
  auto config = small_config(GetParam(), DistributionSpec::Gaussian(0.5, 1e-4));
  const JoinResult expected = reference_join(config);
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), expected);
}

TEST_P(AlgorithmSuite, MatchesSerialOracleZipf) {
  auto config = small_config(GetParam(), DistributionSpec::Zipf(1.1, 2000));
  const JoinResult expected = reference_join(config);
  ASSERT_GT(expected.matches, 0u);
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), expected);
}

TEST_P(AlgorithmSuite, SingleInitialNode) {
  const auto config = small_config(GetParam(), DistributionSpec::SmallDomain(4096), 1);
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
}

TEST_P(AlgorithmSuite, NoOverflowWhenMemoryIsAmple) {
  auto config = small_config(GetParam());
  config.node_hash_memory_bytes = 64 * kMiB;
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.expansions, 0u);
  EXPECT_EQ(run.metrics.extra_build_chunks, 0u);
}

TEST_P(AlgorithmSuite, ThreadRuntimeAgreesWithSimRuntime) {
  const auto config = small_config(GetParam());
  const RunResult sim = run_ehja(config, RuntimeKind::kSim);
  const RunResult thread = run_ehja(config, RuntimeKind::kThread);
  EXPECT_EQ(sim.join(), thread.join());
}

TEST_P(AlgorithmSuite, IntraThreadsAgreeWithOneThread) {
  // 2048-row chunks clear NodeTable's fan-out cutoff (kMinRowsPerLane rows
  // per lane) at 2 and 4 lanes, so builds and probes really run on lanes.
  // With a pool of only the initial nodes every overflow is denied: the
  // nodes switch to spilling, and the lanes serve the spilling store.
  const auto sorted_rows = [](const RunResult& run) {
    std::vector<Tuple> rows = run.metrics.output_rows;
    std::sort(rows.begin(), rows.end(), [](const Tuple& a, const Tuple& b) {
      return a.id != b.id ? a.id < b.id : a.key < b.key;
    });
    return rows;
  };
  const auto spilled = [](const RunResult& run) {
    std::uint64_t tuples = 0;
    for (const NodeMetrics& node : run.metrics.nodes) {
      tuples += node.spilled_build_tuples;
    }
    return tuples;
  };
  for (const std::uint32_t pool : {24u, 4u}) {
    auto config = small_config(GetParam());
    config.join_pool_nodes = pool;
    config.chunk_tuples = 2048;
    config.generation_slice_tuples = 2048;
    config.capture_output = true;
    const JoinResult expected = reference_join(config);
    for (const RuntimeKind kind : {RuntimeKind::kSim, RuntimeKind::kThread}) {
      config.intra_threads = 1;
      const RunResult one = run_ehja(config, kind);
      const std::vector<Tuple> want = sorted_rows(one);
      if (pool == config.initial_join_nodes) {
        EXPECT_GT(spilled(one), 0u);
      }
      for (const std::uint32_t threads : {2u, 4u}) {
        SCOPED_TRACE(::testing::Message()
                     << "pool " << pool << ", runtime "
                     << static_cast<int>(kind) << ", intra_threads "
                     << threads);
        config.intra_threads = threads;
        const RunResult run = run_ehja(config, kind);
        EXPECT_EQ(run.join(), expected);
        EXPECT_EQ(sorted_rows(run), want);
        if (kind == RuntimeKind::kSim) {
          EXPECT_EQ(run.metrics.total_time(), one.metrics.total_time());
          EXPECT_EQ(run.metrics.expansions, one.metrics.expansions);
          EXPECT_EQ(spilled(run), spilled(one));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, AlgorithmSuite,
    ::testing::Values(Algorithm::kSplit, Algorithm::kReplicate,
                      Algorithm::kHybrid, Algorithm::kOutOfCore,
                      Algorithm::kAdaptive),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      switch (info.param) {
        case Algorithm::kSplit: return "Split";
        case Algorithm::kReplicate: return "Replicated";
        case Algorithm::kHybrid: return "Hybrid";
        case Algorithm::kOutOfCore: return "OutOfCore";
        case Algorithm::kAdaptive: return "Adaptive";
      }
      return "Unknown";
    });

// ------------------------------------------------ behaviour under overflow

TEST(IntegrationTest, ExpandingAlgorithmsRecruitNodes) {
  for (const Algorithm algorithm :
       {Algorithm::kSplit, Algorithm::kReplicate, Algorithm::kHybrid}) {
    const RunResult run = run_ehja(small_config(algorithm));
    EXPECT_GT(run.metrics.expansions, 0u) << algorithm_name(algorithm);
    EXPECT_GT(run.metrics.final_join_nodes, run.metrics.initial_join_nodes);
  }
}

TEST(IntegrationTest, OutOfCoreNeverExpands) {
  const RunResult run = run_ehja(small_config(Algorithm::kOutOfCore));
  EXPECT_EQ(run.metrics.expansions, 0u);
  EXPECT_EQ(run.metrics.final_join_nodes, run.metrics.initial_join_nodes);
  // It must have spilled instead.
  std::uint64_t spilled = 0;
  for (const auto& node : run.metrics.nodes) {
    spilled += node.spilled_build_tuples;
  }
  EXPECT_GT(spilled, 0u);
}

TEST(IntegrationTest, SplitHasNoProbeDuplication) {
  const auto config = small_config(Algorithm::kSplit);
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.metrics.probe_tuples_total, config.probe_rel.tuple_count);
}

TEST(IntegrationTest, ReplicationDuplicatesProbeTuples) {
  const auto config = small_config(Algorithm::kReplicate);
  const RunResult run = run_ehja(config);
  ASSERT_GT(run.metrics.expansions, 0u);
  EXPECT_GT(run.metrics.probe_tuples_total, config.probe_rel.tuple_count);
}

TEST(IntegrationTest, HybridReshuffleRestoresSingleOwnership) {
  const auto config = small_config(Algorithm::kHybrid);
  const RunResult run = run_ehja(config);
  ASSERT_GT(run.metrics.expansions, 0u);
  // After the reshuffle, each probe tuple goes to exactly one node.
  EXPECT_EQ(run.metrics.probe_tuples_total, config.probe_rel.tuple_count);
  EXPECT_GT(run.metrics.reshuffle_time(), 0.0);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  const auto config = small_config(Algorithm::kHybrid);
  const RunResult a = run_ehja(config);
  const RunResult b = run_ehja(config);
  EXPECT_EQ(a.metrics.t_complete, b.metrics.t_complete);
  EXPECT_EQ(a.metrics.extra_build_chunks, b.metrics.extra_build_chunks);
  EXPECT_EQ(a.join(), b.join());
}

TEST(IntegrationTest, BuildTuplesConserved) {
  for (const Algorithm algorithm :
       {Algorithm::kSplit, Algorithm::kReplicate, Algorithm::kHybrid,
        Algorithm::kOutOfCore}) {
    const auto config = small_config(algorithm);
    const RunResult run = run_ehja(config);
    EXPECT_EQ(run.metrics.build_tuples_total, config.build_rel.tuple_count)
        << algorithm_name(algorithm);
  }
}

TEST(IntegrationTest, PhaseTimelineIsOrdered) {
  const RunResult run = run_ehja(small_config(Algorithm::kHybrid));
  const auto& m = run.metrics;
  EXPECT_LE(m.t_start, m.t_build_end);
  EXPECT_LE(m.t_build_end, m.t_reshuffle_end);
  EXPECT_LE(m.t_reshuffle_end, m.t_probe_end);
  EXPECT_LE(m.t_probe_end, m.t_complete);
  EXPECT_GT(m.total_time(), 0.0);
}

TEST(IntegrationTest, BalancedInitialPartitionStaysCorrect) {
  auto config = small_config(Algorithm::kHybrid,
                             DistributionSpec::Gaussian(0.5, 2e-3));
  config.balanced_initial_partition = true;
  config.partition_sample = 20'000;
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
}

TEST(IntegrationTest, BalancedInitialPartitionReducesExpansionsUnderSkew) {
  auto config = small_config(Algorithm::kReplicate,
                             DistributionSpec::Gaussian(0.5, 2e-3));
  const RunResult equal_width = run_ehja(config);
  config.balanced_initial_partition = true;
  config.partition_sample = 20'000;
  const RunResult balanced = run_ehja(config);
  EXPECT_EQ(balanced.join(), equal_width.join());
  // A skew-aware start needs fewer (or equal) runtime expansions.
  EXPECT_LE(balanced.metrics.expansions, equal_width.metrics.expansions);
  // And the initial load imbalance shrinks measurably.
  EXPECT_GT(equal_width.metrics.expansions, 0u);
}

TEST(IntegrationTest, BalancedInitialPartitionWorksForAllAlgorithms) {
  for (const Algorithm algorithm :
       {Algorithm::kSplit, Algorithm::kReplicate, Algorithm::kHybrid,
        Algorithm::kOutOfCore}) {
    auto config = small_config(algorithm, DistributionSpec::Zipf(1.1, 2000));
    config.balanced_initial_partition = true;
    config.partition_sample = 10'000;
    const RunResult run = run_ehja(config);
    EXPECT_EQ(run.join(), reference_join(config)) << algorithm_name(algorithm);
  }
}

// ------------------------------------------------- adaptive (kAdaptive)

TEST(AdaptiveTest, AgreesWithOtherAlgorithmsOnSkewedWorkload) {
  // Skewed, duplicate-key workload: kAdaptive must produce exactly the
  // oracle's (and hence every other EHJA's) matches and checksum no matter
  // which expansion strategy it picks at each overflow.
  const auto config = small_config(Algorithm::kAdaptive,
                                   DistributionSpec::Zipf(1.1, 2000));
  const JoinResult expected = reference_join(config);
  ASSERT_GT(expected.matches, 0u);
  const RunResult adaptive = run_ehja(config);
  EXPECT_EQ(adaptive.join(), expected);

  auto hybrid_config = config;
  hybrid_config.algorithm = Algorithm::kHybrid;
  const RunResult hybrid = run_ehja(hybrid_config);
  EXPECT_EQ(adaptive.join(), hybrid.join());

  // Every expansion was an explicit split-vs-replicate decision.
  EXPECT_GT(adaptive.metrics.expansions, 0u);
  EXPECT_EQ(adaptive.metrics.adaptive_splits + adaptive.metrics.adaptive_replicas,
            adaptive.metrics.expansions);
}

TEST(AdaptiveTest, ExercisesBothDecisionBranches) {
  // Gaussian build skew with a small probe side: the hot node's first
  // overflows carry a large share of the observed build (split wins), the
  // later ones a small share against a cheap broadcast (replicate wins).
  EhjaConfig config;
  config.algorithm = Algorithm::kAdaptive;
  config.build_rel.tuple_count = 200'000;
  config.probe_rel.tuple_count = 20'000;
  config.build_rel.dist = DistributionSpec::Gaussian(0.25, 0.08);
  config.probe_rel.dist = DistributionSpec::Gaussian(0.25, 0.08);
  config.node_hash_memory_bytes =
      static_cast<std::uint64_t>(80.0 * kMiB / 50.0);
  config.chunk_tuples = 2'000;
  config.generation_slice_tuples = 2'000;

  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_GT(run.metrics.adaptive_splits, 0u);
  EXPECT_GT(run.metrics.adaptive_replicas, 0u);
  EXPECT_EQ(run.metrics.adaptive_splits + run.metrics.adaptive_replicas,
            run.metrics.expansions);
  EXPECT_GT(run.metrics.final_join_nodes, run.metrics.initial_join_nodes);
}

TEST(IntegrationTest, AsymmetricRelationSizes) {
  auto config = small_config(Algorithm::kReplicate);
  config.build_rel.tuple_count = 5'000;
  config.probe_rel.tuple_count = 40'000;
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
}

TEST(IntegrationTest, LargerRelationBuildsHashTable) {
  // The paper's Fig. 8 scenario: the build side is the big one.
  auto config = small_config(Algorithm::kReplicate);
  config.build_rel.tuple_count = 40'000;
  config.probe_rel.tuple_count = 5'000;
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_GT(run.metrics.expansions, 0u);
}

}  // namespace
}  // namespace ehja
