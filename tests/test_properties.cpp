// Parameterized property suites over the full protocol: correctness and
// structural invariants swept across (algorithm x distribution x initial
// nodes x sources x chunk size).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <tuple>
#include <type_traits>

#include "core/driver.hpp"
#include "core/pipeline.hpp"
#include "util/units.hpp"

namespace ehja {
namespace {

struct SweepParam {
  Algorithm algorithm;
  DistKind dist;
  std::uint32_t initial_nodes;
  std::uint32_t sources;
};

DistributionSpec make_dist(DistKind kind) {
  switch (kind) {
    case DistKind::kUniform: return DistributionSpec::Uniform();
    case DistKind::kGaussian: return DistributionSpec::Gaussian(0.5, 2e-4);
    case DistKind::kZipf: return DistributionSpec::Zipf(1.1, 1000);
    case DistKind::kSmallDomain: return DistributionSpec::SmallDomain(2048);
  }
  return DistributionSpec::Uniform();
}

EhjaConfig sweep_config(const SweepParam& p) {
  EhjaConfig config;
  config.algorithm = p.algorithm;
  config.initial_join_nodes = p.initial_nodes;
  config.join_pool_nodes = 20;
  config.data_sources = p.sources;
  config.build_rel.tuple_count = 12'000;
  config.probe_rel.tuple_count = 12'000;
  config.build_rel.dist = make_dist(p.dist);
  config.probe_rel.dist = make_dist(p.dist);
  config.chunk_tuples = 400;
  config.generation_slice_tuples = 400;
  config.node_hash_memory_bytes =
      1500 * tuple_footprint(config.build_rel.schema);
  return config;
}

class ProtocolSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ProtocolSweep, JoinResultMatchesOracle) {
  const auto config = sweep_config(GetParam());
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
}

TEST_P(ProtocolSweep, StructuralInvariants) {
  const auto config = sweep_config(GetParam());
  const RunResult run = run_ehja(config);
  const auto& m = run.metrics;

  // Every build tuple is stored exactly once.
  EXPECT_EQ(m.build_tuples_total, config.build_rel.tuple_count);
  // Expansion count matches the node ledger.
  EXPECT_EQ(m.final_join_nodes, m.initial_join_nodes + m.expansions);
  EXPECT_EQ(m.nodes.size(), m.final_join_nodes);
  // Node-to-node traffic is the sum of per-node forward counters.
  std::uint64_t forwarded = 0;
  for (const auto& node : m.nodes) forwarded += node.chunks_forwarded;
  EXPECT_EQ(forwarded, m.extra_build_chunks);
  // Non-expanding runs introduce no extra communication.
  if (m.expansions == 0 && config.algorithm != Algorithm::kOutOfCore) {
    EXPECT_EQ(m.extra_build_chunks, 0u);
  }
  // Only the split algorithm accumulates split time; only expanding
  // replication-family runs accumulate handoff time.
  if (config.algorithm == Algorithm::kSplit) {
    EXPECT_DOUBLE_EQ(m.expand_time, 0.0);
  } else {
    EXPECT_DOUBLE_EQ(m.split_time, 0.0);
  }
  // Probe conservation: split/hybrid/OOC route each probe tuple once.
  if (config.algorithm != Algorithm::kReplicate) {
    EXPECT_EQ(m.probe_tuples_total, config.probe_rel.tuple_count);
  } else {
    EXPECT_GE(m.probe_tuples_total, config.probe_rel.tuple_count);
  }
}

std::string sweep_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name = algorithm_name(info.param.algorithm);
  name += "_";
  switch (info.param.dist) {
    case DistKind::kUniform: name += "uniform"; break;
    case DistKind::kGaussian: name += "gaussian"; break;
    case DistKind::kZipf: name += "zipf"; break;
    case DistKind::kSmallDomain: name += "smalldomain"; break;
  }
  name += "_j" + std::to_string(info.param.initial_nodes);
  name += "_s" + std::to_string(info.param.sources);
  // gtest names must be alphanumeric.
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmByDistribution, ProtocolSweep,
    ::testing::Values(
        SweepParam{Algorithm::kSplit, DistKind::kUniform, 4, 2},
        SweepParam{Algorithm::kSplit, DistKind::kGaussian, 4, 2},
        SweepParam{Algorithm::kSplit, DistKind::kZipf, 4, 2},
        SweepParam{Algorithm::kSplit, DistKind::kSmallDomain, 4, 2},
        SweepParam{Algorithm::kReplicate, DistKind::kUniform, 4, 2},
        SweepParam{Algorithm::kReplicate, DistKind::kGaussian, 4, 2},
        SweepParam{Algorithm::kReplicate, DistKind::kZipf, 4, 2},
        SweepParam{Algorithm::kReplicate, DistKind::kSmallDomain, 4, 2},
        SweepParam{Algorithm::kHybrid, DistKind::kUniform, 4, 2},
        SweepParam{Algorithm::kHybrid, DistKind::kGaussian, 4, 2},
        SweepParam{Algorithm::kHybrid, DistKind::kZipf, 4, 2},
        SweepParam{Algorithm::kHybrid, DistKind::kSmallDomain, 4, 2},
        SweepParam{Algorithm::kOutOfCore, DistKind::kUniform, 4, 2},
        SweepParam{Algorithm::kOutOfCore, DistKind::kGaussian, 4, 2},
        SweepParam{Algorithm::kOutOfCore, DistKind::kZipf, 4, 2},
        SweepParam{Algorithm::kOutOfCore, DistKind::kSmallDomain, 4, 2}),
    sweep_name);

INSTANTIATE_TEST_SUITE_P(
    InitialNodeSweep, ProtocolSweep,
    ::testing::Values(
        SweepParam{Algorithm::kSplit, DistKind::kSmallDomain, 1, 2},
        SweepParam{Algorithm::kSplit, DistKind::kSmallDomain, 2, 2},
        SweepParam{Algorithm::kSplit, DistKind::kSmallDomain, 8, 2},
        SweepParam{Algorithm::kReplicate, DistKind::kSmallDomain, 1, 2},
        SweepParam{Algorithm::kReplicate, DistKind::kSmallDomain, 2, 2},
        SweepParam{Algorithm::kReplicate, DistKind::kSmallDomain, 8, 2},
        SweepParam{Algorithm::kHybrid, DistKind::kSmallDomain, 1, 2},
        SweepParam{Algorithm::kHybrid, DistKind::kSmallDomain, 2, 2},
        SweepParam{Algorithm::kHybrid, DistKind::kSmallDomain, 8, 2},
        SweepParam{Algorithm::kOutOfCore, DistKind::kSmallDomain, 1, 2},
        SweepParam{Algorithm::kOutOfCore, DistKind::kSmallDomain, 8, 2}),
    sweep_name);

INSTANTIATE_TEST_SUITE_P(
    SourceCountSweep, ProtocolSweep,
    ::testing::Values(
        SweepParam{Algorithm::kSplit, DistKind::kUniform, 4, 1},
        SweepParam{Algorithm::kSplit, DistKind::kUniform, 4, 6},
        SweepParam{Algorithm::kReplicate, DistKind::kUniform, 4, 1},
        SweepParam{Algorithm::kReplicate, DistKind::kUniform, 4, 6},
        SweepParam{Algorithm::kHybrid, DistKind::kUniform, 4, 1},
        SweepParam{Algorithm::kHybrid, DistKind::kUniform, 4, 6}),
    sweep_name);

// ----------------------------------------------------- chunk-size property

class ChunkSizeSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ChunkSizeSweep, ResultIndependentOfChunkSize) {
  SweepParam p{Algorithm::kHybrid, DistKind::kSmallDomain, 3, 2};
  auto config = sweep_config(p);
  config.chunk_tuples = GetParam();
  const RunResult run = run_ehja(config);
  // The oracle ignores chunking entirely.
  EXPECT_EQ(run.join(), reference_join(config));
}

INSTANTIATE_TEST_SUITE_P(Chunks, ChunkSizeSweep,
                         ::testing::Values(1u, 7u, 100u, 1000u, 50000u));

// --------------------------------------------------- split variant sweep

struct VariantParam {
  SplitVariant variant;
  DistKind dist;
};

class SplitVariantSweep : public ::testing::TestWithParam<VariantParam> {};

TEST_P(SplitVariantSweep, BothVariantsMatchOracle) {
  SweepParam p{Algorithm::kSplit, GetParam().dist, 4, 2};
  auto config = sweep_config(p);
  config.split_variant = GetParam().variant;
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.build_tuples_total, config.build_rel.tuple_count);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SplitVariantSweep,
    ::testing::Values(
        VariantParam{SplitVariant::kRequesterMidpoint, DistKind::kUniform},
        VariantParam{SplitVariant::kRequesterMidpoint, DistKind::kGaussian},
        VariantParam{SplitVariant::kLinearPointer, DistKind::kUniform},
        VariantParam{SplitVariant::kLinearPointer, DistKind::kGaussian},
        VariantParam{SplitVariant::kLinearPointer, DistKind::kSmallDomain}),
    [](const ::testing::TestParamInfo<VariantParam>& info) {
      std::string name =
          info.param.variant == SplitVariant::kRequesterMidpoint
              ? "requester"
              : "pointer";
      switch (info.param.dist) {
        case DistKind::kUniform: name += "_uniform"; break;
        case DistKind::kGaussian: name += "_gaussian"; break;
        case DistKind::kZipf: name += "_zipf"; break;
        case DistKind::kSmallDomain: name += "_smalldomain"; break;
      }
      return name;
    });

TEST(SplitVariantTest, PointerVariantKeepsLitwinInvariant) {
  // The pointer variant must keep at most two bucket widths live; the
  // easiest observable: the final partition map's ranges take at most two
  // distinct widths (modulo the +-1 of integer boundaries) under uniform
  // load.  We check via expansion metrics: runs complete and stay correct;
  // the LinearHashMap unit tests cover the width invariant directly.
  SweepParam p{Algorithm::kSplit, DistKind::kUniform, 2, 2};
  auto config = sweep_config(p);
  config.split_variant = SplitVariant::kLinearPointer;
  const RunResult run = run_ehja(config);
  EXPECT_GT(run.metrics.expansions, 0u);
  EXPECT_EQ(run.join(), reference_join(config));
}

// ------------------------------------------------------ seed determinism

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, EverySeedMatchesItsOracle) {
  SweepParam p{Algorithm::kSplit, DistKind::kSmallDomain, 2, 3};
  auto config = sweep_config(p);
  config.seed = GetParam();
  EXPECT_EQ(run_ehja(config).join(), reference_join(config));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1u, 42u, 1234567u, 0xdeadbeefu));

// ------------------------------------------------- pipeline invariants

// Three invariants over materialized multi-way pipelines, swept across
// (algorithm x stage count): the final cardinality equals the serial
// oracle's count; peak node usage never exceeds the shared global budget;
// and each stage's output checksum equals the next stage's build-input
// checksum (nothing is lost or invented at a hand-off).

// gtest prints a parameter without operator<< as its raw bytes, and those
// bytes end up in the test names. The seven bytes after `algorithm` are
// therefore an explicit zeroed member, not padding: padding would carry
// uninitialised stack bytes into the names, which then change per build.
struct PipelineParam {
  PipelineParam(Algorithm a, std::size_t s) : algorithm(a), stages(s) {}
  Algorithm algorithm;
  std::array<std::uint8_t, 7> zero{};
  std::size_t stages;
};
static_assert(std::has_unique_object_representations_v<PipelineParam>,
              "PipelineParam must have no padding bytes");

PipelinePlan property_plan(const PipelineParam& p) {
  PipelinePlan plan;
  plan.first_build = RelationSpec{RelTag::kR, 5'000, Schema{100},
                                  DistributionSpec::SmallDomain(1536),
                                  nullptr};
  plan.intermediate_tuple_bytes = 200;
  plan.join_pool_nodes = 10;
  plan.data_sources = 2;
  plan.chunk_tuples = 500;
  plan.node_hash_memory_bytes = 1200 * tuple_footprint(Schema{200});
  for (std::size_t k = 0; k < p.stages; ++k) {
    PipelineStage stage;
    stage.probe = RelationSpec{RelTag::kS, 6'000, Schema{100},
                               DistributionSpec::SmallDomain(1536), nullptr};
    stage.algorithm = p.algorithm;
    stage.initial_join_nodes = 2;
    stage.link_dist = DistributionSpec::SmallDomain(2048);
    plan.stages.push_back(stage);
  }
  return plan;
}

class PipelineSweep : public ::testing::TestWithParam<PipelineParam> {};

TEST_P(PipelineSweep, FinalCardinalityEqualsOracleCount) {
  const auto plan = property_plan(GetParam());
  const PipelineResult pipeline = run_pipeline(plan);
  const MultiJoinResult oracle = serial_multi_join(plan);
  EXPECT_EQ(pipeline.final.matches, oracle.final.matches);
  EXPECT_EQ(pipeline.final_rows.size(), oracle.final.matches);
}

TEST_P(PipelineSweep, PeakNodeUsageNeverExceedsGlobalBudget) {
  const auto plan = property_plan(GetParam());
  const PipelineResult pipeline = run_pipeline(plan);
  EXPECT_LE(pipeline.peak_join_nodes, plan.join_pool_nodes);
  for (std::size_t k = 0; k < pipeline.stages.size(); ++k) {
    const StageResult& stage = pipeline.stages[k];
    EXPECT_LE(stage.peak_join_nodes, plan.join_pool_nodes) << "stage " << k;
    if (stage.executed) {
      EXPECT_LE(stage.run.metrics.final_join_nodes, plan.join_pool_nodes)
          << "stage " << k;
    }
  }
}

TEST_P(PipelineSweep, HandoffChecksumsChain) {
  const auto plan = property_plan(GetParam());
  const PipelineResult pipeline = run_pipeline(plan);
  for (std::size_t k = 1; k < pipeline.stages.size(); ++k) {
    EXPECT_EQ(pipeline.stages[k].build_input_checksum,
              pipeline.stages[k - 1].output_checksum)
        << "stage " << k;
    if (pipeline.stages[k].executed) {
      EXPECT_EQ(pipeline.stages[k].run.metrics.build_tuples_total,
                pipeline.stages[k - 1].output_rows)
          << "stage " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmByDepth, PipelineSweep,
    ::testing::Values(PipelineParam{Algorithm::kSplit, 3},
                      PipelineParam{Algorithm::kReplicate, 3},
                      PipelineParam{Algorithm::kHybrid, 2},
                      PipelineParam{Algorithm::kHybrid, 3},
                      PipelineParam{Algorithm::kHybrid, 4},
                      PipelineParam{Algorithm::kOutOfCore, 3},
                      PipelineParam{Algorithm::kAdaptive, 3}),
    [](const ::testing::TestParamInfo<PipelineParam>& info) {
      std::string name = algorithm_name(info.param.algorithm);
      name += "_d" + std::to_string(info.param.stages);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ehja
