// Behaviour-preservation pins.
//
// The expansion-policy extraction (core/expansion_policy) is supposed to be
// a pure refactor of the scheduler monolith: not just "same join result"
// but the same *event history* -- the same expansions at the same virtual
// times, hence the same recruited-node counts and the same number of extra
// build chunks caused by stale partition maps.  These tests pin the values
// the pre-refactor scheduler produced so that any accidental behaviour
// change in the policy layer (queue ordering, drain gating, map mutation
// order) shows up as a diff instead of silently shifting the simulated
// results the paper figures are built from.
//
// The spill counters and the modeled total time pin the out-of-core side
// the same way: which build and probe tuples a node sent to disk, and how
// many sub-partitions it evicted, are decisions of the spilling store, and
// the time a run takes is what the paper's figures plot.  The pool-exhausted
// inputs end on a denied expansion, so their nodes switch to spilling in
// the middle of the build.
//
// If a deliberate protocol change invalidates a pin, re-derive the values
// with tools/ehja_run and update them alongside the change.
#include <gtest/gtest.h>

#include "core/driver.hpp"
#include "util/units.hpp"

namespace ehja {
namespace {

struct Pin {
  std::uint64_t matches;
  std::uint64_t checksum;
  std::uint32_t expansions;
  std::uint32_t final_nodes;
  std::uint64_t extra_chunks;
  /// Summed over the run's join nodes.
  std::uint64_t spilled_build_tuples;
  std::uint64_t spilled_probe_tuples;
  std::uint64_t spilled_partitions;
  /// Modeled seconds; compared within 1e-9 relative, since a spilling
  /// node may sum a batch's charges in another order than row by row.
  double total_time;
};

void expect_pin(const EhjaConfig& config, const Pin& pin) {
  const RunResult run = run_ehja(config, RuntimeKind::kSim);
  EXPECT_EQ(run.join().matches, pin.matches);
  EXPECT_EQ(run.join().checksum, pin.checksum);
  EXPECT_EQ(run.metrics.expansions, pin.expansions);
  EXPECT_EQ(run.metrics.final_join_nodes, pin.final_nodes);
  EXPECT_EQ(run.metrics.extra_build_chunks, pin.extra_chunks);
  std::uint64_t spilled_build = 0;
  std::uint64_t spilled_probe = 0;
  std::uint64_t spilled_partitions = 0;
  for (const NodeMetrics& node : run.metrics.nodes) {
    spilled_build += node.spilled_build_tuples;
    spilled_probe += node.spilled_probe_tuples;
    spilled_partitions += node.spilled_partitions;
  }
  EXPECT_EQ(spilled_build, pin.spilled_build_tuples);
  EXPECT_EQ(spilled_probe, pin.spilled_probe_tuples);
  EXPECT_EQ(spilled_partitions, pin.spilled_partitions);
  EXPECT_NEAR(run.metrics.total_time(), pin.total_time,
              1e-9 * pin.total_time);
}

/// The paper's base shape scaled by 1/50 (200k x 100 B tuples against a
/// 1/50 memory budget): overflows exactly like the 10 M run but finishes
/// in well under a second.
EhjaConfig scaled_config(Algorithm algorithm) {
  EhjaConfig config;
  config.algorithm = algorithm;
  config.build_rel.tuple_count = 200'000;
  config.probe_rel.tuple_count = 200'000;
  config.node_hash_memory_bytes =
      static_cast<std::uint64_t>(80.0 * kMiB / 50.0);
  config.chunk_tuples = 2'000;
  config.generation_slice_tuples = 2'000;
  return config;
}

/// The scaled shape on a 2^16-value key domain: duplicate keys, so the
/// join produces matches and the checksum pins actual output tuples.
EhjaConfig small_domain_config(Algorithm algorithm) {
  EhjaConfig config = scaled_config(algorithm);
  config.build_rel.dist = DistributionSpec::SmallDomain(1u << 16);
  config.probe_rel.dist = DistributionSpec::SmallDomain(1u << 16);
  return config;
}

/// Six pool nodes: two expansions are granted, the next overflow is
/// denied and that node switches to spilling mid-build.
EhjaConfig pool_exhausted(EhjaConfig config) {
  config.join_pool_nodes = 6;
  return config;
}

// --------------------------------------- scaled uniform (disjoint keys)

TEST(SeedPinScaled, Split) {
  expect_pin(scaled_config(Algorithm::kSplit),
             {0, 0, 12, 16, 107, 0, 0, 0, 0.31072906636363751});
}

TEST(SeedPinScaled, Replicated) {
  expect_pin(scaled_config(Algorithm::kReplicate),
             {0, 0, 9, 13, 51, 0, 0, 0, 0.37077609863636535});
}

TEST(SeedPinScaled, Hybrid) {
  expect_pin(scaled_config(Algorithm::kHybrid),
             {0, 0, 9, 13, 134, 0, 0, 0, 0.32269006572727382});
}

TEST(SeedPinScaled, OutOfCore) {
  expect_pin(scaled_config(Algorithm::kOutOfCore),
             {0, 0, 0, 4, 0, 200'000, 200'000, 64, 1.4719422463870671});
}

// ------------------------------- default config (the paper's 10 M base)

TEST(SeedPinDefault, Split) {
  EhjaConfig config;
  config.algorithm = Algorithm::kSplit;
  expect_pin(config, {0, 0, 12, 16, 550, 0, 0, 0, 13.208426077727349});
}

TEST(SeedPinDefault, Replicated) {
  EhjaConfig config;
  config.algorithm = Algorithm::kReplicate;
  expect_pin(config, {0, 0, 12, 16, 117, 0, 0, 0, 17.801258630454701});
}

TEST(SeedPinDefault, Hybrid) {
  EhjaConfig config;
  config.algorithm = Algorithm::kHybrid;
  expect_pin(config, {0, 0, 12, 16, 895, 0, 0, 0, 15.233959389818242});
}

TEST(SeedPinDefault, OutOfCore) {
  EhjaConfig config;
  config.algorithm = Algorithm::kOutOfCore;
  expect_pin(config, {0, 0, 0, 4, 0, 10'000'000, 10'000'000, 64,
                      51.970254892323695});
}

// -------------------------- small key domain (match-producing checksum)

constexpr std::uint64_t kSmallDomainMatches = 611'188;
constexpr std::uint64_t kSmallDomainChecksum = 0xb5ec07f51d05e4eaull;

TEST(SeedPinSmallDomain, Split) {
  expect_pin(small_domain_config(Algorithm::kSplit),
             {kSmallDomainMatches, kSmallDomainChecksum, 11, 15, 96, 0, 0, 0,
              0.310271875909092});
}

TEST(SeedPinSmallDomain, Replicated) {
  expect_pin(small_domain_config(Algorithm::kReplicate),
             {kSmallDomainMatches, kSmallDomainChecksum, 10, 14, 47, 0, 0, 0,
              0.41661499318182105});
}

TEST(SeedPinSmallDomain, Hybrid) {
  expect_pin(small_domain_config(Algorithm::kHybrid),
             {kSmallDomainMatches, kSmallDomainChecksum, 10, 14, 138, 0, 0, 0,
              0.32445406936363774});
}

TEST(SeedPinSmallDomain, OutOfCore) {
  expect_pin(small_domain_config(Algorithm::kOutOfCore),
             {kSmallDomainMatches, kSmallDomainChecksum, 0, 4, 0, 200'000,
              200'000, 64, 1.5106955937292461});
}

// ------------------- pool exhausted (a denied node spills mid-build)

TEST(SeedPinPoolExhausted, Split) {
  expect_pin(pool_exhausted(scaled_config(Algorithm::kSplit)),
             {0, 0, 2, 6, 20, 126'417, 125'078, 56, 1.1419886531935661});
}

TEST(SeedPinPoolExhausted, Replicated) {
  expect_pin(pool_exhausted(scaled_config(Algorithm::kReplicate)),
             {0, 0, 2, 6, 11, 115'425, 134'359, 43, 1.192311391002423});
}

TEST(SeedPinPoolExhausted, Hybrid) {
  expect_pin(pool_exhausted(scaled_config(Algorithm::kHybrid)),
             {0, 0, 2, 6, 11, 115'425, 134'359, 43, 1.192311391002423});
}

TEST(SeedPinPoolExhausted, Adaptive) {
  expect_pin(pool_exhausted(scaled_config(Algorithm::kAdaptive)),
             {0, 0, 2, 6, 21, 126'393, 124'992, 56, 1.1580112872495116});
}

TEST(SeedPinPoolExhaustedSmallDomain, Split) {
  expect_pin(pool_exhausted(small_domain_config(Algorithm::kSplit)),
             {kSmallDomainMatches, kSmallDomainChecksum, 2, 6, 20, 126'350,
              124'762, 56, 1.1643567300580042});
}

TEST(SeedPinPoolExhaustedSmallDomain, Replicated) {
  expect_pin(pool_exhausted(small_domain_config(Algorithm::kReplicate)),
             {kSmallDomainMatches, kSmallDomainChecksum, 2, 6, 11, 117'462,
              137'336, 44, 1.2188102607573057});
}

TEST(SeedPinPoolExhaustedSmallDomain, Hybrid) {
  expect_pin(pool_exhausted(small_domain_config(Algorithm::kHybrid)),
             {kSmallDomainMatches, kSmallDomainChecksum, 2, 6, 11, 117'462,
              137'336, 44, 1.2188102607573057});
}

TEST(SeedPinPoolExhaustedSmallDomain, Adaptive) {
  expect_pin(pool_exhausted(small_domain_config(Algorithm::kAdaptive)),
             {kSmallDomainMatches, kSmallDomainChecksum, 2, 6, 20, 126'406,
              124'774, 56, 1.1644179800580072});
}

}  // namespace
}  // namespace ehja
