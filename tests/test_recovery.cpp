// Chaos suite for node-failure injection and the failover + source-replay
// recovery protocol (core/recovery.hpp).
//
// The gold standard throughout: no matter when a join node dies -- build,
// reshuffle, or probe; once or twice; with or without spare pool nodes --
// the run must terminate and produce exactly reference_join(config).
// SimRuntime cases double as determinism checks: the same FaultPlan and
// seed must reproduce the identical virtual-time line twice.
#include <gtest/gtest.h>

#include <string>

#include "core/driver.hpp"
#include "core/failure_detector.hpp"
#include "core/pipeline.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace ehja {
namespace {

// Small but not trivial: several chunks per node and a multi-slice build so
// kills land mid-phase, with a memory budget tight enough (~4000 of 30000
// build tuples per node) that the expanding algorithms actually expand and
// replicas/reshuffles exist to be broken.  SmallDomain keys make the join
// output dense: a recovery that loses or duplicates tuples shows up in the
// match count and checksum, not just in storage totals.
EhjaConfig chaos_config(Algorithm algorithm) {
  EhjaConfig config;
  config.algorithm = algorithm;
  config.initial_join_nodes = 3;
  config.join_pool_nodes = 8;
  config.data_sources = 2;
  config.build_rel.tuple_count = 30'000;
  config.probe_rel.tuple_count = 30'000;
  config.build_rel.dist = DistributionSpec::SmallDomain(2048);
  config.probe_rel.dist = DistributionSpec::SmallDomain(2048);
  config.chunk_tuples = 500;
  config.generation_slice_tuples = 500;
  config.node_hash_memory_bytes =
      4000 * tuple_footprint(config.build_rel.schema);
  // This workload's rebuild bursts are milliseconds, so fast heartbeats
  // keep virtual detection latency proportionate (the production defaults
  // are sized for the full paper-scale workload).
  config.ft.heartbeat_interval_sec = 0.025;
  config.ft.heartbeat_timeout_sec = 0.1;
  return config;
}

KillSpec kill_after_chunks(std::uint32_t pool_index, std::uint64_t chunks) {
  KillSpec kill;
  kill.pool_index = pool_index;
  kill.after_chunks = chunks;
  return kill;
}

KillSpec kill_at(std::uint32_t pool_index, double at_time) {
  KillSpec kill;
  kill.pool_index = pool_index;
  kill.at_time = at_time;
  return kill;
}

std::string algo_test_name(const ::testing::TestParamInfo<Algorithm>& info) {
  std::string n = algorithm_name(info.param);
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

void expect_recovered(const RunResult& run, const EhjaConfig& config,
                      std::uint32_t kills) {
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.failures_injected, kills);
  EXPECT_EQ(run.metrics.failures_detected, kills);
  EXPECT_GE(run.metrics.recoveries, 1u);
  EXPECT_GT(run.metrics.detection_latency_total, 0.0);
  EXPECT_GT(run.metrics.recovery_time_total, 0.0);
  EXPECT_GT(run.metrics.replayed_build_tuples, 0u);
}

// ---------------------------------------------------------------------------
// Kill during the build, at a deterministic progress point, every algorithm.

class BuildKillSuite : public ::testing::TestWithParam<Algorithm> {};

TEST_P(BuildKillSuite, DiesMidBuildAndStillMatchesOracle) {
  auto config = chaos_config(GetParam());
  config.faults.kills.push_back(kill_after_chunks(1, 10));
  const RunResult run = run_ehja(config);
  expect_recovered(run, config, 1);
  EXPECT_EQ(run.metrics.build_tuples_total, config.build_rel.tuple_count);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, BuildKillSuite,
                         ::testing::Values(Algorithm::kSplit,
                                           Algorithm::kReplicate,
                                           Algorithm::kHybrid,
                                           Algorithm::kOutOfCore,
                                           Algorithm::kAdaptive),
                         algo_test_name);

// ---------------------------------------------------------------------------
// Kill during the probe.  The kill time comes from a fault-free baseline run
// with the detector armed (force_enabled), so the timeline matches the
// faulty run's exactly up to the injected death.

class ProbeKillSuite : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ProbeKillSuite, DiesMidProbeAndStillMatchesOracle) {
  auto config = chaos_config(GetParam());
  config.ft.force_enabled = true;
  const RunResult baseline = run_ehja(config);
  ASSERT_GT(baseline.metrics.t_probe_end, baseline.metrics.t_reshuffle_end);
  const double mid = 0.5 * (baseline.metrics.t_reshuffle_end +
                            baseline.metrics.t_probe_end);
  config.faults.kills.push_back(kill_at(0, mid));
  const RunResult run = run_ehja(config);
  expect_recovered(run, config, 1);
  // A probe-side death rebuilds the table from R *and* re-sends the lost
  // span of S.
  EXPECT_GT(run.metrics.replayed_probe_tuples, 0u);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ProbeKillSuite,
                         ::testing::Values(Algorithm::kSplit,
                                           Algorithm::kReplicate,
                                           Algorithm::kHybrid,
                                           Algorithm::kOutOfCore,
                                           Algorithm::kAdaptive),
                         algo_test_name);

// ---------------------------------------------------------------------------
// Kill inside hybrid's reshuffle window: the in-flight round is aborted,
// membership shrinks, and the scheduler replans against the survivors.

TEST(RecoveryTest, HybridKilledDuringReshuffle) {
  auto config = chaos_config(Algorithm::kHybrid);
  config.ft.force_enabled = true;
  const RunResult baseline = run_ehja(config);
  ASSERT_GT(baseline.metrics.t_reshuffle_end, baseline.metrics.t_build_end)
      << "baseline did not reshuffle; tighten the memory budget";
  const double mid = 0.5 * (baseline.metrics.t_build_end +
                            baseline.metrics.t_reshuffle_end);
  config.faults.kills.push_back(kill_at(1, mid));
  const RunResult run = run_ehja(config);
  expect_recovered(run, config, 1);
}

// ---------------------------------------------------------------------------
// Two deaths, the second while the first recovery is still in flight (the
// fold path: hulls accumulate, surgery recomputes, the epoch bumps again).

TEST(RecoveryTest, DoubleFailureFoldsIntoOneRecoveryWave) {
  auto config = chaos_config(Algorithm::kReplicate);
  config.faults.kills.push_back(kill_after_chunks(1, 10));
  config.faults.kills.push_back(kill_after_chunks(2, 14));
  const RunResult run = run_ehja(config);
  expect_recovered(run, config, 2);
}

TEST(RecoveryTest, BuildAndProbeDeathsInOneRun) {
  auto config = chaos_config(Algorithm::kHybrid);
  config.ft.force_enabled = true;
  const RunResult baseline = run_ehja(config);
  const double probe_mid = 0.5 * (baseline.metrics.t_reshuffle_end +
                                  baseline.metrics.t_probe_end);
  config.faults.kills.push_back(kill_after_chunks(1, 10));
  config.faults.kills.push_back(kill_at(2, probe_mid));
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.failures_injected, 2u);
  EXPECT_GE(run.metrics.recoveries, 2u);
}

// ---------------------------------------------------------------------------
// No spare pool nodes: the dead node's range must merge into a surviving
// neighbour, which blows its budget and degrades to spilling -- slower, but
// never wrong.

TEST(RecoveryTest, ExhaustedPoolMergesIntoNeighbourAndSpills) {
  auto config = chaos_config(Algorithm::kReplicate);
  config.join_pool_nodes = config.initial_join_nodes;  // no spares
  config.node_hash_memory_bytes =
      12'000 * tuple_footprint(config.build_rel.schema);
  config.faults.kills.push_back(kill_after_chunks(1, 10));
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_GE(run.metrics.recoveries, 1u);
  std::uint64_t spilled = 0;
  for (const auto& node : run.metrics.nodes) {
    spilled += node.spilled_build_tuples;
  }
  EXPECT_GT(spilled, 0u);
}

// Regression (found by RecoveryFuzz iteration 1): a replicate-mode initial
// node dying on its 24th chunk, right at the start of the probe.
TEST(RecoveryTest, EarlyProbeDeathReplicate) {
  auto config = chaos_config(Algorithm::kReplicate);
  config.faults.kills.push_back(kill_after_chunks(2, 24));
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
}

// Regression: a join spawned after a recovery used to start at epoch 0, so
// its reshuffle moves into the rebuilt range were stamped with the old
// epoch and the recruited owner's fence dropped them as stragglers.  The
// kill fires on the first chunk and fast detection ends the recovery early
// in the build; the recruit then overflows, replicas spawned after the
// recovery fill, and the reshuffle ships back into the fenced range.
TEST(RecoveryTest, ReplicaSpawnedAfterRecoveryReshufflesIntoFencedRange) {
  auto config = chaos_config(Algorithm::kHybrid);
  config.join_pool_nodes = 10;
  config.build_rel.tuple_count = 60'000;
  config.node_hash_memory_bytes =
      8000 * tuple_footprint(config.build_rel.schema);
  config.ft.heartbeat_interval_sec = 0.005;
  config.ft.heartbeat_timeout_sec = 0.02;
  config.faults.kills.push_back(kill_after_chunks(1, 1));
  const RunResult run = run_ehja(config);
  expect_recovered(run, config, 1);
  EXPECT_EQ(run.metrics.build_tuples_total, config.build_rel.tuple_count);
  EXPECT_GT(run.metrics.t_reshuffle_end, run.metrics.t_build_end);
}

// ---------------------------------------------------------------------------
// Determinism: the same FaultPlan and seed reproduce the identical
// virtual-time line, bit for bit.

TEST(RecoveryTest, FaultTimelineIsDeterministic) {
  auto config = chaos_config(Algorithm::kHybrid);
  config.faults.kills.push_back(kill_after_chunks(1, 12));
  const RunResult a = run_ehja(config);
  const RunResult b = run_ehja(config);
  EXPECT_EQ(a.metrics.t_build_end, b.metrics.t_build_end);
  EXPECT_EQ(a.metrics.t_reshuffle_end, b.metrics.t_reshuffle_end);
  EXPECT_EQ(a.metrics.t_probe_end, b.metrics.t_probe_end);
  EXPECT_EQ(a.metrics.t_complete, b.metrics.t_complete);
  EXPECT_EQ(a.metrics.detection_latency_total,
            b.metrics.detection_latency_total);
  EXPECT_EQ(a.metrics.recovery_time_total, b.metrics.recovery_time_total);
  EXPECT_EQ(a.metrics.replayed_build_tuples, b.metrics.replayed_build_tuples);
  EXPECT_EQ(a.metrics.replayed_probe_tuples, b.metrics.replayed_probe_tuples);
  EXPECT_EQ(a.metrics.extra_build_chunks, b.metrics.extra_build_chunks);
  EXPECT_EQ(a.join(), b.join());
}

// Fault-free runs with the machinery merely *armed* still match the oracle
// (the heartbeat traffic must not perturb protocol correctness).

TEST(RecoveryTest, ArmedButFaultFreeStillMatchesOracle) {
  auto config = chaos_config(Algorithm::kHybrid);
  config.ft.force_enabled = true;
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.failures_detected, 0u);
  EXPECT_EQ(run.metrics.recoveries, 0u);
}

// ---------------------------------------------------------------------------
// Network faults: per-message jitter and drop-with-redelivery break the
// FIFO assumptions the fault-free protocol leans on; the epoch fences must
// absorb that, with and without a concurrent node death.

TEST(RecoveryTest, JitterAndRedeliveryAloneStayCorrect) {
  auto config = chaos_config(Algorithm::kReplicate);
  config.ft.force_enabled = true;
  config.link.fault_jitter_sec = 200e-6;
  config.link.fault_drop_prob = 0.05;
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
}

TEST(RecoveryTest, NodeDeathUnderJitterAndRedelivery) {
  auto config = chaos_config(Algorithm::kHybrid);
  config.link.fault_jitter_sec = 100e-6;
  config.link.fault_drop_prob = 0.02;
  config.faults.kills.push_back(kill_after_chunks(1, 10));
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_GE(run.metrics.recoveries, 1u);
}

// ---------------------------------------------------------------------------
// Seeded fuzz: random algorithm x victim x progress point.  Every draw must
// match the oracle; the seed makes a failure reproducible from the log.

TEST(RecoveryFuzz, RandomSingleKillsMatchOracle) {
  constexpr Algorithm kAll[] = {Algorithm::kSplit, Algorithm::kReplicate,
                                Algorithm::kHybrid, Algorithm::kOutOfCore,
                                Algorithm::kAdaptive};
  SplitMix64 rng(20040607, /*stream=*/0xfa117);
  for (int i = 0; i < 10; ++i) {
    auto config = chaos_config(kAll[i % 5]);
    const auto victim = static_cast<std::uint32_t>(rng.next_below(3));
    // Up to ~90 chunks: the victim sees ~40 (build + probe), so high draws
    // also cover late-probe deaths and kills that never fire at all.
    const auto chunks = 1 + rng.next_below(90);
    SCOPED_TRACE("iteration " + std::to_string(i) + ": " +
                 algorithm_name(config.algorithm) + ", kill pool node " +
                 std::to_string(victim) + " after " +
                 std::to_string(chunks) + " chunks");
    config.faults.kills.push_back(kill_after_chunks(victim, chunks));
    const RunResult run = run_ehja(config);
    EXPECT_EQ(run.join(), reference_join(config));
    // Every kill that fired must have been detected.
    EXPECT_EQ(run.metrics.failures_detected, run.metrics.failures_injected);
  }
}

// ---------------------------------------------------------------------------
// ThreadRuntime: real threads, wall-clock heartbeats.  Progress-triggered
// kills keep the death deterministic; the ft timeouts are generous so TSan's
// scheduling overhead cannot fake a second failure.

class ThreadChaosSuite : public ::testing::TestWithParam<Algorithm> {};

TEST_P(ThreadChaosSuite, DiesMidBuildOnRealThreads) {
  auto config = chaos_config(GetParam());
  config.build_rel.tuple_count = 12'000;
  config.probe_rel.tuple_count = 12'000;
  config.node_hash_memory_bytes =
      2000 * tuple_footprint(config.build_rel.schema);
  config.ft.heartbeat_interval_sec = 0.05;
  config.ft.heartbeat_timeout_sec = 1.0;
  config.faults.kills.push_back(kill_after_chunks(1, 6));
  const RunResult run = run_ehja(config, RuntimeKind::kThread);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.failures_injected, 1u);
  EXPECT_GE(run.metrics.failures_detected, 1u);
  EXPECT_GE(run.metrics.recoveries, 1u);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, ThreadChaosSuite,
                         ::testing::Values(Algorithm::kSplit,
                                           Algorithm::kReplicate,
                                           Algorithm::kHybrid),
                         algo_test_name);

// ---------------------------------------------------------------------------
// Data-source kills: the dead source's deterministic stream slice is
// reassigned to a pool recruit with the same source index, which replays it
// from position zero under the recovery fence.

KillSpec kill_role_after(KillRole role, std::uint32_t index,
                         std::uint64_t chunks) {
  KillSpec kill;
  kill.role = role;
  kill.pool_index = index;
  kill.after_chunks = chunks;
  return kill;
}

KillSpec kill_role_at(KillRole role, std::uint32_t index, double at_time) {
  KillSpec kill;
  kill.role = role;
  kill.pool_index = index;
  kill.at_time = at_time;
  return kill;
}

class SourceBuildKillSuite : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SourceBuildKillSuite, SourceDiesMidBuildAndStillMatchesOracle) {
  auto config = chaos_config(GetParam());
  // Each source owns 15000 of the 30000 build tuples = 30 chunks; dying
  // before its 10th chunk leaves two thirds of its slice unsent.
  config.faults.kills.push_back(
      kill_role_after(KillRole::kSource, 1, 10));
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.failures_injected, 1u);
  EXPECT_EQ(run.metrics.failures_detected, 1u);
  EXPECT_EQ(run.metrics.source_failures, 1u);
  EXPECT_EQ(run.metrics.join_failures, 0u);
  EXPECT_GE(run.metrics.recoveries, 1u);
  EXPECT_GT(run.metrics.replayed_build_tuples, 0u);
  EXPECT_EQ(run.metrics.build_tuples_total, config.build_rel.tuple_count);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SourceBuildKillSuite,
                         ::testing::Values(Algorithm::kSplit,
                                           Algorithm::kReplicate,
                                           Algorithm::kHybrid,
                                           Algorithm::kOutOfCore,
                                           Algorithm::kAdaptive),
                         algo_test_name);

class SourceProbeKillSuite : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SourceProbeKillSuite, SourceDiesMidProbeAndStillMatchesOracle) {
  auto config = chaos_config(GetParam());
  // Chunk 40 is the source's 10th probe chunk (30 build chunks precede it),
  // so the kill lands mid-probe: the replacement replays the whole build
  // slice, then the probe slice, under the settle drain.
  config.faults.kills.push_back(
      kill_role_after(KillRole::kSource, 0, 40));
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.failures_injected, 1u);
  EXPECT_EQ(run.metrics.source_failures, 1u);
  EXPECT_GE(run.metrics.recoveries, 1u);
  EXPECT_GT(run.metrics.replayed_probe_tuples, 0u);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SourceProbeKillSuite,
                         ::testing::Values(Algorithm::kSplit,
                                           Algorithm::kReplicate,
                                           Algorithm::kHybrid,
                                           Algorithm::kOutOfCore,
                                           Algorithm::kAdaptive),
                         algo_test_name);

TEST(RecoveryTest, SourceKilledDuringReshuffle) {
  auto config = chaos_config(Algorithm::kHybrid);
  config.ft.force_enabled = true;
  const RunResult baseline = run_ehja(config);
  ASSERT_GT(baseline.metrics.t_reshuffle_end, baseline.metrics.t_build_end);
  const double mid = 0.5 * (baseline.metrics.t_build_end +
                            baseline.metrics.t_reshuffle_end);
  // Sources are idle between SourceDone and StartProbe, so this death is
  // detected purely by heartbeat silence while the joins reshuffle.
  config.faults.kills.push_back(kill_role_at(KillRole::kSource, 0, mid));
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.source_failures, 1u);
  EXPECT_GE(run.metrics.recoveries, 1u);
}

// ---------------------------------------------------------------------------
// Scheduler kills: the standby promotes itself, reconciles against the
// workers' handoff acks, wipes in-flight coverage, and finishes the run.

class SchedulerKillSuite : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SchedulerKillSuite, SchedulerDiesMidBuildAndStillMatchesOracle) {
  auto config = chaos_config(GetParam());
  config.ft.standby_scheduler = true;
  // The scheduler's progress trigger counts protocol messages; its 25th
  // arrives early in the build (first heartbeat rounds + expansion traffic).
  config.faults.kills.push_back(
      kill_role_after(KillRole::kScheduler, 0, 25));
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.failures_injected, 1u);
  EXPECT_EQ(run.metrics.scheduler_failovers, 1u);
  EXPECT_GT(run.metrics.detection_latency_total, 0.0);
  EXPECT_EQ(run.metrics.build_tuples_total, config.build_rel.tuple_count);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SchedulerKillSuite,
                         ::testing::Values(Algorithm::kSplit,
                                           Algorithm::kReplicate,
                                           Algorithm::kHybrid,
                                           Algorithm::kOutOfCore,
                                           Algorithm::kAdaptive),
                         algo_test_name);

TEST(RecoveryTest, SchedulerKilledDuringReshuffle) {
  auto config = chaos_config(Algorithm::kHybrid);
  config.ft.standby_scheduler = true;
  const RunResult baseline = run_ehja(config);
  ASSERT_GT(baseline.metrics.t_reshuffle_end, baseline.metrics.t_build_end);
  const double mid = 0.5 * (baseline.metrics.t_build_end +
                            baseline.metrics.t_reshuffle_end);
  config.faults.kills.push_back(kill_role_at(KillRole::kScheduler, 0, mid));
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.scheduler_failovers, 1u);
}

TEST(RecoveryTest, SchedulerKilledDuringProbe) {
  auto config = chaos_config(Algorithm::kReplicate);
  config.ft.standby_scheduler = true;
  const RunResult baseline = run_ehja(config);
  ASSERT_GT(baseline.metrics.t_probe_end, baseline.metrics.t_reshuffle_end);
  const double mid = 0.5 * (baseline.metrics.t_reshuffle_end +
                            baseline.metrics.t_probe_end);
  config.faults.kills.push_back(kill_role_at(KillRole::kScheduler, 0, mid));
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.scheduler_failovers, 1u);
  EXPECT_EQ(run.metrics.probe_tuples_total, config.probe_rel.tuple_count);
}

// ---------------------------------------------------------------------------
// Fuzzed kill point over all three roles: any single process, killed at a
// random progress point, must still produce the oracle's exact result.

TEST(RecoveryFuzz, AnyRoleRandomKillPointMatchesOracle) {
  constexpr Algorithm kAll[] = {Algorithm::kSplit, Algorithm::kReplicate,
                                Algorithm::kHybrid, Algorithm::kOutOfCore,
                                Algorithm::kAdaptive};
  constexpr KillRole kRoles[] = {KillRole::kJoin, KillRole::kSource,
                                 KillRole::kScheduler};
  SplitMix64 rng(20040607, /*stream=*/0x50b07);
  for (int i = 0; i < 12; ++i) {
    auto config = chaos_config(kAll[i % 5]);
    config.ft.standby_scheduler = true;  // scheduler kills need the standby
    const KillRole role = kRoles[i % 3];
    std::uint32_t index = 0;
    std::uint64_t chunks = 0;
    switch (role) {
      case KillRole::kJoin:
        index = static_cast<std::uint32_t>(rng.next_below(3));
        chunks = 1 + rng.next_below(90);
        break;
      case KillRole::kSource:
        index = static_cast<std::uint32_t>(rng.next_below(2));
        chunks = 1 + rng.next_below(60);
        break;
      case KillRole::kScheduler:
        // The scheduler handles hundreds of messages per run; high draws
        // also cover kills that land in late phases or never fire.
        chunks = 1 + rng.next_below(400);
        break;
    }
    SCOPED_TRACE("iteration " + std::to_string(i) + ": " +
                 algorithm_name(config.algorithm) + ", kill " +
                 kill_role_name(role) + "[" + std::to_string(index) +
                 "] at progress point " + std::to_string(chunks));
    config.faults.kills.push_back(kill_role_after(role, index, chunks));
    const RunResult run = run_ehja(config);
    EXPECT_EQ(run.join(), reference_join(config));
    // A busy node can starve a live process of its heartbeat slot, so the
    // detector may fire extra, *false-positive* detections on top of the
    // injected death; those are tallied separately and must reconcile.
    EXPECT_EQ(run.metrics.failures_detected - run.metrics.false_positive_deaths,
              run.metrics.failures_injected);
  }
}

// ---------------------------------------------------------------------------
// Mid-pipeline kills: a join worker dies inside one stage of a 3-stage
// materialized pipeline.  The recovered stage must still hand off exactly
// the right rows, so the whole chain -- not just the wounded stage -- is
// checked against the serial_multi_join oracle.  The build-side kill uses
// the after_chunks trigger; the probe-side kill uses at_time (derived from
// a fault-free baseline), covering both trigger mechanisms.

PipelinePlan chaos_pipeline_plan() {
  PipelinePlan plan;
  plan.first_build = RelationSpec{RelTag::kR, 12'000, Schema{100},
                                  DistributionSpec::SmallDomain(2048),
                                  nullptr};
  plan.intermediate_tuple_bytes = 200;
  plan.join_pool_nodes = 8;
  plan.data_sources = 2;
  plan.chunk_tuples = 500;
  plan.node_hash_memory_bytes = 1500 * tuple_footprint(Schema{200});
  plan.ft.heartbeat_interval_sec = 0.025;
  plan.ft.heartbeat_timeout_sec = 0.1;
  for (std::size_t k = 0; k < 3; ++k) {
    PipelineStage stage;
    stage.probe = RelationSpec{RelTag::kS, 10'000, Schema{100},
                               DistributionSpec::SmallDomain(2048), nullptr};
    stage.algorithm = Algorithm::kHybrid;
    stage.initial_join_nodes = 3;
    stage.link_dist = DistributionSpec::SmallDomain(2048);
    plan.stages.push_back(stage);
  }
  return plan;
}

void expect_pipeline_recovered(const PipelinePlan& plan,
                               const PipelineResult& pipeline,
                               std::size_t wounded_stage) {
  const MultiJoinResult oracle = serial_multi_join(plan);
  EXPECT_EQ(pipeline.final, oracle.final);
  EXPECT_EQ(pipeline.final_rows, oracle.final_rows);
  const RunMetrics& m = pipeline.stages[wounded_stage].run.metrics;
  EXPECT_EQ(m.failures_injected, 1u);
  EXPECT_EQ(m.failures_detected, 1u);
  EXPECT_GE(m.recoveries, 1u);
  // The hand-off chain must survive the recovery intact.
  for (std::size_t k = 1; k < pipeline.stages.size(); ++k) {
    EXPECT_EQ(pipeline.stages[k].build_input_checksum,
              pipeline.stages[k - 1].output_checksum)
        << "stage " << k;
  }
}

TEST(PipelineChaosTest, JoinWorkerDiesMidStage2Build) {
  auto plan = chaos_pipeline_plan();
  // Stage index 1 = the pipeline's second stage; chunk 6 of a multi-slice
  // build lands well inside its build phase.
  plan.stages[1].faults.kills.push_back(kill_after_chunks(1, 6));
  const PipelineResult pipeline = run_pipeline(plan);
  expect_pipeline_recovered(plan, pipeline, 1);
  EXPECT_GT(pipeline.stages[1].run.metrics.replayed_build_tuples, 0u);
}

TEST(PipelineChaosTest, JoinWorkerDiesMidFinalStageProbe) {
  auto plan = chaos_pipeline_plan();
  // Baseline with the detector armed so the faulty run's timeline matches
  // exactly up to the injected death.
  plan.ft.force_enabled = true;
  const PipelineResult baseline = run_pipeline(plan);
  const RunMetrics& base = baseline.stages[2].run.metrics;
  ASSERT_GT(base.t_probe_end, base.t_reshuffle_end);
  const double mid = 0.5 * (base.t_reshuffle_end + base.t_probe_end);
  plan.stages[2].faults.kills.push_back(kill_at(0, mid));
  const PipelineResult pipeline = run_pipeline(plan);
  expect_pipeline_recovered(plan, pipeline, 2);
  EXPECT_GT(pipeline.stages[2].run.metrics.replayed_probe_tuples, 0u);
}

TEST(PipelineChaosTest, KillsInTwoDifferentStagesOfOneRun) {
  auto plan = chaos_pipeline_plan();
  plan.stages[0].faults.kills.push_back(kill_after_chunks(2, 8));
  plan.stages[2].faults.kills.push_back(kill_after_chunks(0, 6));
  const PipelineResult pipeline = run_pipeline(plan);
  const MultiJoinResult oracle = serial_multi_join(plan);
  EXPECT_EQ(pipeline.final, oracle.final);
  EXPECT_EQ(pipeline.final_rows, oracle.final_rows);
  EXPECT_EQ(pipeline.stages[0].run.metrics.failures_injected, 1u);
  EXPECT_EQ(pipeline.stages[2].run.metrics.failures_injected, 1u);
  // The unwounded middle stage must not have seen a failure.
  EXPECT_EQ(pipeline.stages[1].run.metrics.failures_injected, 0u);
}

TEST(PipelineChaosTest, MidStage2KillOnRealThreads) {
  auto plan = chaos_pipeline_plan();
  plan.first_build.tuple_count = 6'000;
  for (auto& stage : plan.stages) stage.probe.tuple_count = 8'000;
  plan.ft.heartbeat_interval_sec = 0.05;
  plan.ft.heartbeat_timeout_sec = 1.0;
  plan.stages[1].faults.kills.push_back(kill_after_chunks(1, 4));
  const PipelineResult pipeline = run_pipeline(plan, RuntimeKind::kThread);
  const MultiJoinResult oracle = serial_multi_join(plan);
  EXPECT_EQ(pipeline.final, oracle.final);
  EXPECT_EQ(pipeline.final_rows, oracle.final_rows);
  EXPECT_EQ(pipeline.stages[1].run.metrics.failures_injected, 1u);
  EXPECT_GE(pipeline.stages[1].run.metrics.recoveries, 1u);
}

// Determinism with a mid-pipeline fault: the same plan and FaultPlan
// reproduce the identical chain, including the wounded stage's timeline.
TEST(PipelineChaosTest, FaultyPipelineIsDeterministic) {
  auto plan = chaos_pipeline_plan();
  plan.stages[1].faults.kills.push_back(kill_after_chunks(1, 6));
  const PipelineResult a = run_pipeline(plan);
  const PipelineResult b = run_pipeline(plan);
  EXPECT_EQ(a.final, b.final);
  EXPECT_EQ(a.final_rows, b.final_rows);
  EXPECT_EQ(a.stages[1].run.metrics.t_complete,
            b.stages[1].run.metrics.t_complete);
  EXPECT_EQ(a.stages[1].run.metrics.replayed_build_tuples,
            b.stages[1].run.metrics.replayed_build_tuples);
}

// ---------------------------------------------------------------------------
// FailureDetector unit tests: the clock book in isolation.

TEST(FailureDetectorTest, SilentActorDeclaredDeadAfterTimeout) {
  FailureDetector detector(/*timeout_sec=*/0.1);
  detector.track(7, 0.0);
  detector.track(9, 0.0);

  auto result = detector.tick(0.05);  // inside the timeout: ping both
  EXPECT_TRUE(result.dead.empty());
  EXPECT_EQ(result.ping, (std::vector<ActorId>{7, 9}));

  detector.heard_from(9, 0.08);
  result = detector.tick(0.15);  // 7 silent for 0.15 > 0.1; 9 for 0.07
  ASSERT_EQ(result.dead.size(), 1u);
  EXPECT_EQ(result.dead[0].actor, 7);
  EXPECT_DOUBLE_EQ(result.dead[0].silence_sec, 0.15);
  EXPECT_EQ(result.ping, (std::vector<ActorId>{9}));
  EXPECT_FALSE(detector.tracking(7));  // declared dead => untracked
  EXPECT_TRUE(detector.tracking(9));
}

TEST(FailureDetectorTest, LatePongCannotResurrectTheDead) {
  FailureDetector detector(0.1);
  detector.track(7, 0.0);
  auto result = detector.tick(0.2);
  ASSERT_EQ(result.dead.size(), 1u);
  detector.heard_from(7, 0.21);  // the zombie pong
  result = detector.tick(0.25);
  EXPECT_TRUE(result.dead.empty());
  EXPECT_TRUE(result.ping.empty());
  EXPECT_FALSE(detector.tracking(7));
}

TEST(FailureDetectorTest, UntrackStopsPinging) {
  FailureDetector detector(0.1);
  detector.track(3, 0.0);
  detector.track(4, 0.0);
  detector.untrack(3);
  const auto result = detector.tick(0.05);
  EXPECT_EQ(result.ping, (std::vector<ActorId>{4}));
  EXPECT_EQ(detector.tracked_count(), 1u);
}

TEST(FailureDetectorTest, ExactTimeoutBoundaryIsStillAlive) {
  FailureDetector detector(0.1);
  detector.track(5, 0.0);
  const auto result = detector.tick(0.1);  // silence == timeout: not yet
  EXPECT_TRUE(result.dead.empty());
  EXPECT_EQ(result.ping, (std::vector<ActorId>{5}));
}

// ---------------------------------------------------------------------------
// Phi-accrual detector: suspicion accrues from the pong inter-arrival
// history, so detection is fast after a regular history and the fixed
// timeout survives only as a hard cap and warm-up fallback.

/// Feed `n` pong samples with a constant 0.1 s gap; returns the last time.
double feed_regular_pongs(FailureDetector& detector, ActorId actor, int n) {
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += 0.1;
    detector.heard_from(actor, t, /*sample=*/true);
  }
  return t;
}

TEST(PhiDetectorTest, RegularHistoryDetectsSilenceFarBelowHardTimeout) {
  FailureDetector detector(DetectorKind::kPhiAccrual, /*timeout_sec=*/5.0,
                           /*phi_threshold=*/4.0);
  detector.track(7, 0.0);
  const double t = feed_regular_pongs(detector, 7, 20);
  // Just past the usual gap: barely suspicious, still alive.
  EXPECT_LT(detector.phi(7, t + 0.11), 4.0);
  EXPECT_TRUE(detector.tick(t + 0.11).dead.empty());
  // Three gaps of silence after a metronomic history: certainty, declared
  // dead after 0.3 s where the fixed rule would have waited 5 s.
  const auto result = detector.tick(t + 0.3);
  ASSERT_EQ(result.dead.size(), 1u);
  EXPECT_EQ(result.dead[0].actor, 7);
  EXPECT_GT(result.dead[0].phi, 4.0);
  EXPECT_DOUBLE_EQ(result.dead[0].silence_sec, 0.3);
}

TEST(PhiDetectorTest, PhiGrowsMonotonicallyWithSilence) {
  FailureDetector detector(DetectorKind::kPhiAccrual, 5.0, 8.0);
  detector.track(7, 0.0);
  const double t = feed_regular_pongs(detector, 7, 20);
  double last = -1.0;
  for (double dt = 0.05; dt <= 0.40; dt += 0.05) {
    const double phi = detector.phi(7, t + dt);
    EXPECT_GE(phi, last) << "phi must not shrink as silence grows";
    last = phi;
  }
  EXPECT_GT(last, 8.0);
}

TEST(PhiDetectorTest, WarmupFallsBackToHardTimeout) {
  FailureDetector detector(DetectorKind::kPhiAccrual, /*timeout_sec=*/0.5,
                           /*phi_threshold=*/1.0);
  detector.track(7, 0.0);
  // Only 3 samples -- far below the minimum window; phi stays disarmed.
  detector.heard_from(7, 0.1, true);
  detector.heard_from(7, 0.2, true);
  detector.heard_from(7, 0.3, true);
  EXPECT_EQ(detector.phi(7, 0.69), 0.0);
  EXPECT_TRUE(detector.tick(0.75).dead.empty());  // silence 0.45 < cap
  const auto result = detector.tick(0.81);        // silence 0.51 > cap
  ASSERT_EQ(result.dead.size(), 1u);
  EXPECT_EQ(result.dead[0].actor, 7);
}

TEST(PhiDetectorTest, RecoveryGuardDoublesTheThreshold) {
  FailureDetector detector(DetectorKind::kPhiAccrual, /*timeout_sec=*/5.0,
                           /*phi_threshold=*/4.0);
  detector.track(7, 0.0);
  const double t = feed_regular_pongs(detector, 7, 20);
  // At this silence phi sits between the plain threshold (4) and the
  // recovery-doubled one (8): a busy rebuilder survives exactly the round
  // that would have killed it outside recovery.
  const double silence = 0.145;
  const double phi = detector.phi(7, t + silence);
  ASSERT_GT(phi, 4.0);
  ASSERT_LT(phi, 8.0);
  EXPECT_TRUE(detector.tick(t + silence, /*recovery_active=*/true)
                  .dead.empty());
  const auto result = detector.tick(t + silence, /*recovery_active=*/false);
  ASSERT_EQ(result.dead.size(), 1u);
  EXPECT_GT(result.dead[0].phi, 4.0);
}

TEST(PhiDetectorTest, HardCapOverridesErraticHistory) {
  FailureDetector detector(DetectorKind::kPhiAccrual, /*timeout_sec=*/0.4,
                           /*phi_threshold=*/50.0);  // phi alone never fires
  detector.track(7, 0.0);
  feed_regular_pongs(detector, 7, 20);
  const double t = 2.0;
  const auto result = detector.tick(t + 0.41);  // way past the cap
  ASSERT_EQ(result.dead.size(), 1u);
  EXPECT_EQ(result.dead[0].actor, 7);
}

// End-to-end: the phi detector drives a full chaos run and the recovery
// still matches the oracle, with detection faster than the timeout rule.
TEST(PhiDetectorTest, PhiDrivenRecoveryMatchesOracle) {
  auto config = chaos_config(Algorithm::kHybrid);
  config.ft.detector = DetectorKind::kPhiAccrual;
  config.ft.phi_threshold = 6.0;
  config.faults.kills.push_back(kill_after_chunks(1, 10));
  const RunResult run = run_ehja(config);
  expect_recovered(run, config, 1);
  // Phi can only accelerate detection below the hard cap; ticks are
  // discrete, so allow a ping interval of quantization past it.
  EXPECT_LE(run.metrics.detection_latency_max,
            config.ft.heartbeat_timeout_sec +
                config.ft.heartbeat_interval_sec);
}

}  // namespace
}  // namespace ehja
