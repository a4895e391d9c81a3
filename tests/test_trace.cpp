// Tests for the tracing subsystem and its integration into a full run.
#include <gtest/gtest.h>

#include <sstream>

#include "core/driver.hpp"
#include "trace/trace.hpp"

namespace ehja {
namespace {

TEST(TraceSinkTest, RecordsInOrder) {
  TraceSink sink;
  sink.emit(1.0, TraceKind::kPhase, 0, 0, "build");
  sink.emit(2.0, TraceKind::kExpansion, 3, 9);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].detail, "build");
  EXPECT_EQ(events[1].a, 3);
  EXPECT_EQ(events[1].b, 9);
}

TEST(TraceSinkTest, OfKindFilters) {
  TraceSink sink;
  sink.emit(1.0, TraceKind::kPhase);
  sink.emit(2.0, TraceKind::kExpansion);
  sink.emit(3.0, TraceKind::kExpansion);
  EXPECT_EQ(sink.of_kind(TraceKind::kExpansion).size(), 2u);
  EXPECT_EQ(sink.of_kind(TraceKind::kSpillSwitch).size(), 0u);
}

TEST(TraceSinkTest, CsvHasHeaderAndRows) {
  TraceSink sink;
  sink.emit(0.5, TraceKind::kMemSample, 7, 4096);
  std::ostringstream os;
  sink.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("time,kind,a,b,detail"), std::string::npos);
  EXPECT_NE(csv.find("mem_sample"), std::string::npos);
  EXPECT_NE(csv.find("4096"), std::string::npos);
}

TEST(TraceSinkTest, ClearEmpties) {
  TraceSink sink;
  sink.emit(1.0, TraceKind::kPhase);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
}

// ------------------------------------------------------- integration trace

EhjaConfig traced_config(Algorithm algorithm, TraceSink* sink) {
  EhjaConfig config;
  config.algorithm = algorithm;
  config.initial_join_nodes = 2;
  config.join_pool_nodes = 12;
  config.data_sources = 2;
  config.build_rel.tuple_count = 15'000;
  config.probe_rel.tuple_count = 15'000;
  config.build_rel.dist = DistributionSpec::SmallDomain(4096);
  config.probe_rel.dist = DistributionSpec::SmallDomain(4096);
  config.chunk_tuples = 500;
  config.generation_slice_tuples = 500;
  config.node_hash_memory_bytes =
      1500 * tuple_footprint(config.build_rel.schema);
  config.trace = sink;
  return config;
}

TEST(TraceIntegrationTest, PhasesAppearInOrder) {
  TraceSink sink;
  run_ehja(traced_config(Algorithm::kHybrid, &sink));
  const auto phases = sink.of_kind(TraceKind::kPhase);
  ASSERT_GE(phases.size(), 4u);
  EXPECT_EQ(phases.front().detail, "build");
  EXPECT_EQ(phases.back().detail, "done");
  for (std::size_t i = 1; i < phases.size(); ++i) {
    EXPECT_LE(phases[i - 1].time, phases[i].time);
  }
}

TEST(TraceIntegrationTest, ExpansionsMatchMetrics) {
  TraceSink sink;
  const RunResult run = run_ehja(traced_config(Algorithm::kReplicate, &sink));
  EXPECT_EQ(sink.of_kind(TraceKind::kExpansion).size(),
            run.metrics.expansions);
  // Every expansion was preceded by a memory-full report.
  EXPECT_GE(sink.of_kind(TraceKind::kMemoryFull).size(),
            run.metrics.expansions > 0 ? 1u : 0u);
}

TEST(TraceIntegrationTest, SplitOpsTracedForSplitAlgorithm) {
  TraceSink sink;
  const RunResult run = run_ehja(traced_config(Algorithm::kSplit, &sink));
  ASSERT_GT(run.metrics.expansions, 0u);
  EXPECT_EQ(sink.of_kind(TraceKind::kSplitOp).size(),
            run.metrics.expansions);
  EXPECT_EQ(sink.of_kind(TraceKind::kHandoffOp).size(), 0u);
}

TEST(TraceIntegrationTest, MemSamplesAreMonotoneInTime) {
  TraceSink sink;
  run_ehja(traced_config(Algorithm::kHybrid, &sink));
  const auto samples = sink.of_kind(TraceKind::kMemSample);
  ASSERT_GT(samples.size(), 0u);
  for (const auto& s : samples) {
    EXPECT_GE(s.b, 0);
  }
}

TEST(TraceIntegrationTest, NoSinkMeansNoCrash) {
  auto config = traced_config(Algorithm::kHybrid, nullptr);
  const RunResult run = run_ehja(config);
  EXPECT_GT(run.join().matches, 0u);
}

}  // namespace
}  // namespace ehja
