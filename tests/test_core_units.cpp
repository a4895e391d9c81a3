// Unit tests for the core module's value types: configuration derivation,
// message payload typing, metrics arithmetic.
#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "core/metrics.hpp"
#include "net/wire_format.hpp"
#include "runtime/message.hpp"
#include "util/units.hpp"

namespace ehja {
namespace {

// ------------------------------------------------------------------ config

TEST(ConfigTest, NodeLayoutIsDisjointAndComplete) {
  EhjaConfig config;
  config.data_sources = 3;
  config.join_pool_nodes = 5;
  EXPECT_EQ(config.total_nodes(), 1u + 3u + 5u);
  EXPECT_EQ(config.scheduler_node(), 0);
  EXPECT_EQ(config.source_node(0), 1);
  EXPECT_EQ(config.source_node(2), 3);
  EXPECT_EQ(config.pool_node(0), 4);
  EXPECT_EQ(config.pool_node(4), 8);
}

TEST(ConfigTest, MakeClusterAppliesKnobs) {
  EhjaConfig config;
  config.node_hash_memory_bytes = 13 * kMiB;
  config.link.latency_sec = 1e-3;
  config.cost.tuple_insert_sec = 42e-9;
  config.disk.seek_sec = 0.5;
  const ClusterSpec spec = make_cluster(config);
  EXPECT_EQ(spec.node_count(), config.total_nodes());
  EXPECT_EQ(spec.node(0).hash_memory_bytes, 13 * kMiB);
  EXPECT_DOUBLE_EQ(spec.link.latency_sec, 1e-3);
  EXPECT_DOUBLE_EQ(spec.cost.tuple_insert_sec, 42e-9);
  EXPECT_DOUBLE_EQ(spec.disk.seek_sec, 0.5);
}

// validate_or_error() is the gate behind every tool's flag parsing (and the
// serve layer's screening of client-submitted configs): nonsensical knob
// combinations must come back as a described error, not surface later as
// undefined runtime behaviour.
TEST(ConfigTest, ValidateRejectsNonsensicalKnobs) {
  const auto error_of = [](const EhjaConfig& c) {
    const auto err = c.validate_or_error();
    return err.value_or("");
  };

  EhjaConfig ok;
  EXPECT_FALSE(ok.validate_or_error().has_value());

  EhjaConfig c = ok;
  c.initial_join_nodes = 0;
  EXPECT_NE(error_of(c).find(">= 1"), std::string::npos);

  c = ok;
  c.initial_join_nodes = c.join_pool_nodes + 1;
  EXPECT_NE(error_of(c).find("exceed the pool"), std::string::npos);

  c = ok;
  c.data_sources = 0;
  EXPECT_NE(error_of(c).find("data sources"), std::string::npos);

  c = ok;
  c.chunk_tuples = 0;
  EXPECT_NE(error_of(c).find("chunk"), std::string::npos);

  // A chunk crosses the socket runtime as one frame: the row bound is the
  // largest chunk whose worst-case body still fits under the frame cap.
  c = ok;
  c.chunk_tuples = static_cast<std::uint32_t>(wire::kMaxFrameRows);
  EXPECT_FALSE(c.validate_or_error().has_value());
  c.chunk_tuples += 1;
  EXPECT_NE(error_of(c).find("one frame"), std::string::npos);

  // A source stages a whole generation slice at once; the wire carries any
  // u32, so a served query must not be able to ask for billions of rows.
  c = ok;
  c.generation_slice_tuples = 0;
  EXPECT_NE(error_of(c).find("generation slice"), std::string::npos);
  c.generation_slice_tuples = static_cast<std::uint32_t>(wire::kMaxFrameRows);
  EXPECT_FALSE(c.validate_or_error().has_value());
  c.generation_slice_tuples += 1;
  EXPECT_NE(error_of(c).find("generation slice"), std::string::npos);

  c = ok;
  c.node_hash_memory_bytes = 1;  // smaller than one tuple footprint
  EXPECT_NE(error_of(c).find("hash memory"), std::string::npos);

  c = ok;
  c.algorithm = Algorithm::kSplit;
  c.split_variant = SplitVariant::kLinearPointer;
  c.balanced_initial_partition = true;
  EXPECT_NE(error_of(c).find("equal initial ranges"), std::string::npos);
}

TEST(ConfigTest, ValidateRejectsBadPhiDetectorKnobs) {
  EhjaConfig ok;
  ok.ft.detector = DetectorKind::kPhiAccrual;
  EXPECT_FALSE(ok.validate_or_error().has_value());

  // The phi knobs are screened whenever the phi detector is *selected*,
  // even without an armed fault plan: --detector=phi --phi-window=0 must be
  // a usage error up front.
  EhjaConfig c = ok;
  c.ft.phi_window = 0;
  ASSERT_TRUE(c.validate_or_error().has_value());
  EXPECT_NE(c.validate_or_error()->find("window"), std::string::npos);

  c = ok;
  c.ft.phi_threshold = 0.0;
  ASSERT_TRUE(c.validate_or_error().has_value());
  EXPECT_NE(c.validate_or_error()->find("threshold"), std::string::npos);

  c = ok;
  c.ft.phi_threshold = -3.0;
  EXPECT_TRUE(c.validate_or_error().has_value());

  // The same bad knobs with the default detector are fine: unused knobs
  // are not screened.
  c = ok;
  c.ft.detector = DetectorKind::kTimeout;
  c.ft.phi_window = 0;
  c.ft.phi_threshold = -1.0;
  EXPECT_FALSE(c.validate_or_error().has_value());
}

TEST(ConfigTest, ValidateRejectsInconsistentFaultTolerance) {
  EhjaConfig c;
  c.ft.force_enabled = true;
  c.ft.heartbeat_interval_sec = 0.0;
  ASSERT_TRUE(c.validate_or_error().has_value());
  EXPECT_NE(c.validate_or_error()->find("heartbeat interval"),
            std::string::npos);

  c = EhjaConfig{};
  c.ft.force_enabled = true;
  c.ft.heartbeat_timeout_sec = c.ft.heartbeat_interval_sec;  // must exceed
  ASSERT_TRUE(c.validate_or_error().has_value());
  EXPECT_NE(c.validate_or_error()->find("timeout"), std::string::npos);

  // A standby scheduler alone is fine: it *implies* the recovery machinery
  // (heartbeats must flow for the standby's own detector to behave).
  c = EhjaConfig{};
  c.ft.standby_scheduler = true;
  EXPECT_FALSE(c.validate_or_error().has_value());
  EXPECT_TRUE(c.recovery_enabled());
}

TEST(ConfigTest, ToStringMentionsAlgorithmAndSizes) {
  EhjaConfig config;
  config.algorithm = Algorithm::kSplit;
  const std::string text = config.to_string();
  EXPECT_NE(text.find("split"), std::string::npos);
  EXPECT_NE(text.find("J=4"), std::string::npos);
}

TEST(ConfigTest, AlgorithmNamesDistinct) {
  EXPECT_STRNE(algorithm_name(Algorithm::kSplit),
               algorithm_name(Algorithm::kReplicate));
  EXPECT_STRNE(algorithm_name(Algorithm::kHybrid),
               algorithm_name(Algorithm::kOutOfCore));
  EXPECT_STRNE(split_variant_name(SplitVariant::kRequesterMidpoint),
               split_variant_name(SplitVariant::kLinearPointer));
}

// ---------------------------------------------------------------- messages

TEST(MessageTest, TypedPayloadRoundTrip) {
  MemoryFullPayload payload;
  payload.footprint_bytes = 1234;
  payload.budget_bytes = 1000;
  const Message msg = make_message(Tag::kMemoryFull, payload, 64);
  EXPECT_EQ(msg.tag, static_cast<int>(Tag::kMemoryFull));
  EXPECT_EQ(msg.wire_bytes, 64u);
  EXPECT_EQ(msg.as<MemoryFullPayload>().footprint_bytes, 1234u);
}

TEST(MessageTest, SignalHasNoPayload) {
  const Message msg = make_signal(Tag::kRelief);
  EXPECT_FALSE(msg.has_payload());
  EXPECT_EQ(msg.wire_bytes, kControlWireBytes);
}

TEST(MessageTest, SharedPayloadAcrossCopies) {
  ChunkPayload payload;
  for (int i = 0; i < 100; ++i) payload.chunk.batch.append(i, i);
  const Message original = make_message(Tag::kDataChunk, std::move(payload),
                                        1000);
  const Message copy = original;  // broadcast-style copy
  EXPECT_EQ(copy.payload.get(), original.payload.get());
  EXPECT_EQ(copy.as<ChunkPayload>().chunk.size(), 100u);
}

TEST(MessageDeathTest, WrongPayloadTypeAborts) {
  const Message msg = make_message(Tag::kMemoryFull, MemoryFullPayload{}, 64);
  EXPECT_DEATH(msg.as<ChunkPayload>(), "type mismatch");
}

TEST(MessageDeathTest, MissingPayloadAborts) {
  const Message msg = make_signal(Tag::kRelief);
  EXPECT_DEATH(msg.as<MemoryFullPayload>(), "no payload");
}

// ----------------------------------------------------------------- metrics

TEST(MetricsTest, PhaseArithmetic) {
  RunMetrics m;
  m.t_start = 1.0;
  m.t_build_end = 5.0;
  m.t_reshuffle_end = 6.5;
  m.t_probe_end = 10.0;
  m.t_complete = 12.0;
  EXPECT_DOUBLE_EQ(m.build_time(), 4.0);
  EXPECT_DOUBLE_EQ(m.reshuffle_time(), 1.5);
  EXPECT_DOUBLE_EQ(m.probe_time(), 3.5);
  EXPECT_DOUBLE_EQ(m.finish_time(), 2.0);
  EXPECT_DOUBLE_EQ(m.total_time(), 11.0);
}

TEST(MetricsTest, LoadChunksDividesByChunkSize) {
  RunMetrics m;
  NodeMetrics a;
  a.build_tuples = 25'000;
  NodeMetrics b;
  b.build_tuples = 5'000;
  m.nodes = {a, b};
  const auto loads = m.load_chunks(10'000);
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_DOUBLE_EQ(loads[0], 2.5);
  EXPECT_DOUBLE_EQ(loads[1], 0.5);
}

TEST(MetricsTest, SummaryMentionsKeyNumbers) {
  RunMetrics m;
  m.t_complete = 42.0;
  m.initial_join_nodes = 4;
  m.final_join_nodes = 9;
  m.join.matches = 777;
  const std::string text = m.summary();
  EXPECT_NE(text.find("4->9"), std::string::npos);
  EXPECT_NE(text.find("777"), std::string::npos);
}

// ------------------------------------------------------------ trace names

TEST(TraceKindTest, AllKindsNamed) {
  for (const TraceKind kind :
       {TraceKind::kPhase, TraceKind::kExpansion, TraceKind::kMemoryFull,
        TraceKind::kSplitOp, TraceKind::kHandoffOp, TraceKind::kReshuffle,
        TraceKind::kSpillSwitch, TraceKind::kMemSample,
        TraceKind::kDrainRound}) {
    EXPECT_STRNE(trace_kind_name(kind), "?");
  }
}

}  // namespace
}  // namespace ehja
