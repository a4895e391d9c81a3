// Protocol-level unit tests for JoinProcessActor via the actor harness:
// init/insert/overflow reporting, freeze-and-forward, split migration with
// stale re-routing, reshuffle execution, spill switch, drain acks, final
// report.
#include <gtest/gtest.h>

#include <memory>

#include "actor_harness.hpp"
#include "core/join_process.hpp"
#include "core/messages.hpp"
#include "util/rng.hpp"

namespace ehja {
namespace {

constexpr ActorId kScheduler = 0;

struct Fixture {
  std::shared_ptr<EhjaConfig> config = std::make_shared<EhjaConfig>();
  std::unique_ptr<HarnessRuntime> rt;
  ActorId join = kInvalidActor;
  JoinProcessActor* actor = nullptr;

  explicit Fixture(Algorithm algorithm, std::uint64_t budget_tuples = 1000,
                   std::uint32_t intra_threads = 1) {
    config->algorithm = algorithm;
    config->intra_threads = intra_threads;
    config->data_sources = 1;
    config->chunk_tuples = 100;
    config->node_hash_memory_bytes =
        budget_tuples * tuple_footprint(config->build_rel.schema);
    rt = std::make_unique<HarnessRuntime>(make_cluster(*config));
    struct Null final : Actor {
      void on_message(const Message&) override {}
    };
    rt->spawn(config->scheduler_node(), std::make_unique<Null>());
    auto jp = std::make_unique<JoinProcessActor>(config, kScheduler);
    actor = jp.get();
    join = rt->spawn(config->pool_node(0), std::move(jp));
  }

  void init(PosRange range, JoinRole role = JoinRole::kInitial) {
    JoinInitPayload payload;
    payload.role = role;
    payload.range = range;
    payload.source_count = 1;
    rt->deliver(join, make_message(Tag::kJoinInit, payload, 48));
  }

  Chunk build_chunk(std::uint64_t first_pos, std::size_t n,
                    std::uint64_t id_base = 0) {
    Chunk chunk;
    chunk.rel = RelTag::kR;
    for (std::size_t i = 0; i < n; ++i) {
      chunk.batch.push_back(
          Tuple{id_base + i, (first_pos + i % 64) << (64 - kPositionBits)});
    }
    return chunk;
  }

  void deliver_chunk(Chunk chunk, ActorId from = 5) {
    ChunkPayload payload;
    payload.chunk = std::move(chunk);
    rt->deliver_from(from, join,
                     make_message(Tag::kDataChunk, payload, 1000));
  }
};

TEST(JoinActorTest, InsertsWithinRangeAndCounts) {
  Fixture fx(Algorithm::kHybrid);
  fx.init(PosRange{0, 1024});
  fx.deliver_chunk(fx.build_chunk(10, 50));
  EXPECT_EQ(fx.actor->build_tuples_held(), 50u);
  EXPECT_TRUE(fx.rt->sent_with_tag(Tag::kMemoryFull).empty());
}

TEST(JoinActorTest, OverflowRaisesMemoryFullOnce) {
  Fixture fx(Algorithm::kHybrid, /*budget_tuples=*/100);
  fx.init(PosRange{0, 1024});
  fx.deliver_chunk(fx.build_chunk(0, 80));
  EXPECT_TRUE(fx.rt->sent_with_tag(Tag::kMemoryFull).empty());
  fx.deliver_chunk(fx.build_chunk(64, 80));
  ASSERT_EQ(fx.rt->sent_with_tag(Tag::kMemoryFull).size(), 1u);
  // Still over budget: further chunks must NOT duplicate the request.
  fx.deliver_chunk(fx.build_chunk(128, 80));
  EXPECT_EQ(fx.rt->sent_with_tag(Tag::kMemoryFull).size(), 1u);
  const auto& payload =
      fx.rt->sent_with_tag(Tag::kMemoryFull)[0].msg.as<MemoryFullPayload>();
  EXPECT_GT(payload.footprint_bytes, payload.budget_bytes);
}

TEST(JoinActorTest, ReliefRearmsTheRequest) {
  Fixture fx(Algorithm::kHybrid, 100);
  fx.init(PosRange{0, 1024});
  fx.deliver_chunk(fx.build_chunk(0, 200));
  ASSERT_EQ(fx.rt->sent_with_tag(Tag::kMemoryFull).size(), 1u);
  fx.rt->deliver(fx.join, make_signal(Tag::kRelief));
  fx.deliver_chunk(fx.build_chunk(64, 10));
  EXPECT_EQ(fx.rt->sent_with_tag(Tag::kMemoryFull).size(), 2u);
}

TEST(JoinActorTest, FrozenNodeForwardsBuildChunks) {
  Fixture fx(Algorithm::kReplicate, 100);
  fx.init(PosRange{0, 1024});
  HandoffStartPayload handoff;
  handoff.op_id = 7;
  handoff.target = 42;
  fx.rt->deliver(fx.join, make_message(Tag::kHandoffStart, handoff, 48));
  EXPECT_TRUE(fx.actor->frozen());
  // The op's end marker goes out immediately.
  const auto ends = fx.rt->sent_with_tag(Tag::kForwardEnd);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0].to, 42);
  EXPECT_EQ(ends[0].msg.as<ForwardEndPayload>().op_id, 7u);
  // Subsequent build data is forwarded, not inserted.
  fx.deliver_chunk(fx.build_chunk(0, 30));
  const auto forwarded = fx.rt->sent_with_tag(Tag::kDataChunk);
  ASSERT_EQ(forwarded.size(), 1u);
  EXPECT_EQ(forwarded[0].to, 42);
  EXPECT_EQ(forwarded[0].msg.as<ChunkPayload>().chunk.size(), 30u);
  EXPECT_EQ(fx.actor->build_tuples_held(), 0u);
}

TEST(JoinActorTest, FrozenNodeStillProbes) {
  Fixture fx(Algorithm::kReplicate, 1000);
  fx.init(PosRange{0, 1024});
  Chunk build = fx.build_chunk(10, 20);
  fx.deliver_chunk(build);
  HandoffStartPayload handoff;
  handoff.op_id = 1;
  handoff.target = 42;
  fx.rt->deliver(fx.join, make_message(Tag::kHandoffStart, handoff, 48));
  // Probe with the same keys: matches must come from the frozen table.
  Chunk probe = build;
  probe.rel = RelTag::kS;
  fx.deliver_chunk(probe);
  EXPECT_GT(fx.actor->result().matches, 0u);
}

TEST(JoinActorTest, SplitRequestMigratesUpperHalf) {
  Fixture fx(Algorithm::kSplit, 10'000);
  fx.init(PosRange{0, 1024});
  // 40 tuples in the lower half, 24 in the upper half.
  fx.deliver_chunk(fx.build_chunk(100, 40));
  fx.deliver_chunk(fx.build_chunk(600, 24));
  SplitRequestPayload req;
  req.op_id = 3;
  req.moved = PosRange{512, 1024};
  req.target = 77;
  fx.rt->deliver(fx.join, make_message(Tag::kSplitRequest, req, 48));
  EXPECT_EQ(fx.actor->range(), (PosRange{0, 512}));
  EXPECT_EQ(fx.actor->build_tuples_held(), 40u);
  // Migrated data + the end marker went to the new node.
  std::uint64_t migrated = 0;
  for (const auto& sent : fx.rt->sent_with_tag(Tag::kDataChunk)) {
    ASSERT_EQ(sent.to, 77);
    migrated += sent.msg.as<ChunkPayload>().chunk.size();
  }
  EXPECT_EQ(migrated, 24u);
  const auto ends = fx.rt->sent_with_tag(Tag::kForwardEnd);
  ASSERT_EQ(ends.size(), 1u);
  EXPECT_EQ(ends[0].msg.as<ForwardEndPayload>().op_id, 3u);
}

TEST(JoinActorTest, StaleChunksReRoutedAfterSplit) {
  Fixture fx(Algorithm::kSplit, 10'000);
  fx.init(PosRange{0, 1024});
  SplitRequestPayload req;
  req.op_id = 1;
  req.moved = PosRange{512, 1024};
  req.target = 77;
  fx.rt->deliver(fx.join, make_message(Tag::kSplitRequest, req, 48));
  fx.rt->outbox().clear();
  // A stale source still sends a chunk straddling both halves.
  Chunk mixed;
  mixed.rel = RelTag::kR;
  for (std::uint64_t i = 0; i < 10; ++i) {
    mixed.batch.push_back(Tuple{i, (100 + i) << (64 - kPositionBits)});
    mixed.batch.push_back(Tuple{100 + i, (700 + i) << (64 - kPositionBits)});
  }
  fx.deliver_chunk(std::move(mixed));
  EXPECT_EQ(fx.actor->build_tuples_held(), 10u);  // lower half kept
  const auto forwarded = fx.rt->sent_with_tag(Tag::kDataChunk);
  ASSERT_EQ(forwarded.size(), 1u);
  EXPECT_EQ(forwarded[0].to, 77);
  EXPECT_EQ(forwarded[0].msg.as<ChunkPayload>().chunk.size(), 10u);
}

TEST(JoinActorTest, ReshuffleShipsForeignRangesAndShrinks) {
  Fixture fx(Algorithm::kHybrid, 10'000);
  fx.init(PosRange{0, 1024});
  fx.deliver_chunk(fx.build_chunk(100, 30));  // positions 100..163
  fx.deliver_chunk(fx.build_chunk(800, 20));  // positions 800..863
  // Histogram request unfreezes + disables expansion.
  HistogramRequestPayload hist;
  hist.set_id = 0;
  fx.rt->deliver(fx.join, make_message(Tag::kHistogramRequest, hist, 48));
  const auto replies = fx.rt->sent_with_tag(Tag::kHistogramReply);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].msg.as<HistogramReplyPayload>().histogram.total(),
            50u);
  // Plan: this node keeps [0,512), actor 88 takes [512,1024).
  ReshuffleMovePayload move;
  move.plan = {{PosRange{0, 512}, {fx.join}}, {PosRange{512, 1024}, {88}}};
  fx.rt->deliver(fx.join, make_message(Tag::kReshuffleMove, move, 64));
  EXPECT_EQ(fx.actor->range(), (PosRange{0, 512}));
  EXPECT_EQ(fx.actor->build_tuples_held(), 30u);
  std::uint64_t shipped = 0;
  for (const auto& sent : fx.rt->sent_with_tag(Tag::kDataChunk)) {
    EXPECT_EQ(sent.to, 88);
    shipped += sent.msg.as<ChunkPayload>().chunk.size();
  }
  EXPECT_EQ(shipped, 20u);
  EXPECT_EQ(fx.rt->sent_with_tag(Tag::kReshuffleDone).size(), 1u);
}

TEST(JoinActorTest, SwitchToSpillRehomesTable) {
  Fixture fx(Algorithm::kSplit, 100);
  fx.init(PosRange{0, 1024});
  fx.deliver_chunk(fx.build_chunk(0, 200));
  EXPECT_FALSE(fx.actor->in_spill_mode());
  fx.rt->deliver(fx.join, make_signal(Tag::kSwitchToSpill));
  EXPECT_TRUE(fx.actor->in_spill_mode());
  EXPECT_EQ(fx.actor->build_tuples_held(), 200u);  // conserved
  // Further build chunks keep landing (on disk or in the small table).
  fx.deliver_chunk(fx.build_chunk(300, 50));
  EXPECT_EQ(fx.actor->build_tuples_held(), 250u);
}

TEST(JoinActorTest, SpillModeOnLanesMatchesOneLane) {
  // 1024-row chunks clear NodeTable's fan-out cutoff (256 rows per lane) at
  // two lanes, so the switch's re-home and the spilling store's builds and
  // probes run on lanes.  The node must report what one lane reports.
  const auto chunk = [](RelTag rel, std::uint64_t id_base) {
    Chunk c;
    c.rel = rel;
    SplitMix64 rng(id_base + static_cast<std::uint64_t>(rel));
    for (std::uint64_t i = 0; i < 1024; ++i) {
      const std::uint64_t pos = rng.next_below(4096);
      c.batch.push_back(Tuple{id_base + i, (pos << (64 - kPositionBits)) |
                                               rng.next_below(8)});
    }
    return c;
  };
  struct Outcome {
    NodeReportPayload report;
    std::vector<Tuple> rows;
    double charged = 0.0;
  };
  const auto run = [&](std::uint32_t threads) {
    Fixture fx(Algorithm::kSplit, 3000, threads);
    fx.config->capture_output = true;
    fx.init(PosRange{0, 4096});
    for (std::uint64_t k = 0; k < 4; ++k) {
      fx.deliver_chunk(chunk(RelTag::kR, k * 1024));
    }
    fx.rt->deliver(fx.join, make_signal(Tag::kSwitchToSpill));
    EXPECT_TRUE(fx.actor->in_spill_mode());
    for (std::uint64_t k = 4; k < 8; ++k) {
      fx.deliver_chunk(chunk(RelTag::kR, k * 1024));
    }
    for (std::uint64_t k = 0; k < 4; ++k) {
      fx.deliver_chunk(chunk(RelTag::kS, k * 1024));
    }
    fx.rt->deliver(fx.join, make_signal(Tag::kReportRequest));
    Outcome out;
    const auto reports = fx.rt->sent_with_tag(Tag::kNodeReport);
    EXPECT_EQ(reports.size(), 1u);
    if (!reports.empty()) out.report = reports[0].msg.as<NodeReportPayload>();
    for (const auto& sent : fx.rt->sent_with_tag(Tag::kResultChunk)) {
      const auto& rows = sent.msg.as<ResultChunkPayload>().chunk.batch;
      for (const Tuple& t : rows) out.rows.push_back(t);
    }
    out.charged = fx.rt->charged();
    return out;
  };
  const Outcome one = run(1);
  const Outcome two = run(2);
  EXPECT_GT(one.report.metrics.spilled_partitions, 0u);
  EXPECT_GT(one.report.metrics.matches, 0u);
  EXPECT_EQ(two.report.metrics.build_tuples, one.report.metrics.build_tuples);
  EXPECT_EQ(two.report.metrics.build_tuples, 8u * 1024);
  EXPECT_EQ(two.report.metrics.probe_tuples, one.report.metrics.probe_tuples);
  EXPECT_EQ(two.report.metrics.matches, one.report.metrics.matches);
  EXPECT_EQ(two.report.metrics.spilled_build_tuples,
            one.report.metrics.spilled_build_tuples);
  EXPECT_EQ(two.report.metrics.spilled_probe_tuples,
            one.report.metrics.spilled_probe_tuples);
  EXPECT_EQ(two.report.metrics.spilled_partitions,
            one.report.metrics.spilled_partitions);
  EXPECT_EQ(two.report.metrics.max_overshoot_bytes,
            one.report.metrics.max_overshoot_bytes);
  EXPECT_EQ(two.report.checksum, one.report.checksum);
  EXPECT_EQ(two.report.result_rows, one.report.result_rows);
  EXPECT_EQ(two.rows, one.rows);
  EXPECT_EQ(two.charged, one.charged);
}

TEST(JoinActorTest, DrainAckReportsCounters) {
  Fixture fx(Algorithm::kHybrid, 10'000);
  fx.init(PosRange{0, 1024});
  fx.deliver_chunk(fx.build_chunk(10, 30));
  fx.deliver_chunk(fx.build_chunk(20, 30));
  DrainProbePayload probe;
  probe.epoch = 9;
  fx.rt->deliver(fx.join, make_message(Tag::kDrainProbe, probe, 48));
  const auto acks = fx.rt->sent_with_tag(Tag::kDrainAck);
  ASSERT_EQ(acks.size(), 1u);
  const auto& ack = acks[0].msg.as<DrainAckPayload>();
  EXPECT_EQ(ack.epoch, 9u);
  EXPECT_EQ(ack.data_chunks_received, 2u);
  EXPECT_EQ(ack.data_chunks_forwarded, 0u);
}

TEST(JoinActorTest, FinalReportMatchesState) {
  Fixture fx(Algorithm::kHybrid, 10'000);
  fx.init(PosRange{0, 1024});
  Chunk build = fx.build_chunk(10, 40);
  fx.deliver_chunk(build);
  Chunk probe = build;
  probe.rel = RelTag::kS;
  fx.deliver_chunk(probe);
  fx.rt->deliver(fx.join, make_signal(Tag::kReportRequest));
  const auto reports = fx.rt->sent_with_tag(Tag::kNodeReport);
  ASSERT_EQ(reports.size(), 1u);
  const auto& report = reports[0].msg.as<NodeReportPayload>();
  EXPECT_EQ(report.metrics.build_tuples, 40u);
  EXPECT_EQ(report.metrics.probe_tuples, 40u);
  EXPECT_GT(report.metrics.matches, 0u);
  EXPECT_EQ(report.metrics.chunks_received, 2u);
}

TEST(JoinActorTest, PreInitChunksReplayedAtInit) {
  Fixture fx(Algorithm::kHybrid, 10'000);
  // Chunk arrives BEFORE kJoinInit (thread-runtime race).
  fx.deliver_chunk(fx.build_chunk(10, 25));
  EXPECT_EQ(fx.actor->build_tuples_held(), 0u);
  fx.init(PosRange{0, 1024});
  EXPECT_EQ(fx.actor->build_tuples_held(), 25u);
}

TEST(JoinActorDeathTest, ForeignTupleWithoutForwardEntryAborts) {
  Fixture fx(Algorithm::kSplit, 10'000);
  fx.init(PosRange{0, 512});
  Chunk wrong;
  wrong.rel = RelTag::kR;
  wrong.batch.push_back(Tuple{1, std::uint64_t{900} << (64 - kPositionBits)});
  ChunkPayload payload;
  payload.chunk = std::move(wrong);
  EXPECT_DEATH(fx.rt->deliver_from(
                   5, fx.join, make_message(Tag::kDataChunk, payload, 100)),
               "never owned");
}

}  // namespace
}  // namespace ehja
