// Protocol-level unit tests for SchedulerActor via the actor harness:
// bootstrap, expansion serialization (the barrier), pool exhaustion,
// drain-round stability rules, reshuffle orchestration, final aggregation.
#include <gtest/gtest.h>

#include <memory>

#include "actor_harness.hpp"
#include "core/scheduler.hpp"

namespace ehja {
namespace {

struct Fixture {
  std::shared_ptr<EhjaConfig> config = std::make_shared<EhjaConfig>();
  std::unique_ptr<HarnessRuntime> rt;
  SchedulerActor* scheduler = nullptr;
  ActorId sched_id = kInvalidActor;
  std::vector<ActorId> sources;
  std::vector<ActorId> joins;
  std::vector<NodeId> spawned_join_nodes;

  struct Null final : Actor {
    void on_message(const Message&) override {}
  };

  explicit Fixture(Algorithm algorithm, std::uint32_t initial = 2,
                   std::uint32_t pool = 6) {
    config->algorithm = algorithm;
    config->initial_join_nodes = initial;
    config->join_pool_nodes = pool;
    config->data_sources = 2;
    rt = std::make_unique<HarnessRuntime>(make_cluster(*config));

    auto spawn_join = [this](NodeId node) {
      spawned_join_nodes.push_back(node);
      return rt->spawn(node, std::make_unique<Null>());
    };
    auto sched = std::make_unique<SchedulerActor>(config, spawn_join);
    scheduler = sched.get();
    sched_id = rt->spawn(config->scheduler_node(), std::move(sched));
    for (std::uint32_t i = 0; i < config->data_sources; ++i) {
      sources.push_back(
          rt->spawn(config->source_node(i), std::make_unique<Null>()));
    }
    for (std::uint32_t j = 0; j < initial; ++j) {
      joins.push_back(
          rt->spawn(config->pool_node(j), std::make_unique<Null>()));
    }
    std::vector<NodeId> potential;
    for (std::uint32_t j = initial; j < pool; ++j) {
      potential.push_back(config->pool_node(j));
    }
    scheduler->wire(sources, joins,
                    ResourcePool(rt->cluster(), potential,
                                 config->pick_policy));
    rt->start(sched_id);
  }

  void memory_full(ActorId from) {
    MemoryFullPayload payload;
    payload.footprint_bytes = 2 * config->node_hash_memory_bytes;
    payload.budget_bytes = config->node_hash_memory_bytes;
    rt->deliver_from(from, sched_id,
                     make_message(Tag::kMemoryFull, payload, 48));
  }

  void op_complete(std::uint64_t op_id) {
    OpCompletePayload payload;
    payload.op_id = op_id;
    rt->deliver_from(joins.back(), sched_id,
                     make_message(Tag::kOpComplete, payload, 48));
  }
};

TEST(SchedulerTest, BootstrapSendsInitsAndStartBuild) {
  Fixture fx(Algorithm::kHybrid);
  EXPECT_EQ(fx.rt->sent_with_tag(Tag::kJoinInit).size(), 2u);
  const auto starts = fx.rt->sent_with_tag(Tag::kStartBuild);
  ASSERT_EQ(starts.size(), 2u);
  // The initial map covers the space with one entry per initial node.
  const auto& map = starts[0].msg.as<StartBuildPayload>().map;
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.entries()[0].active_owner(), fx.joins[0]);
}

TEST(SchedulerTest, ExpansionSpawnsInitsAndBroadcasts) {
  Fixture fx(Algorithm::kReplicate);
  fx.rt->outbox().clear();
  fx.memory_full(fx.joins[0]);
  // One fresh join spawned on a pool node.
  ASSERT_EQ(fx.spawned_join_nodes.size(), 1u);
  EXPECT_EQ(fx.rt->sent_with_tag(Tag::kJoinInit).size(), 1u);
  EXPECT_EQ(fx.rt->sent_with_tag(Tag::kHandoffStart).size(), 1u);
  // Sources told about the new owner.
  EXPECT_EQ(fx.rt->sent_with_tag(Tag::kMapUpdate).size(), 2u);
  const auto& update =
      fx.rt->sent_with_tag(Tag::kMapUpdate)[0].msg.as<MapUpdatePayload>();
  EXPECT_EQ(update.map.entries()[0].owners.size(), 2u);
}

TEST(SchedulerTest, BarrierSerializesExpansions) {
  Fixture fx(Algorithm::kReplicate);
  fx.rt->outbox().clear();
  fx.memory_full(fx.joins[0]);
  fx.memory_full(fx.joins[1]);  // queued behind the in-flight op
  EXPECT_EQ(fx.rt->sent_with_tag(Tag::kHandoffStart).size(), 1u);
  // Completing op 1 releases the barrier and starts op 2.
  fx.op_complete(1);
  EXPECT_EQ(fx.rt->sent_with_tag(Tag::kHandoffStart).size(), 2u);
  // The first requester got its relief.
  const auto reliefs = fx.rt->sent_with_tag(Tag::kRelief);
  ASSERT_EQ(reliefs.size(), 1u);
  EXPECT_EQ(reliefs[0].to, fx.joins[0]);
}

TEST(SchedulerTest, DuplicateRequestsDeduplicated) {
  Fixture fx(Algorithm::kReplicate);
  fx.rt->outbox().clear();
  fx.memory_full(fx.joins[0]);
  fx.memory_full(fx.joins[0]);  // same node again while queued: dropped
  fx.op_complete(1);
  // Only the one op for join 0; no second handoff for the duplicate.
  EXPECT_EQ(fx.rt->sent_with_tag(Tag::kHandoffStart).size(), 1u);
}

TEST(SchedulerTest, PoolExhaustionSwitchesRequestersToSpill) {
  Fixture fx(Algorithm::kReplicate, /*initial=*/2, /*pool=*/3);
  fx.rt->outbox().clear();
  fx.memory_full(fx.joins[0]);  // takes the only potential node
  fx.op_complete(1);
  fx.memory_full(fx.joins[1]);  // nothing left
  const auto spills = fx.rt->sent_with_tag(Tag::kSwitchToSpill);
  ASSERT_EQ(spills.size(), 1u);
  EXPECT_EQ(spills[0].to, fx.joins[1]);
  // Later requests short-circuit straight to spill.
  fx.memory_full(fx.joins[0]);
  EXPECT_EQ(fx.rt->sent_with_tag(Tag::kSwitchToSpill).size(), 2u);
}

TEST(SchedulerTest, SplitTargetsRequesterRangeByDefault) {
  Fixture fx(Algorithm::kSplit);
  fx.rt->outbox().clear();
  fx.memory_full(fx.joins[1]);  // owner of the UPPER half
  const auto reqs = fx.rt->sent_with_tag(Tag::kSplitRequest);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0].to, fx.joins[1]);
  const auto& req = reqs[0].msg.as<SplitRequestPayload>();
  // The requester's range [H/2, H) halves at 3H/4.
  EXPECT_EQ(req.moved.lo, kPositionCount / 2 + kPositionCount / 4);
  EXPECT_EQ(req.moved.hi, kPositionCount);
}

TEST(SchedulerTest, PointerVariantSplitsAtThePointer) {
  // Dedicated fixture whose config selects the Litwin pointer variant
  // before the scheduler starts.
  std::shared_ptr<EhjaConfig> config = std::make_shared<EhjaConfig>();
  config->algorithm = Algorithm::kSplit;
  config->split_variant = SplitVariant::kLinearPointer;
  config->initial_join_nodes = 2;
  config->join_pool_nodes = 6;
  config->data_sources = 1;
  HarnessRuntime rt(make_cluster(*config));
  struct Null final : Actor {
    void on_message(const Message&) override {}
  };
  std::vector<ActorId> joins;
  auto spawn_join = [&rt](NodeId node) {
    return rt.spawn(node, std::make_unique<Null>());
  };
  auto sched = std::make_unique<SchedulerActor>(config, spawn_join);
  SchedulerActor* scheduler = sched.get();
  const ActorId sched_id = rt.spawn(0, std::move(sched));
  const ActorId source = rt.spawn(config->source_node(0),
                                  std::make_unique<Null>());
  joins.push_back(rt.spawn(config->pool_node(0), std::make_unique<Null>()));
  joins.push_back(rt.spawn(config->pool_node(1), std::make_unique<Null>()));
  std::vector<NodeId> potential;
  for (std::uint32_t j = 2; j < 6; ++j) potential.push_back(config->pool_node(j));
  scheduler->wire({source}, joins,
                  ResourcePool(rt.cluster(), potential, config->pick_policy));
  rt.start(sched_id);
  rt.outbox().clear();

  MemoryFullPayload full;
  full.footprint_bytes = 2;
  full.budget_bytes = 1;
  Message msg = make_message(Tag::kMemoryFull, full, 48);
  msg.from = joins[1];  // the UPPER-half owner overflows...
  rt.actor(sched_id).on_message(msg);
  const auto reqs = rt.sent_with_tag(Tag::kSplitRequest);
  ASSERT_EQ(reqs.size(), 1u);
  // ...but the split goes to the bucket at the pointer: bucket 0.
  EXPECT_EQ(reqs[0].to, joins[0]);
  const auto& req = reqs[0].msg.as<SplitRequestPayload>();
  EXPECT_EQ(req.moved.lo, kPositionCount / 4);
  EXPECT_EQ(req.moved.hi, kPositionCount / 2);
}

TEST(SchedulerTest, DrainRequiresTwoStableRounds) {
  Fixture fx(Algorithm::kOutOfCore);
  fx.rt->outbox().clear();
  // Both sources finish the build with 3 chunks each.
  for (ActorId source : fx.sources) {
    SourceDonePayload done;
    done.rel = RelTag::kR;
    done.chunks_sent = 3;
    done.tuples_sent = 300;
    fx.rt->deliver_from(source, fx.sched_id,
                        make_message(Tag::kSourceDone, done, 48));
  }
  // Round 1 begins.
  auto probes = fx.rt->sent_with_tag(Tag::kDrainProbe);
  ASSERT_EQ(probes.size(), 2u);
  const std::uint64_t epoch1 =
      probes[0].msg.as<DrainProbePayload>().epoch;
  fx.rt->outbox().clear();
  auto ack = [&](ActorId join, std::uint64_t epoch, std::uint64_t received) {
    DrainAckPayload payload;
    payload.epoch = epoch;
    payload.data_chunks_received = received;
    payload.data_chunks_forwarded = 0;
    fx.rt->deliver_from(join, fx.sched_id,
                        make_message(Tag::kDrainAck, payload, 48));
  };
  // Balanced totals (6 == 3+3) but FIRST matching round: must re-probe,
  // not complete.
  ack(fx.joins[0], epoch1, 3);
  ack(fx.joins[1], epoch1, 3);
  auto probes2 = fx.rt->sent_with_tag(Tag::kDrainProbe);
  ASSERT_EQ(probes2.size(), 2u);
  EXPECT_TRUE(fx.rt->sent_with_tag(Tag::kStartProbe).empty());
  const std::uint64_t epoch2 = probes2[0].msg.as<DrainProbePayload>().epoch;
  EXPECT_EQ(epoch2, epoch1 + 1);
  fx.rt->outbox().clear();
  // Second identical round: drained; the probe phase starts.
  ack(fx.joins[0], epoch2, 3);
  ack(fx.joins[1], epoch2, 3);
  EXPECT_EQ(fx.rt->sent_with_tag(Tag::kStartProbe).size(), 2u);
}

TEST(SchedulerTest, UnbalancedDrainKeepsPolling) {
  Fixture fx(Algorithm::kOutOfCore);
  fx.rt->outbox().clear();
  for (ActorId source : fx.sources) {
    SourceDonePayload done;
    done.rel = RelTag::kR;
    done.chunks_sent = 5;
    done.tuples_sent = 500;
    fx.rt->deliver_from(source, fx.sched_id,
                        make_message(Tag::kSourceDone, done, 48));
  }
  for (int round = 0; round < 4; ++round) {
    const auto probes = fx.rt->sent_with_tag(Tag::kDrainProbe);
    ASSERT_EQ(probes.size(), 2u);
    const std::uint64_t epoch =
        probes[0].msg.as<DrainProbePayload>().epoch;
    fx.rt->outbox().clear();
    DrainAckPayload payload;
    payload.epoch = epoch;
    payload.data_chunks_received = 4;  // 8 != 10: a chunk is in flight
    payload.data_chunks_forwarded = 0;
    for (ActorId join : fx.joins) {
      fx.rt->deliver_from(join, fx.sched_id,
                          make_message(Tag::kDrainAck, payload, 48));
    }
    EXPECT_TRUE(fx.rt->sent_with_tag(Tag::kStartProbe).empty());
  }
}

TEST(SchedulerTest, StaleDrainAcksIgnored) {
  Fixture fx(Algorithm::kOutOfCore);
  fx.rt->outbox().clear();
  for (ActorId source : fx.sources) {
    SourceDonePayload done;
    done.rel = RelTag::kR;
    done.chunks_sent = 1;
    done.tuples_sent = 100;
    fx.rt->deliver_from(source, fx.sched_id,
                        make_message(Tag::kSourceDone, done, 48));
  }
  const auto probes = fx.rt->sent_with_tag(Tag::kDrainProbe);
  const std::uint64_t epoch = probes[0].msg.as<DrainProbePayload>().epoch;
  DrainAckPayload stale;
  stale.epoch = epoch - 1;
  stale.data_chunks_received = 1;
  for (ActorId join : fx.joins) {
    fx.rt->deliver_from(join, fx.sched_id,
                        make_message(Tag::kDrainAck, stale, 48));
    fx.rt->deliver_from(join, fx.sched_id,
                        make_message(Tag::kDrainAck, stale, 48));
  }
  // Stale epoch: no new round triggered, no completion.
  EXPECT_EQ(fx.rt->sent_with_tag(Tag::kDrainProbe).size(), 2u);
  EXPECT_TRUE(fx.rt->sent_with_tag(Tag::kStartProbe).empty());
}

}  // namespace
}  // namespace ehja
