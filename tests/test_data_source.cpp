// Protocol-level unit tests for DataSourceActor via the actor harness:
// routing, chunk buffering, map-update adoption, probe broadcast, source
// completion reporting, and a differential test of the batched router
// against the tuple-at-a-time one.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "actor_harness.hpp"
#include "core/data_source.hpp"
#include "core/messages.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace ehja {
namespace {

constexpr ActorId kScheduler = 0;

struct Fixture {
  std::shared_ptr<EhjaConfig> config = std::make_shared<EhjaConfig>();
  std::unique_ptr<HarnessRuntime> rt;
  ActorId source = kInvalidActor;
  DataSourceActor* actor = nullptr;

  explicit Fixture(std::uint64_t build_count = 4000,
                   std::uint32_t chunk = 1000) {
    config->data_sources = 1;
    config->build_rel.tuple_count = build_count;
    config->probe_rel.tuple_count = build_count;
    config->build_rel.dist = DistributionSpec::Uniform();
    config->probe_rel.dist = DistributionSpec::Uniform();
    config->chunk_tuples = chunk;
    config->generation_slice_tuples = chunk;
    rt = std::make_unique<HarnessRuntime>(make_cluster(*config));
    // Actor 0 stands in for the scheduler (never started).
    struct Null final : Actor {
      void on_message(const Message&) override {}
    };
    rt->spawn(config->scheduler_node(), std::make_unique<Null>());
    auto ds = std::make_unique<DataSourceActor>(config, 0, kScheduler);
    actor = ds.get();
    source = rt->spawn(config->source_node(0), std::move(ds));
  }

  /// Start the build phase against a 2-owner map (actors 10 and 11 don't
  /// exist; the harness just records sends).
  void start_build(PartitionMap map) {
    StartBuildPayload payload;
    payload.map = std::move(map);
    rt->deliver(source, make_message(Tag::kStartBuild, payload, 100));
  }

  /// Deliver the source's pending kGenSlice (always its last send) up to
  /// `limit` times, stopping early once it stops self-deferring.
  void run_slices(std::size_t limit) {
    auto& outbox = rt->outbox();
    for (std::size_t ran = 0; ran < limit && !outbox.empty() &&
                              outbox.back().to == source &&
                              outbox.back().msg.tag ==
                                  static_cast<int>(Tag::kGenSlice);
         ++ran) {
      Message msg = std::move(outbox.back().msg);
      msg.from = outbox.back().from;
      outbox.pop_back();
      rt->actor(source).on_message(msg);
    }
  }

  /// Run generation slices until the source stops self-deferring.
  void drain_generation() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      std::deque<HarnessRuntime::Sent> batch;
      batch.swap(rt->outbox());
      for (auto& sent : batch) {
        if (sent.to == source &&
            sent.msg.tag == static_cast<int>(Tag::kGenSlice)) {
          Message msg = std::move(sent.msg);
          msg.from = sent.from;
          rt->actor(source).on_message(msg);
          progressed = true;
        } else {
          rt->outbox().push_back(std::move(sent));  // keep for assertions
        }
      }
    }
  }
};

PartitionMap two_owner_map() { return PartitionMap::initial({10, 11}); }

TEST(DataSourceTest, GeneratesExactlyTheConfiguredTuples) {
  Fixture fx(4000, 1000);
  fx.start_build(two_owner_map());
  fx.drain_generation();
  std::uint64_t tuples = 0;
  for (const auto& sent : fx.rt->sent_with_tag(Tag::kDataChunk)) {
    tuples += sent.msg.as<ChunkPayload>().chunk.size();
  }
  EXPECT_EQ(tuples, 4000u);
}

TEST(DataSourceTest, RoutesByPositionToActiveOwner) {
  Fixture fx(4000, 1000);
  fx.start_build(two_owner_map());
  fx.drain_generation();
  for (const auto& sent : fx.rt->sent_with_tag(Tag::kDataChunk)) {
    const auto& chunk = sent.msg.as<ChunkPayload>().chunk;
    for (const Tuple& t : chunk.batch) {
      const bool lower = position_of(t.key) < kPositionCount / 2;
      EXPECT_EQ(sent.to, lower ? 10 : 11);
    }
  }
}

TEST(DataSourceTest, FullChunksPlusFinalPartials) {
  Fixture fx(4500, 1000);
  fx.start_build(two_owner_map());
  fx.drain_generation();
  const auto chunks = fx.rt->sent_with_tag(Tag::kDataChunk);
  // 4500 uniform tuples over 2 owners: 4 full chunks + 2 partial flushes.
  std::uint64_t full = 0, partial = 0;
  for (const auto& sent : chunks) {
    const std::size_t n = sent.msg.as<ChunkPayload>().chunk.size();
    (n == 1000 ? full : partial) += 1;
    EXPECT_LE(n, 1000u);
  }
  EXPECT_GE(full, 3u);
  EXPECT_LE(partial, 2u);
}

TEST(DataSourceTest, ReportsSourceDoneWithTotals) {
  Fixture fx(4000, 1000);
  fx.start_build(two_owner_map());
  fx.drain_generation();
  const auto done = fx.rt->sent_with_tag(Tag::kSourceDone);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].to, kScheduler);
  const auto& payload = done[0].msg.as<SourceDonePayload>();
  EXPECT_EQ(payload.rel, RelTag::kR);
  EXPECT_EQ(payload.tuples_sent, 4000u);
  EXPECT_EQ(payload.chunks_sent, fx.rt->sent_with_tag(Tag::kDataChunk).size());
}

TEST(DataSourceTest, MapUpdateRedirectsSubsequentTuples) {
  Fixture fx(8000, 1000);
  auto map = two_owner_map();
  fx.start_build(map);
  // Process exactly the one queued generation slice, then update the map
  // so the lower half now belongs to actor 99.
  {
    auto& outbox = fx.rt->outbox();
    auto it = outbox.begin();
    while (it != outbox.end() &&
           it->msg.tag != static_cast<int>(Tag::kGenSlice)) {
      ++it;
    }
    ASSERT_NE(it, outbox.end());
    Message slice = std::move(it->msg);
    outbox.erase(it);
    fx.rt->deliver(fx.source, std::move(slice));
  }
  MapUpdatePayload update;
  update.version = 1;
  map.add_replica(0, 99);
  update.map = map;
  fx.rt->deliver(fx.source, make_message(Tag::kMapUpdate, update, 100));
  fx.drain_generation();
  // Some lower-half chunks must now target 99.
  bool saw_new_owner = false;
  for (const auto& sent : fx.rt->sent_with_tag(Tag::kDataChunk)) {
    if (sent.to == 99) saw_new_owner = true;
  }
  EXPECT_TRUE(saw_new_owner);
}

TEST(DataSourceTest, StaleMapVersionIgnored) {
  Fixture fx(4000, 1000);
  auto map = two_owner_map();
  fx.start_build(map);
  MapUpdatePayload newer;
  newer.version = 5;
  auto map2 = map;
  map2.add_replica(0, 99);
  newer.map = map2;
  fx.rt->deliver(fx.source, make_message(Tag::kMapUpdate, newer, 100));
  MapUpdatePayload stale;
  stale.version = 2;  // older than 5: must not override
  stale.map = map;
  fx.rt->deliver(fx.source, make_message(Tag::kMapUpdate, stale, 100));
  fx.drain_generation();
  bool lower_to_99 = false;
  for (const auto& sent : fx.rt->sent_with_tag(Tag::kDataChunk)) {
    if (sent.to == 99) lower_to_99 = true;
    EXPECT_NE(sent.to, 10);  // old active owner replaced by version 5
  }
  EXPECT_TRUE(lower_to_99);
}

TEST(DataSourceTest, ProbeBroadcastsToAllReplicas) {
  Fixture fx(2000, 500);
  auto map = two_owner_map();
  map.add_replica(0, 99);  // lower half: replicas {99, 10}
  StartProbePayload payload;
  payload.map = map;
  fx.rt->deliver(fx.source, make_message(Tag::kStartProbe, payload, 100));
  fx.drain_generation();
  std::uint64_t to_99 = 0, to_10 = 0, to_11 = 0;
  for (const auto& sent : fx.rt->sent_with_tag(Tag::kDataChunk)) {
    const auto& chunk = sent.msg.as<ChunkPayload>().chunk;
    EXPECT_EQ(chunk.rel, RelTag::kS);
    if (sent.to == 99) to_99 += chunk.size();
    if (sent.to == 10) to_10 += chunk.size();
    if (sent.to == 11) to_11 += chunk.size();
  }
  // Every lower-half probe tuple goes to BOTH replicas.
  EXPECT_EQ(to_99, to_10);
  EXPECT_GT(to_99, 0u);
  EXPECT_EQ(to_99 + to_11, 2000u);
}

TEST(DataSourceTest, ProbeSingleOwnerNoDuplication) {
  Fixture fx(2000, 500);
  StartProbePayload payload;
  payload.map = two_owner_map();
  fx.rt->deliver(fx.source, make_message(Tag::kStartProbe, payload, 100));
  fx.drain_generation();
  std::uint64_t total = 0;
  for (const auto& sent : fx.rt->sent_with_tag(Tag::kDataChunk)) {
    total += sent.msg.as<ChunkPayload>().chunk.size();
  }
  EXPECT_EQ(total, 2000u);
}

TEST(DataSourceTest, ChargesGenerationCpu) {
  Fixture fx(4000, 1000);
  fx.start_build(two_owner_map());
  fx.drain_generation();
  // At least tuple_generate_sec per tuple must have been charged.
  EXPECT_GE(fx.rt->charged(), 4000 * fx.config->cost.tuple_generate_sec);
}

// ----------------------------------------------- routing differential test
//
// route_batch against the tuple-at-a-time router it replaced: a row goes to
// its entry's active owner (build) or to every owner in `owners` order
// (probe), a buffer is sent the moment it fills, and what is left when the
// relation ends is flushed in actor order.  Entries are found by a linear
// scan, so the oracle shares no routing code with the source.
class OracleRouter {
 public:
  explicit OracleRouter(std::uint32_t chunk) : chunk_(chunk) {}

  void route(const PartitionMap& map, const TupleBatch& slice, RelTag rel,
             bool probe_fanout) {
    for (std::size_t i = 0; i < slice.size(); ++i) {
      std::size_t e = 0;
      while (!map.entries()[e].range.contains(slice.position(i))) ++e;
      const auto& owners = map.entries()[e].owners;
      const std::size_t fan = probe_fanout ? owners.size() : 1;
      for (std::size_t k = 0; k < fan; ++k) {
        buffer_row(owners[k], slice, i, rel);
      }
    }
  }

  void flush_all() {
    while (!buffers_.empty()) flush(buffers_.begin()->first);
  }

  std::vector<std::pair<ActorId, Chunk>> sent;

 private:
  void buffer_row(ActorId to, const TupleBatch& batch, std::size_t i,
                  RelTag rel) {
    Chunk& buffer = buffers_[to];
    if (buffer.empty()) buffer.rel = rel;
    buffer.batch.append_row(batch, i);
    if (buffer.size() >= chunk_) flush(to);
  }

  void flush(ActorId to) {
    auto it = buffers_.find(to);
    sent.emplace_back(to, std::move(it->second));
    buffers_.erase(it);
  }

  std::uint32_t chunk_;
  std::map<ActorId, Chunk> buffers_;
};

/// A map of `entries` entries grown by random splits.  From three entries
/// on it starts as [10, 11, 10], so actor 10 owns two non-adjacent
/// entries; later splits hand out actors 10..14, so most actors own
/// several.  `replicas` random entries then gain one replica each.
PartitionMap random_map(SplitMix64& rng, std::size_t entries,
                        std::size_t replicas) {
  auto map = PartitionMap::initial(
      entries == 1 ? std::vector<ActorId>{10} : std::vector<ActorId>{10, 11});
  if (entries >= 3) {
    const PosRange upper = map.entries()[1].range;
    map.split_entry(1, upper.lo + upper.width() / 2, 10);
  }
  while (map.size() < entries) {
    std::size_t victim = rng.next_u64() % map.size();
    while (map.entries()[victim].range.width() < 2) {
      victim = (victim + 1) % map.size();
    }
    const PosRange r = map.entries()[victim].range;
    map.split_entry(victim, r.lo + 1 + rng.next_u64() % (r.width() - 1),
                    static_cast<ActorId>(10 + rng.next_u64() % 5));
  }
  for (std::size_t r = 0; r < replicas; ++r) {
    map.add_replica(rng.next_u64() % map.size(),
                    static_cast<ActorId>(20 + r));
  }
  return map;
}

TEST(DataSourceRoutingTest, MatchesTupleAtATimeRouter) {
  constexpr std::uint64_t kRows = 12'000;
  SplitMix64 rng(1904);
  std::size_t entries = 1;  // cycles through 1..24 over the 24 cases
  for (const bool probe : {false, true}) {
    for (const std::uint32_t chunk : {1u, 3u, 1000u}) {
      for (const std::uint32_t slice : {1u, 7u, 1000u, 10'000u}) {
        SCOPED_TRACE(::testing::Message()
                     << (probe ? "probe" : "build") << " chunk=" << chunk
                     << " slice=" << slice << " entries=" << entries);
        const PartitionMap first = random_map(rng, entries, probe ? 3 : 1);
        entries = entries % 24 + 1;
        // The mid-stream update moves an entry's active owner (build) or
        // widens its broadcast (probe).
        PartitionMap second = first;
        second.add_replica(rng.next_u64() % second.size(), 99);

        Fixture fx(kRows, chunk);
        fx.config->generation_slice_tuples = slice;
        if (probe) {
          StartProbePayload start;
          start.map = first;
          fx.rt->deliver(fx.source, make_message(Tag::kStartProbe, start, 100));
        } else {
          fx.start_build(first);
        }
        const std::size_t slices = (kRows + slice - 1) / slice;
        const std::size_t before_update = slices / 2;
        fx.run_slices(before_update);
        MapUpdatePayload update;
        update.version = 1;
        update.map = second;
        fx.rt->deliver(fx.source, make_message(Tag::kMapUpdate, update, 100));
        fx.run_slices(slices);

        const RelationSpec& spec =
            probe ? fx.config->probe_rel : fx.config->build_rel;
        TupleStream stream(spec, fx.config->seed, 0, 1);
        OracleRouter oracle(chunk);
        TupleBatch rows;
        Tuple t;
        for (std::size_t s = 0;; ++s) {
          rows.clear();
          while (rows.size() < slice && stream.next(t)) rows.append(t.id, t.key);
          if (rows.empty()) break;
          oracle.route(s < before_update ? first : second, rows, spec.tag,
                       probe);
        }
        oracle.flush_all();

        const auto sent = fx.rt->sent_with_tag(Tag::kDataChunk);
        ASSERT_EQ(sent.size(), oracle.sent.size());
        for (std::size_t i = 0; i < sent.size(); ++i) {
          const auto& got = sent[i].msg.as<ChunkPayload>();
          const Chunk& want = oracle.sent[i].second;
          ASSERT_EQ(sent[i].to, oracle.sent[i].first) << "chunk " << i;
          ASSERT_EQ(got.chunk.rel, want.rel) << "chunk " << i;
          ASSERT_EQ(got.epoch, 0u) << "chunk " << i;
          ASSERT_EQ(got.chunk.batch.ids(), want.batch.ids()) << "chunk " << i;
          ASSERT_EQ(got.chunk.batch.keys(), want.batch.keys()) << "chunk " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ehja
