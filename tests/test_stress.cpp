// Stress and fuzz coverage.
//
// RandomConfigFuzz: 24 pseudo-random protocol configurations (algorithm,
// variant, distribution, node counts, chunk sizes, budgets drawn from a
// seeded RNG) -- every one must match the serial oracle and conserve build
// tuples.  This is the sweep that catches interaction bugs the hand-picked
// matrices miss.
//
// ThreadRuntime soak: many actors exchanging many messages with dynamic
// spawning, repeated to shake out lost-wakeup/termination races (the class
// of bug fixed in ThreadRuntime::request_stop).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/driver.hpp"
#include "runtime/thread_runtime.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace ehja {
namespace {

EhjaConfig random_config(std::uint64_t fuzz_seed) {
  SplitMix64 rng(fuzz_seed, /*stream=*/0xf22);
  EhjaConfig config;
  switch (rng.next_below(4)) {
    case 0: config.algorithm = Algorithm::kSplit; break;
    case 1: config.algorithm = Algorithm::kReplicate; break;
    case 2: config.algorithm = Algorithm::kHybrid; break;
    default: config.algorithm = Algorithm::kOutOfCore; break;
  }
  config.split_variant = rng.next_below(2) == 0
                             ? SplitVariant::kRequesterMidpoint
                             : SplitVariant::kLinearPointer;
  config.join_pool_nodes = 2 + static_cast<std::uint32_t>(rng.next_below(20));
  config.initial_join_nodes =
      1 + static_cast<std::uint32_t>(rng.next_below(config.join_pool_nodes));
  config.data_sources = 1 + static_cast<std::uint32_t>(rng.next_below(5));
  config.build_rel.tuple_count = 2'000 + rng.next_below(20'000);
  config.probe_rel.tuple_count = 2'000 + rng.next_below(20'000);
  switch (rng.next_below(4)) {
    case 0:
      config.build_rel.dist = DistributionSpec::Uniform();
      break;
    case 1:
      config.build_rel.dist =
          DistributionSpec::Gaussian(0.3 + 0.4 * (fuzz_seed % 7) / 7.0,
                                     1e-4 + 1e-2 * (fuzz_seed % 3));
      break;
    case 2:
      config.build_rel.dist =
          DistributionSpec::Zipf(1.05 + 0.3 * (fuzz_seed % 5) / 5.0,
                                 100 + rng.next_below(5000));
      break;
    default:
      config.build_rel.dist =
          DistributionSpec::SmallDomain(16 + rng.next_below(8192));
      break;
  }
  config.probe_rel.dist = config.build_rel.dist;
  config.chunk_tuples = 50 + static_cast<std::uint32_t>(rng.next_below(2000));
  config.generation_slice_tuples = config.chunk_tuples;
  const std::uint64_t budget_tuples = 200 + rng.next_below(4000);
  config.node_hash_memory_bytes =
      budget_tuples * tuple_footprint(config.build_rel.schema);
  config.balanced_initial_partition = rng.next_below(3) == 0;
  config.partition_sample = 5'000;
  config.seed = fuzz_seed * 7919 + 13;
  // Respect the validated invariants the generator above could violate.
  if (config.algorithm == Algorithm::kSplit &&
      config.split_variant == SplitVariant::kLinearPointer) {
    config.balanced_initial_partition = false;
  }
  return config;
}

class RandomConfigFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomConfigFuzz, MatchesOracleAndConserves) {
  const EhjaConfig config = random_config(GetParam());
  SCOPED_TRACE(config.to_string());
  const RunResult run = run_ehja(config);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.build_tuples_total, config.build_rel.tuple_count);
  EXPECT_EQ(run.metrics.final_join_nodes,
            run.metrics.initial_join_nodes + run.metrics.expansions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomConfigFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

// ---------------------------------------------------------- thread soak

constexpr int kToken = 1;
constexpr int kSpawnWave = 2;

// A ring of actors passing tokens; the root also spawns a second wave of
// actors mid-run.  Exercises concurrent spawn/send/stop.
class RingNode final : public Actor {
 public:
  RingNode(std::atomic<int>& hops, int limit) : hops_(&hops), limit_(limit) {}
  void set_next(ActorId next) { next_ = next; }
  void on_message(const Message& msg) override {
    if (msg.tag != kToken) return;
    const int total = hops_->fetch_add(1) + 1;
    if (total >= limit_) {
      rt().request_stop();
      return;
    }
    if (next_ != kInvalidActor) {
      send(next_, make_signal(kToken));
    }
  }

 private:
  std::atomic<int>* hops_;
  int limit_;
  ActorId next_ = kInvalidActor;
};

class RingRoot final : public Actor {
 public:
  RingRoot(std::atomic<int>& hops, int limit, int ring_size)
      : hops_(&hops), limit_(limit), ring_size_(ring_size) {}
  void on_start() override { defer(make_signal(kSpawnWave)); }
  void on_message(const Message& msg) override {
    if (msg.tag == kSpawnWave) {
      // Build the ring dynamically, then inject several tokens.
      std::vector<RingNode*> nodes;
      std::vector<ActorId> ids;
      for (int i = 0; i < ring_size_; ++i) {
        auto node = std::make_unique<RingNode>(*hops_, limit_);
        nodes.push_back(node.get());
        ids.push_back(rt().spawn(
            static_cast<NodeId>(i % rt().cluster().node_count()),
            std::move(node)));
      }
      for (int i = 0; i < ring_size_; ++i) {
        nodes[static_cast<std::size_t>(i)]->set_next(
            ids[static_cast<std::size_t>((i + 1) % ring_size_)]);
      }
      for (int i = 0; i < 4; ++i) {
        send(ids[static_cast<std::size_t>(i % ring_size_)],
             make_signal(kToken));
      }
    }
  }

 private:
  std::atomic<int>* hops_;
  int limit_;
  int ring_size_;
};

TEST(ThreadSoakTest, TokenRingWithDynamicSpawningTerminates) {
  for (int round = 0; round < 5; ++round) {
    ThreadRuntime rt(make_uniform_cluster(4));
    std::atomic<int> hops{0};
    rt.spawn(0, std::make_unique<RingRoot>(hops, /*limit=*/500,
                                           /*ring_size=*/16));
    rt.run();
    EXPECT_GE(hops.load(), 500);
  }
}

TEST(ThreadSoakTest, RepeatedFullJoinsOnThreads) {
  // The whole protocol, three times back to back on real threads.
  EhjaConfig config;
  config.algorithm = Algorithm::kHybrid;
  config.initial_join_nodes = 2;
  config.join_pool_nodes = 10;
  config.data_sources = 2;
  config.build_rel.tuple_count = 10'000;
  config.probe_rel.tuple_count = 10'000;
  config.build_rel.dist = DistributionSpec::SmallDomain(2048);
  config.probe_rel.dist = config.build_rel.dist;
  config.chunk_tuples = 400;
  config.generation_slice_tuples = 400;
  config.node_hash_memory_bytes =
      1200 * tuple_footprint(config.build_rel.schema);
  const JoinResult expected = reference_join(config);
  for (int round = 0; round < 3; ++round) {
    const RunResult run = run_ehja(config, RuntimeKind::kThread);
    EXPECT_EQ(run.join(), expected) << "round " << round;
  }
}

}  // namespace
}  // namespace ehja
