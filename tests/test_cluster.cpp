// Unit tests for cluster specs and the resource pool policies.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "cluster/resource_pool.hpp"
#include "util/units.hpp"

namespace ehja {
namespace {

TEST(ClusterSpecTest, UniformClusterShape) {
  const ClusterSpec spec = make_uniform_cluster(8, 64 * kMiB);
  EXPECT_EQ(spec.node_count(), 8u);
  for (NodeId id = 0; id < 8; ++id) {
    EXPECT_EQ(spec.node(id).id, id);
    EXPECT_EQ(spec.node(id).hash_memory_bytes, 64 * kMiB);
    EXPECT_DOUBLE_EQ(spec.node(id).cpu_scale, 1.0);
  }
}

TEST(ResourcePoolTest, LargestFreeMemoryPolicy) {
  ClusterSpec spec = make_uniform_cluster(5, 10 * kMiB);
  spec.nodes[3].hash_memory_bytes = 99 * kMiB;
  spec.nodes[1].hash_memory_bytes = 50 * kMiB;
  ResourcePool pool(spec, {0, 1, 2, 3, 4},
                    NodePickPolicy::kLargestFreeMemory);
  EXPECT_EQ(pool.acquire().value(), 3);
  EXPECT_EQ(pool.acquire().value(), 1);
  // Remaining three tie at 10 MiB; lowest id wins for determinism.
  EXPECT_EQ(pool.acquire().value(), 0);
  EXPECT_EQ(pool.acquire().value(), 2);
  EXPECT_EQ(pool.acquire().value(), 4);
  EXPECT_FALSE(pool.acquire().has_value());
}

TEST(ResourcePoolTest, FirstAvailablePolicy) {
  const ClusterSpec spec = make_uniform_cluster(4);
  ResourcePool pool(spec, {2, 0, 3}, NodePickPolicy::kFirstAvailable);
  EXPECT_EQ(pool.acquire().value(), 0);
  EXPECT_EQ(pool.acquire().value(), 2);
  EXPECT_EQ(pool.acquire().value(), 3);
}

TEST(ResourcePoolTest, ReleaseReturnsNode) {
  const ClusterSpec spec = make_uniform_cluster(3);
  ResourcePool pool(spec, {0, 1}, NodePickPolicy::kFirstAvailable);
  const NodeId a = pool.acquire().value();
  EXPECT_EQ(pool.available(), 1u);
  EXPECT_EQ(pool.acquired_count(), 1u);
  pool.release(a);
  EXPECT_EQ(pool.available(), 2u);
  EXPECT_EQ(pool.acquired_count(), 0u);
}

TEST(ResourcePoolTest, EmptyPoolReturnsNullopt) {
  const ClusterSpec spec = make_uniform_cluster(2);
  ResourcePool pool(spec, {}, NodePickPolicy::kLargestFreeMemory);
  EXPECT_FALSE(pool.acquire().has_value());
  EXPECT_EQ(pool.available(), 0u);
}

// The fleet-level provider (serve-mode admission) may hand the *same*
// worker node to one query repeatedly -- co-located processes are
// legitimate placement -- so hook provenance is a count, and every one of
// the grants must be returned to the provider individually.
TEST(ResourcePoolTest, HookMayGrantTheSameNodeRepeatedly) {
  const ClusterSpec spec = make_uniform_cluster(4, 10 * kMiB);
  ResourcePool pool(spec, {}, NodePickPolicy::kLargestFreeMemory);
  int outstanding = 0;
  PoolHooks hooks;
  hooks.acquire = [&]() -> std::optional<NodeId> {
    ++outstanding;
    return NodeId{2};
  };
  hooks.release = [&](NodeId id) {
    EXPECT_EQ(id, NodeId{2});
    --outstanding;
  };
  pool.set_hooks(std::move(hooks));

  const auto a = pool.acquire();
  const auto b = pool.acquire();
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_EQ(*a, NodeId{2});
  EXPECT_EQ(*b, NodeId{2});
  EXPECT_EQ(pool.acquired_count(), 2u);
  EXPECT_EQ(outstanding, 2);

  pool.release(*a);
  EXPECT_EQ(outstanding, 1);  // one grant still out
  pool.release(*b);
  EXPECT_EQ(outstanding, 0);
  EXPECT_EQ(pool.acquired_count(), 0u);
  EXPECT_EQ(pool.available(), 0u);  // hook nodes never join the free list
}

// Concurrency hammer: many threads acquiring, releasing, bulk-reserving and
// snapshotting one pool at once, with a hook provider underneath -- the
// serve-mode shape, where query schedulers and the admission controller
// share pools across threads.  Run under TSan in CI (the tsan ctest job
// includes this suite); the functional assertions below catch double-grants
// and lost returns even without it.
TEST(ResourcePoolTest, ConcurrentAcquireReleaseNeverDuplicatesOrLoses) {
  const ClusterSpec spec = make_uniform_cluster(64, 10 * kMiB);
  std::vector<NodeId> local;
  for (NodeId id = 0; id < 16; ++id) local.push_back(id);
  ResourcePool pool(spec, local, NodePickPolicy::kLargestFreeMemory);

  // Hook provider: nodes 100..147, each grantable at most once until
  // returned.  Its own mutex stands in for the admission controller's.
  std::mutex hook_mutex;
  std::vector<NodeId> hook_free;
  for (NodeId id = 100; id < 148; ++id) hook_free.push_back(id);
  std::atomic<int> double_grants{0};
  std::vector<int> hook_out(200, 0);
  PoolHooks hooks;
  hooks.acquire = [&]() -> std::optional<NodeId> {
    std::lock_guard<std::mutex> lock(hook_mutex);
    if (hook_free.empty()) return std::nullopt;
    const NodeId id = hook_free.back();
    hook_free.pop_back();
    if (++hook_out[static_cast<std::size_t>(id)] != 1) ++double_grants;
    return id;
  };
  hooks.release = [&](NodeId id) {
    std::lock_guard<std::mutex> lock(hook_mutex);
    if (--hook_out[static_cast<std::size_t>(id)] != 0) ++double_grants;
    hook_free.push_back(id);
  };
  pool.set_hooks(std::move(hooks));

  constexpr int kThreads = 8;
  constexpr int kRounds = 400;
  std::atomic<int> duplicate_holds{0};
  std::mutex held_mutex;
  std::unordered_set<NodeId> held;  // every node out on loan, pool- or hook-

  const auto worker = [&](int t) {
    std::vector<NodeId> mine;
    for (int round = 0; round < kRounds; ++round) {
      if (const auto got = pool.acquire()) {
        std::lock_guard<std::mutex> lock(held_mutex);
        if (!held.insert(*got).second) ++duplicate_holds;
        mine.push_back(*got);
      }
      if ((round + t) % 3 == 0 && !mine.empty()) {
        const NodeId back = mine.back();
        mine.pop_back();
        {
          std::lock_guard<std::mutex> lock(held_mutex);
          held.erase(back);
        }
        pool.release(back);
      }
      if ((round + t) % 7 == 0) {
        if (const auto batch = pool.try_reserve(2)) {
          std::lock_guard<std::mutex> lock(held_mutex);
          for (const NodeId id : *batch) {
            if (!held.insert(id).second) ++duplicate_holds;
            mine.push_back(id);
          }
        }
      }
      // Read paths must be safe mid-churn (failover snapshots do this).
      (void)pool.available();
      (void)pool.free_nodes();
      (void)pool.acquired_count();
    }
    for (const NodeId id : mine) {
      {
        std::lock_guard<std::mutex> lock(held_mutex);
        held.erase(id);
      }
      pool.release(id);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(duplicate_holds.load(), 0) << "a node was handed to two holders";
  EXPECT_EQ(double_grants.load(), 0) << "hook provenance was corrupted";
  EXPECT_TRUE(held.empty());
  // Everything came home: the local free list is whole and the hook got
  // every granted node back.
  EXPECT_EQ(pool.available(), local.size());
  EXPECT_EQ(pool.acquired_count(), 0u);
  EXPECT_EQ(hook_free.size(), 48u);
}

TEST(CostModelTest, ScaledApplies) {
  CostModel cost;
  cost.cpu_scale = 2.0;
  EXPECT_DOUBLE_EQ(cost.scaled(10.0), 20.0);
}

}  // namespace
}  // namespace ehja
