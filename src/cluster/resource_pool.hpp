// Pool of potential join nodes.
//
// The scheduler draws a new node from this pool whenever a working join node
// reports memory full.  The paper's policy: "the node with the largest
// amount of available memory is selected" (ss4.1.1).  Alternative policies
// are provided for the initial-node-selection ablation the paper defers to
// future work.
//
// Two extensions for the serving layer (src/serve/):
//
//   * Thread safety.  One process may run many query schedulers plus the
//     admission controller, each touching a pool from its own thread, so
//     every public method takes an internal mutex.  The mutex lives behind
//     a unique_ptr because pools are moved by value into the scheduler's
//     ExpansionPolicy.
//
//   * Provider hooks.  A per-query pool can be backed by the fleet-level
//     admission controller: when the local free list is empty, acquire()
//     asks the hook for one more node (which the controller may deny --
//     that is the cross-query "additional resources" negotiation), and
//     hook-granted nodes are returned to the *hook* on release, not to the
//     local free list.  Without hooks the behaviour is exactly the
//     pre-serve single-query pool.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cluster/cluster_spec.hpp"

namespace ehja {

enum class NodePickPolicy {
  kLargestFreeMemory,  // the paper's policy
  kFirstAvailable,     // lowest node id first
};

/// External provider backing a pool (the admission controller in serve
/// mode).  `acquire` may return nullopt -- a denied expansion, which the
/// scheduler already treats as "pool exhausted" (spill / co-locate paths).
struct PoolHooks {
  std::function<std::optional<NodeId>()> acquire;
  std::function<void(NodeId)> release;
};

class ResourcePool {
 public:
  ResourcePool(const ClusterSpec& spec, std::vector<NodeId> potential,
               NodePickPolicy policy = NodePickPolicy::kLargestFreeMemory);

  /// Back this pool with an external provider (see PoolHooks).  Both
  /// callbacks must be set.  Install before the pool is shared.
  void set_hooks(PoolHooks hooks);

  /// Remove and return the next node per the policy; when the local free
  /// list is empty, consult the hook (if any); nullopt when both deny.
  std::optional<NodeId> acquire();

  /// Return a node to the pool (used when an expansion is aborted).  A
  /// hook-granted node goes back to the provider, not the local free list.
  void release(NodeId node);

  /// All-or-nothing: atomically remove `count` nodes from the local free
  /// list (policy order), or take nothing and return nullopt.  Does not
  /// consult the hook -- this is the admission controller's own primitive
  /// for carving out a query's initial placement from the fleet pool.
  std::optional<std::vector<NodeId>> try_reserve(std::size_t count);

  std::size_t available() const;
  /// Unclaimed nodes, in pool order (scheduler-failover snapshot input).
  /// Returns a copy: under concurrency a reference would dangle.
  std::vector<NodeId> free_nodes() const;
  std::size_t acquired_count() const;
  NodePickPolicy policy() const { return policy_; }

 private:
  /// Policy pick against the locked free list; requires non-empty.
  std::size_t pick_locked();

  const ClusterSpec* spec_;
  std::vector<NodeId> potential_;
  NodePickPolicy policy_;
  std::size_t acquired_ = 0;
  PoolHooks hooks_;
  /// Nodes currently out on loan *from the hook*, with a count per node
  /// (provenance: each release must reach the provider).  A count, not a
  /// set: the fleet-level provider may grant the same worker node several
  /// times to one query -- co-locating processes is legitimate placement.
  /// Guarded by mutex_ like everything else.
  std::unordered_map<NodeId, std::uint32_t> granted_by_hook_;
  mutable std::unique_ptr<std::mutex> mutex_;
};

}  // namespace ehja
