#include "cluster/resource_pool.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ehja {

ResourcePool::ResourcePool(const ClusterSpec& spec,
                           std::vector<NodeId> potential,
                           NodePickPolicy policy)
    : spec_(&spec),
      potential_(std::move(potential)),
      policy_(policy),
      mutex_(std::make_unique<std::mutex>()) {
  for (NodeId id : potential_) {
    EHJA_CHECK(id >= 0 && static_cast<std::size_t>(id) < spec.node_count());
  }
}

void ResourcePool::set_hooks(PoolHooks hooks) {
  EHJA_CHECK(hooks.acquire && hooks.release);
  std::lock_guard<std::mutex> lock(*mutex_);
  hooks_ = std::move(hooks);
}

std::size_t ResourcePool::pick_locked() {
  std::size_t pick = 0;
  switch (policy_) {
    case NodePickPolicy::kLargestFreeMemory: {
      // All pool nodes are idle, so "available memory" is the node's
      // hash-memory capacity; ties break toward the lower node id for
      // determinism.
      for (std::size_t i = 1; i < potential_.size(); ++i) {
        const auto& best = spec_->node(potential_[pick]);
        const auto& cand = spec_->node(potential_[i]);
        if (cand.hash_memory_bytes > best.hash_memory_bytes ||
            (cand.hash_memory_bytes == best.hash_memory_bytes &&
             potential_[i] < potential_[pick])) {
          pick = i;
        }
      }
      break;
    }
    case NodePickPolicy::kFirstAvailable: {
      for (std::size_t i = 1; i < potential_.size(); ++i) {
        if (potential_[i] < potential_[pick]) pick = i;
      }
      break;
    }
  }
  return pick;
}

std::optional<NodeId> ResourcePool::acquire() {
  std::function<std::optional<NodeId>()> ask_hook;
  {
    std::lock_guard<std::mutex> lock(*mutex_);
    if (!potential_.empty()) {
      const std::size_t pick = pick_locked();
      const NodeId chosen = potential_[pick];
      potential_.erase(potential_.begin() + static_cast<std::ptrdiff_t>(pick));
      ++acquired_;
      return chosen;
    }
    ask_hook = hooks_.acquire;
  }
  if (!ask_hook) return std::nullopt;
  // The provider call runs unlocked: the admission controller takes its own
  // lock in there, and holding ours across it invites lock-order cycles.
  const std::optional<NodeId> granted = ask_hook();
  if (!granted) return std::nullopt;
  std::lock_guard<std::mutex> lock(*mutex_);
  ++granted_by_hook_[*granted];  // counted: a node may be granted repeatedly
  ++acquired_;
  return granted;
}

void ResourcePool::release(NodeId node) {
  std::function<void(NodeId)> give_back;
  {
    std::lock_guard<std::mutex> lock(*mutex_);
    EHJA_CHECK(acquired_ > 0);
    --acquired_;
    const auto it = granted_by_hook_.find(node);
    if (it != granted_by_hook_.end()) {
      if (--it->second == 0) granted_by_hook_.erase(it);
      give_back = hooks_.release;
      EHJA_CHECK(give_back != nullptr);
    } else {
      EHJA_CHECK(std::find(potential_.begin(), potential_.end(), node) ==
                 potential_.end());
      potential_.push_back(node);
      return;
    }
  }
  give_back(node);
}

std::optional<std::vector<NodeId>> ResourcePool::try_reserve(
    std::size_t count) {
  std::lock_guard<std::mutex> lock(*mutex_);
  if (potential_.size() < count) return std::nullopt;
  std::vector<NodeId> taken;
  taken.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t pick = pick_locked();
    taken.push_back(potential_[pick]);
    potential_.erase(potential_.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  acquired_ += count;
  return taken;
}

std::size_t ResourcePool::available() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return potential_.size();
}

std::vector<NodeId> ResourcePool::free_nodes() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return potential_;
}

std::size_t ResourcePool::acquired_count() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return acquired_;
}

}  // namespace ehja
