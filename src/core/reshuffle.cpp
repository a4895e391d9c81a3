#include "core/reshuffle.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace ehja {

std::vector<PartitionMap::Entry> plan_reshuffle(
    const PositionHistogram& merged, const std::vector<ActorId>& members) {
  EHJA_CHECK(!members.empty());
  const std::size_t k = members.size();
  const std::uint64_t lo = merged.lo();
  const std::uint64_t hi = merged.hi();
  EHJA_CHECK_MSG(hi - lo >= k, "range narrower than the replica set");

  // Greedy left-to-right sweep ("the hash table array is partitioned into k
  // contiguous sub-arrays so that the total number of entries in each array
  // is equal"): a part closes at a position once its weight plus half that
  // position's would pass its fair share of what the remaining parts
  // (current included) must cover.  The *remaining* ideal, rather than
  // total/k, keeps later parts from starving after an oversized early
  // position.  bounds[i] is where part i starts.
  std::vector<std::uint64_t> bounds;
  bounds.reserve(k + 1);
  bounds.push_back(lo);
  const std::uint64_t total = merged.total();
  std::uint64_t closed = 0;   // weight placed into already-closed parts
  std::uint64_t current = 0;  // weight of the open part
  // The open part's share changes only when a part closes.
  double ideal = static_cast<double>(total) / static_cast<double>(k);
  const auto close_at = [&](std::uint64_t position, std::uint64_t weight) {
    if (bounds.size() >= k || current == 0) return;
    if (static_cast<double>(current) + static_cast<double>(weight) / 2.0 >
        ideal) {
      bounds.push_back(position);
      closed += current;
      current = 0;
      ideal = static_cast<double>(total - closed) /
              static_cast<double>(k - (bounds.size() - 1));
    }
  };
  const std::vector<PositionHistogram::Cell>& cells = merged.cells();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::uint64_t position = cells[i].position;
    close_at(position, cells[i].count);
    current += cells[i].count;
    // Across a run of empty positions nothing the test reads changes, and
    // a part cut inside the run is empty; so the run's first position is
    // the only one where a cut can land.
    const std::uint64_t after = position + 1;
    if (after < hi &&
        (i + 1 == cells.size() || cells[i + 1].position > after)) {
      close_at(after, 0);
    }
  }
  // The sweep may close fewer than k parts; the rest start at hi.
  while (bounds.size() < k) bounds.push_back(hi);
  bounds.push_back(hi);

  // The greedy sweep can emit empty parts when one position dominates;
  // every member must still own a non-empty range (LocalHashTable requires
  // one), so clamp each interior boundary into the window that keeps all
  // bounds strictly increasing: at least one position after its
  // predecessor, and early enough that every later member can still get one
  // position.  The weight distortion is at most one position per member.
  for (std::size_t i = 1; i + 1 < bounds.size(); ++i) {
    const std::uint64_t least = bounds[i - 1] + 1;
    const std::uint64_t most = hi - (k - i);
    bounds[i] = std::min(std::max(bounds[i], least), most);
  }
  EHJA_CHECK(std::is_sorted(bounds.begin(), bounds.end()));

  std::vector<PartitionMap::Entry> entries;
  entries.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    EHJA_CHECK(bounds[i] < bounds[i + 1]);
    entries.push_back(PartitionMap::Entry{PosRange{bounds[i], bounds[i + 1]},
                                          {members[i]}});
  }
  return entries;
}

}  // namespace ehja
