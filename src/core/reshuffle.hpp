// Hybrid algorithm's reshuffling plan (paper ss4.2.3).
//
// Input: the global (merged) per-position entry histogram of one replica
// set's hash range, and the set's members.  Output: the range re-cut into
// one contiguous sub-range per member with near-equal entry counts, using
// the paper's greedy heuristic.  The histogram is sparse (only occupied
// positions), and the sweep walks its cells, yet cuts exactly where a sweep
// over one weight per position of the range would.  Pure function -- the
// scheduler computes it, every set member executes it.
#pragma once

#include <vector>

#include "hash/partition_map.hpp"
#include "util/histogram.hpp"

namespace ehja {

/// One entry per member, in member order, covering the histogram's range
/// with disjoint non-empty sub-ranges of near-equal total weight.
std::vector<PartitionMap::Entry> plan_reshuffle(
    const PositionHistogram& merged, const std::vector<ActorId>& members);

}  // namespace ehja
