// Dynamic hybrid-hash / GRACE out-of-core join machinery.
//
// HybridHashSpiller manages one node's position range when the hash table
// cannot be guaranteed to fit: the range is pre-cut into `fanout` equal
// sub-partitions; tuples build in memory until the budget is exceeded, then
// whole sub-partitions are evicted to simulated disk, largest first.  Build
// tuples for spilled sub-partitions go straight to their R spill file, probe
// tuples likewise to the S spill file; in-memory sub-partitions are probed
// immediately (the classic dynamic hybrid-hash discipline).  finish() joins
// each spilled (R_k, S_k) pair through a LocalHashTable over the
// sub-partition, multi-pass when R_k alone exceeds the budget (each extra
// pass rescans S_k, which is what makes the OOC baseline collapse at small
// initial node counts -- paper Fig. 2).
//
// All methods return the virtual seconds consumed (CPU per the cost model +
// disk per SimDisk); the caller charges them to its node.  This component
// serves two masters: the paper's "Out of Core" baseline algorithm, and any
// EHJA node that must degrade gracefully once the potential-node pool is
// exhausted.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cost_model.hpp"
#include "hash/local_hash_table.hpp"
#include "join/serial_join.hpp"
#include "storage/sim_disk.hpp"
#include "storage/spill_file.hpp"

namespace ehja {

/// What to do when the build side exceeds the budget.
enum class SpillPolicy {
  /// Evict one sub-partition at a time, largest first, and keep probing the
  /// rest in memory (dynamic hybrid hash).  Used when an EHJA node degrades
  /// after pool exhaustion.
  kEvictLargest,
  /// First overflow sends *everything* to disk -- the basic GRACE
  /// out-of-core join of the paper's ss2, which is what its "Out of Core"
  /// baseline runs: all of R and all of S stream through the disk before
  /// any bucket pair is joined.
  kEvictAll,
};

class HybridHashSpiller {
 public:
  HybridHashSpiller(Schema schema, PosRange range,
                    std::uint64_t memory_budget_bytes, std::size_t fanout,
                    SimDisk& disk, const CostModel& cost,
                    std::uint64_t stream_namespace,
                    SpillPolicy policy = SpillPolicy::kEvictLargest);

  /// Route one build-relation tuple; may trigger sub-partition eviction.
  double add_build(const Tuple& t);

  /// Route one probe-relation tuple; in-memory partitions are probed into
  /// `acc` immediately, spilled ones are deferred to finish().  A non-null
  /// `sink` receives one Tuple{build_row_id, probe_row_id} per match --
  /// matches emitted here and in finish() together mirror `acc` exactly,
  /// whichever side of a spill transition each match lands on.
  double add_probe(const Tuple& t, JoinResult& acc,
                   std::vector<Tuple>* sink = nullptr);

  /// Join all spilled (R_k, S_k) pairs into `acc`.  Call once, after both
  /// streams end.
  double finish(JoinResult& acc, std::vector<Tuple>* sink = nullptr);

  /// Drain every build tuple (in memory and on disk) and every deferred
  /// spilled probe tuple, leaving the spiller empty; returns the seconds
  /// consumed (disk scans of the spilled partitions).  The recovery
  /// range-reset uses this to rebuild a node's state minus the discarded
  /// ranges; the caller re-adds the survivors to a fresh spiller.
  double extract_all(std::vector<Tuple>& build_out,
                     std::vector<Tuple>& probe_out);

  // --- observability ---
  std::uint64_t build_tuples() const { return build_tuples_; }
  std::uint64_t spilled_build_tuples() const;
  std::uint64_t spilled_probe_tuples() const;
  std::size_t spilled_partitions() const;
  std::uint64_t memory_footprint() const { return table_.footprint_bytes(); }
  const PosRange& range() const { return table_.range(); }
  bool any_spilled() const { return spilled_partitions() > 0; }

 private:
  struct Partition {
    PosRange range;
    bool spilled = false;
    std::uint64_t mem_tuples = 0;  // build tuples currently in memory
    std::unique_ptr<SpillFile> r_file;
    std::unique_ptr<SpillFile> s_file;
    std::vector<Tuple> r_tuples;  // "disk contents"
    std::vector<Tuple> s_tuples;
  };

  std::size_t partition_of(std::uint64_t pos) const;
  double evict_largest();
  double evict(std::size_t victim);
  double join_partition(Partition& part, JoinResult& acc,
                        std::vector<Tuple>* sink);

  Schema schema_;
  std::uint64_t budget_;
  SpillPolicy policy_;
  const CostModel* cost_;
  SimDisk* disk_;
  LocalHashTable table_;
  std::vector<Partition> partitions_;
  std::uint64_t build_tuples_ = 0;
  bool finished_ = false;
};

/// Serial one-node GRACE-style join with full cost accounting; the
/// standalone building block the unit tests exercise and examples use.
struct GraceOutcome {
  JoinResult result;
  double seconds = 0.0;
  std::uint64_t spilled_build_tuples = 0;
  std::uint64_t spilled_probe_tuples = 0;
};

GraceOutcome grace_join(const Relation& build, const Relation& probe,
                        std::uint64_t memory_budget_bytes, std::size_t fanout,
                        SimDisk& disk, const CostModel& cost);

}  // namespace ehja
