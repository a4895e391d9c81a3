// The store of one join node: its partition table, resident or spilling.
//
// HybridHashSpiller owns the node's NodeTable (lanes included).  Resident,
// it is that table.  Once spill() enforces the memory budget (at init for
// the OOC baseline, at kSwitchToSpill for an EHJA node denied an expansion),
// the range is cut into `fanout` equal sub-partitions; tuples build in
// memory until the budget is exceeded, then whole sub-partitions are
// evicted to simulated disk.  Build and probe tuples of spilled
// sub-partitions go straight to their R and S spill files; in-memory ones
// are probed immediately (dynamic hybrid hash).  finish() joins each spilled
// (R_k, S_k) pair, multi-pass when R_k alone exceeds the budget (each extra
// pass rescans S_k, which is what makes the OOC baseline collapse at small
// initial node counts -- paper Fig. 2).
//
// Both states take whole TupleBatches.  A spilling build cuts its batch
// right after the row that first takes the footprint past the budget and
// evicts there, so it decides and charges what a tuple-at-a-time store would.
// All methods return the virtual seconds consumed (CPU per the cost model +
// disk per SimDisk); the caller charges them to its node.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/cost_model.hpp"
#include "core/node_table.hpp"
#include "join/serial_join.hpp"
#include "storage/sim_disk.hpp"
#include "storage/spill_file.hpp"
#include "util/assert.hpp"

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
  /// A resident store whose table fans large batches out to
  /// `intra_threads` lanes; the budget and fanout apply from spill() on.
  HybridHashSpiller(Schema schema, PosRange range, std::uint32_t intra_threads,
                    std::uint64_t memory_budget_bytes, std::size_t fanout,
                    SimDisk& disk, const CostModel& cost,
                    std::uint64_t stream_namespace);

  /// A one-lane store that enforces the budget from construction.
  HybridHashSpiller(Schema schema, PosRange range,
                    std::uint64_t memory_budget_bytes, std::size_t fanout,
                    SimDisk& disk, const CostModel& cost,
                    std::uint64_t stream_namespace,
                    SpillPolicy policy = SpillPolicy::kEvictLargest);

  /// Start enforcing the budget: the rows already held, in extract_range
  /// order, re-run the spilling build over a fresh table.
  double spill(SpillPolicy policy);

  /// Insert build rows; once spilling, may evict sub-partitions.
  double build(const TupleBatch& batch);

  /// Probe into `acc`; once spilling, rows of spilled sub-partitions wait
  /// for finish().  A non-null `sink` receives one Tuple{build_row_id,
  /// probe_row_id} per match -- matches emitted here and in finish()
  /// together mirror `acc` exactly, whichever side of a spill transition
  /// each match lands on.
  double probe(const TupleBatch& batch, JoinResult& acc,
               std::vector<Tuple>* sink = nullptr);

  /// One-row forms of build and probe.
  double add_build(const Tuple& t) { return build(one_row(t)); }
  double add_probe(const Tuple& t, JoinResult& acc,
                   std::vector<Tuple>* sink = nullptr) {
    return probe(one_row(t), acc, sink);
  }

  /// Recovery surgery: drop every row (build and deferred probe) inside
  /// `discard`, then take `new_range` if given.  A spilling store drains
  /// every row (paying the spill files' flush and scan) and feeds the
  /// survivors back through build, then probe, under fresh spill streams.
  double reset(const std::vector<PosRange>& discard,
               const std::optional<PosRange>& new_range, JoinResult& acc,
               std::vector<Tuple>* sink);

  /// Join all spilled (R_k, S_k) pairs into `acc`.  Call once, after both
  /// streams end.
  double finish(JoinResult& acc, std::vector<Tuple>* sink = nullptr);

  /// The resident table, for split, reshuffle and histogram surgery.
  NodeTable& table() {
    EHJA_CHECK_MSG(!enforcing(), "range surgery on a spilling store");
    return table_;
  }

  // --- observability ---
  bool enforcing() const { return !partitions_.empty(); }
  /// Build tuples held, in memory and spilled.
  std::uint64_t build_tuples() const {
    return table_.tuple_count() + spilled_build_tuples();
  }
  std::uint64_t spilled_build_tuples() const;
  std::uint64_t spilled_probe_tuples() const;
  std::size_t spilled_partitions() const;
  std::uint64_t memory_footprint() const { return table_.footprint_bytes(); }
  const PosRange& range() const { return table_.range(); }
  bool any_spilled() const { return spilled_partitions() > 0; }

 private:
  /// One sub-partition.  Spilled, its "disk contents" are two batches in
  /// host memory: the R batch extract_range evicted, moved in whole, then
  /// the build and probe rows that arrive afterwards, appended in order.
  struct Partition {
    PosRange range;
    SpillFile r_file;
    SpillFile s_file;
    bool spilled = false;
    std::uint64_t mem_tuples = 0;  // build tuples currently in memory
    TupleBatch r_rows{};
    TupleBatch s_rows{};
  };

  const TupleBatch& one_row(const Tuple& t) {
    row_.clear();
    row_.push_back(t);
    return row_;
  }
  /// Cut the table's range into sub-partitions with fresh spill streams.
  void cut();
  std::size_t partition_of(std::uint64_t pos) const;
  /// `seconds` plus the evictions the policy makes once over budget.
  double evict_over_budget(double seconds);
  double evict(std::size_t victim);
  /// Append row `i` of `batch` to a spilled side.
  double spill_row(TupleBatch& rows, SpillFile& file, const TupleBatch& batch,
                   std::size_t i);
  double join_partition(Partition& part, JoinResult& acc,
                        std::vector<Tuple>* sink);

  Schema schema_;
  std::uint64_t budget_;
  std::size_t fanout_;
  SpillPolicy policy_ = SpillPolicy::kEvictLargest;
  const CostModel* cost_;
  SimDisk* disk_;
  std::uint64_t stream_namespace_;  // bumped by each spilling rebuild
  NodeTable table_;
  std::vector<Partition> partitions_;  // empty while resident
  TupleBatch row_;       // the one-row forms' batch
  TupleBatch resident_;  // a spilling batch's rows bound for the table
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
