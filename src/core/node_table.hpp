// NodeTable: a join node's partition table with optional intra-node
// parallelism, owned by the node's store (join/grace_join.hpp) resident or
// spilling.
//
// One LocalHashTable at every thread count.  With intra_threads == 1 every
// call goes straight to it -- the historical single-threaded path, byte for
// byte.  With intra_threads > 1 an IntraPool fans insert_batch and
// probe_batch out across its lanes (DESIGN.md §11):
//
//   * build: claim() the batch's slab segment, let each lane link() the
//     rows of one contiguous position sub-range, commit().  Lanes write
//     disjoint chains and slab entries, and per position the rows are
//     linked in batch order, so the table equals the serial one bit for
//     bit -- extract_range, migration, reshuffle and spill eviction see the
//     same order at every thread count;
//   * probe: ensure_index() rebuilds the table's probe run if anything
//     changed the table since the run was built, then each lane probes one
//     row slice of the run, read-only.  The per-lane results are summed and the
//     per-lane captured rows concatenated in lane order: the aggregate and
//     the captured rows equal the serial probe's exactly -- probe rows in
//     batch order, each row's matches in build insertion order.
//
// Everything else (extract_range, set_range, histogram) stays serial: it
// runs in actor context with no parallel region in flight.
//
// Small batches skip the fan-out entirely (kMinRowsPerLane): waking the
// pool for a few hundred rows costs more than the rows do, and the tail
// chunks of a drain are exactly that shape.
//
// Header only, in core/ (not hash/) because it composes hash/ with runtime/
// -- ehja_hash must stay linkable without the runtime layer.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hash/local_hash_table.hpp"
#include "runtime/intra_pool.hpp"

namespace ehja {

/// How intra-node lanes cooperate on the node's table: kShared, they share
/// its one LocalHashTable.  The only value; callers may still name it as
/// NodeTable's last constructor argument.
enum class IntraMode : std::uint8_t {
  kShared = 0,
};

class NodeTable {
 public:
  using BatchProbeResult = LocalHashTable::BatchProbeResult;

  /// Below this many rows per lane the fan-out is pure overhead and the
  /// batch goes through the serial path.
  static constexpr std::size_t kMinRowsPerLane = 256;

  NodeTable(Schema schema, PosRange range, std::uint32_t intra_threads,
            IntraMode = IntraMode::kShared)
      : table_(schema, range) {
    if (intra_threads > 1) pool_.emplace(intra_threads);
  }

  const PosRange& range() const { return table_.range(); }
  std::uint64_t tuple_count() const { return table_.tuple_count(); }
  std::uint64_t footprint_bytes() const { return table_.footprint_bytes(); }

  void insert_batch(const TupleBatch& batch) {
    const unsigned lanes = lanes_for(batch.size());
    if (lanes == 1) {
      table_.insert_batch(batch);
      return;
    }
    const std::size_t base = table_.claim(batch);
    const PosRange& range = table_.range();
    pool_->run([&](unsigned t) {
      const auto [lo, hi] = IntraPool::slice(range.width(), lanes, t);
      table_.link(batch, base, PosRange{range.lo + lo, range.lo + hi});
    });
    table_.commit(batch);
  }

  /// `sink`, when non-null, receives one Tuple{build_row_id, probe_row_id}
  /// per match, in the serial probe's order at every thread count (a row's
  /// matches stay in that row's lane and lanes cover rows in order).
  BatchProbeResult probe_batch(const TupleBatch& batch,
                               std::vector<Tuple>* sink = nullptr) {
    const unsigned lanes = lanes_for(batch.size());
    if (lanes == 1) return table_.probe_batch(batch, sink);
    table_.ensure_index();
    std::vector<BatchProbeResult> per_lane(lanes);
    std::vector<std::vector<Tuple>> lane_rows(sink ? lanes : 0);
    pool_->run([&](unsigned t) {
      const auto [begin, end] = IntraPool::slice(batch.size(), lanes, t);
      per_lane[t] = table_.probe_rows(batch, begin, end,
                                      sink ? &lane_rows[t] : nullptr);
    });
    BatchProbeResult agg;
    for (const BatchProbeResult& r : per_lane) {
      agg.probed += r.probed;
      agg.matches += r.matches;
      agg.comparisons += r.comparisons;
      agg.checksum_delta += r.checksum_delta;
    }
    if (sink) {
      for (const std::vector<Tuple>& rows : lane_rows) {
        sink->insert(sink->end(), rows.begin(), rows.end());
      }
    }
    return agg;
  }

  TupleBatch extract_range(const PosRange& sub) {
    return table_.extract_range(sub);
  }
  void set_range(const PosRange& next) { table_.set_range(next); }
  /// Drop every row and start empty over `r`, freeing the slab.
  void reset(PosRange r) { table_ = LocalHashTable(table_.schema(), r); }
  PositionHistogram histogram() const { return table_.histogram(); }

 private:
  /// Lanes to fan `rows` out to: 1 without a pool or below the cutoff.
  unsigned lanes_for(std::size_t rows) const {
    if (!pool_ || rows < kMinRowsPerLane * pool_->threads()) return 1;
    return pool_->threads();
  }

  LocalHashTable table_;
  std::optional<IntraPool> pool_;
};

}  // namespace ehja
