// A join process's local hash-table partition.
//
// Covers one contiguous position range.  The *position* (high key bits) is
// the unit of partitioning, migration and reshuffling; within a position,
// tuples are indexed by their exact join attribute so that probing costs
// what a well-dimensioned 2004 hash table cost -- a handful of key
// comparisons -- rather than a linear walk over everything sharing the
// position.  (Under the paper's extreme-skew workloads a position can hold
// tens of thousands of distinct keys; a real implementation re-hashes them
// locally, and so must the model, or probe CPU would dwarf every effect the
// paper measures.)
//
// Storage is a flat entry slab with per-position chain heads (one 8-byte
// ChainRef per owned position) -- no per-chain allocations.  Build inserts
// only push onto the chains; extraction, the histogram and range surgery
// walk them.
//
// Probes read a *probe run* instead: the live rows as (key, id) pairs laid
// out contiguously per position, located through one per-position offset
// array.  Any insert, insert_batch, claim, extract_range or set_range makes
// the run stale, and the next probe (or ensure_index) rebuilds it: one
// prefix pass over the chain counts into the offset array, which the table
// keeps and reuses, plus one sequential pass over the slab that fills each
// position back to front and skips the entries extract_range unlinked.  A
// position holding more than kScanRows rows (skew) is stably sorted by key
// and binary-searched; a shorter one keeps insertion order and is scanned
// whole.  Either way a probe row's matches come out in build insertion
// order.  ProbeResult::comparisons still reports what the modeled 2004
// structure pays -- a binary search over the position's rows plus one
// comparison per match -- which the caller charges to the cost model; the
// run is the lookup mechanism, not the cost model.
//
// The batch interface (insert_batch / probe_batch) consumes columnar
// TupleBatches: each row's position is shifted out of its key as the loop
// reads it, and the loops prefetch a few rows ahead -- chain heads when
// inserting, run offsets and segments when probing -- which is where the
// bulk path's throughput over tuple-at-a-time calls comes from.  Results are
// bit-identical to the scalar calls (tests/test_hash.cpp fuzzes the
// equivalence).
//
// The same batch calls come in a form intra-node lanes can share
// (core/node_table.hpp, DESIGN.md §11): claim / link / commit split
// insert_batch so that each lane links the rows of its own contiguous
// position sub-range -- disjoint chains, disjoint slab entries, no locks --
// and probe_rows is a const probe over a row slice once ensure_index() ran.
// The table they leave behind is bit-identical to insert_batch's.
//
// The memory *footprint* is byte-accurate against the declared schema
// (payload included plus per-entry overhead) even though payload bytes are
// not materialized; the owning join process compares footprint_bytes()
// against its node's budget to detect bucket overflow.
//
// Range surgery -- extract_range() for split migration, reshuffle and spill
// eviction, set_range() after a reshuffle -- returns the removed rows as a
// TupleBatch, one column pass over the chains, so the caller can re-chunk,
// ship or spill them as they are, keeping accounting exact.
// (Removed slab entries are never reclaimed; the slab high-water mark is
// bounded by the tuples this node ever inserted.)
//
// histogram() feeds the hybrid reshuffle's global sum: one pass over the
// chain array emits each non-empty chain's (position, count) in position
// order, so the result is as large as the occupied positions, not the
// range (util/histogram.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hash/hash_family.hpp"
#include "relation/tuple.hpp"
#include "relation/tuple_batch.hpp"
#include "util/histogram.hpp"

namespace ehja {

class LocalHashTable {
 public:
  LocalHashTable(Schema schema, PosRange range);

  const PosRange& range() const { return range_; }
  const Schema& schema() const { return schema_; }
  std::uint64_t tuple_count() const { return tuple_count_; }
  std::uint64_t footprint_bytes() const {
    return tuple_count_ * tuple_footprint(schema_);
  }
  bool empty() const { return tuple_count_ == 0; }

  /// Insert a build tuple whose position must lie inside range().
  void insert(const Tuple& t);

  /// Bulk insert of a whole batch (every row's position must lie inside
  /// range()).
  void insert_batch(const TupleBatch& batch);

  /// insert_batch in three steps, for lanes that split the work.  claim()
  /// validates the batch's positions, appends its slab segment (row i
  /// becomes entry base + i; the returned value is base) and makes the
  /// probe run stale.  link() threads the rows whose position lies in
  /// `sub` onto their chains, in row order; calls with disjoint `sub`s
  /// write disjoint chains and slab entries, so they may run concurrently.
  /// commit() adds the batch to the row count.  Once links covering
  /// range() are done, chains and slab equal what insert_batch(batch)
  /// would have built.
  std::size_t claim(const TupleBatch& batch);
  void link(const TupleBatch& batch, std::size_t base, const PosRange& sub);
  void commit(const TupleBatch& batch);

  struct ProbeResult {
    std::uint64_t matches = 0;         // matches found for this tuple
    std::uint64_t comparisons = 0;     // key comparisons performed (cost)
    std::uint64_t checksum_delta = 0;  // sum of match signatures
  };

  /// Aggregate over a whole batch; each field is exactly the sum of the
  /// per-tuple ProbeResults the scalar path would have produced.
  struct BatchProbeResult {
    std::uint64_t probed = 0;
    std::uint64_t matches = 0;
    std::uint64_t comparisons = 0;
    std::uint64_t checksum_delta = 0;
  };

  /// Probe with one tuple of the second relation.  (Rebuilds a stale probe
  /// run, hence non-const.)  When `sink` is non-null every match appends
  /// one Tuple{build_row_id, probe_row_id}, in build insertion order --
  /// exactly one append per checksum_delta contribution, so the captured
  /// rows always equal the counted result.
  ProbeResult probe(const Tuple& s, std::vector<Tuple>* sink = nullptr);

  /// Bulk probe with every tuple of `batch` (same sink contract as probe):
  /// ensure_index() followed by probe_rows over the whole batch.
  BatchProbeResult probe_batch(const TupleBatch& batch,
                               std::vector<Tuple>* sink = nullptr);

  /// Rebuild the probe run if anything changed the table since it was
  /// built.
  void ensure_index();

  /// Probe rows [begin, end) of `batch`; requires ensure_index() since the
  /// last change to the table.  Const, so lanes may probe disjoint row
  /// slices concurrently, each with its own sink.
  BatchProbeResult probe_rows(const TupleBatch& batch, std::size_t begin,
                              std::size_t end,
                              std::vector<Tuple>* sink = nullptr) const;

  /// Remove and return every row whose position lies in `sub` (must be
  /// inside range()), in ascending position and, within a position, in
  /// insertion order; footprint shrinks accordingly.
  TupleBatch extract_range(const PosRange& sub);

  /// Shrink/slide the owned range after a reshuffle; every retained tuple
  /// must lie inside the new range (checked).
  void set_range(const PosRange& next);

  /// Entry count of every non-empty position, in position order, for the
  /// reshuffle global sum.
  PositionHistogram histogram() const;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// chain_next of an entry extract_range unlinked; the run skips it.
  static constexpr std::uint32_t kUnlinked = 0xfffffffeu;
  /// Longest position segment probed by a whole scan; longer ones are
  /// sorted by key and binary-searched.
  static constexpr std::uint32_t kScanRows = 16;

  /// One stored tuple plus its per-position chain link (newest first).
  /// The no-op default constructor keeps vector::resize from zero-filling
  /// slab segments the bulk insert is about to overwrite anyway.
  struct Entry {
    std::uint64_t id;
    std::uint64_t key;
    std::uint32_t chain_next;

    Entry() {}  // intentionally uninitialized
    Entry(std::uint64_t id_, std::uint64_t key_, std::uint32_t chain_next_)
        : id(id_), key(key_), chain_next(chain_next_) {}
  };

  /// One live row of the probe run (uninitialized by default, like Entry).
  struct RunRow {
    std::uint64_t key;
    std::uint64_t id;

    RunRow() {}
    RunRow(std::uint64_t key_, std::uint64_t id_) : key(key_), id(id_) {}
  };

  struct ChainRef {
    std::uint32_t head = kNil;
    std::uint32_t count = 0;
  };

  ChainRef& chain(std::uint64_t pos) {
    return chains_[static_cast<std::size_t>(pos - range_.lo)];
  }
  const ChainRef& chain(std::uint64_t pos) const {
    return chains_[static_cast<std::size_t>(pos - range_.lo)];
  }

  void rebuild_run();
  /// Probe the run segment of position `p` (relative to range_.lo) with
  /// one row.
  ProbeResult probe_position(std::size_t p, std::uint64_t key,
                             std::uint64_t id, std::vector<Tuple>* sink) const;

  Schema schema_;
  PosRange range_;
  std::uint64_t tuple_count_ = 0;
  std::vector<Entry> slab_;       // unlinked entries stay
  std::vector<ChainRef> chains_;  // one per owned position
  // The probe run: position p's live rows are run_[offsets_[p],
  // offsets_[p + 1]).  offsets_ has one more cell than chains_, and is
  // left uninitialized when allocated: every rebuild writes every cell.
  std::unique_ptr<std::uint32_t[]> offsets_;
  std::size_t offset_cells_ = 0;
  std::vector<RunRow> run_;
  bool run_live_ = false;
};

}  // namespace ehja
