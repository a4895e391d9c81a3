// Columnar tuple batch: the unit of the data plane.
//
// A batch stores the paper's synthetic tuples decomposed into parallel
// columns -- row ids, join attributes, and a precomputed hash-position
// column -- so that the hot paths (partitioning at the sources, bulk
// build/probe at the join processes, the wire codec) stream over contiguous
// arrays instead of chasing an array-of-structs one tuple at a time.  The
// position column is the "hash column": position_of(key) is evaluated once,
// where the tuple is materialized, and every later consumer (routing,
// fences, forward tables, hash-table build) reads it instead of re-hashing.
//
// The schema's payload-size column is degenerate -- every tuple of a
// relation carries the same payload_bytes() -- so it is represented by the
// Schema rather than per-row storage; payload bytes still flow through all
// footprint and wire-cost computations.
//
// Builder API: append()/push_back() grow all columns in lockstep;
// append_row()/append_range() copy rows across batches without re-hashing;
// append_rows() hands out raw columns for a bulk writer to fill.
// Iterator API: begin()/end() yield materialized Tuple values for code that
// wants row-at-a-time access (tests, the serial reference join).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hash/hash_family.hpp"
#include "relation/tuple.hpp"

namespace ehja {

class TupleBatch {
 public:
  TupleBatch() = default;

  static TupleBatch from_tuples(const std::vector<Tuple>& tuples);

  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  void reserve(std::size_t n);
  void clear();

  /// Append one tuple, computing its hash position.
  void append(std::uint64_t id, std::uint64_t key) {
    ids_.push_back(id);
    keys_.push_back(key);
    positions_.push_back(static_cast<std::uint32_t>(position_of(key)));
  }
  void push_back(const Tuple& t) { append(t.id, t.key); }

  /// Copy row `i` of `src` without re-hashing.
  void append_row(const TupleBatch& src, std::size_t i) {
    ids_.push_back(src.ids_[i]);
    keys_.push_back(src.keys_[i]);
    positions_.push_back(src.positions_[i]);
  }

  /// Bulk-copy rows [begin, end) of `src` (column memcpy, no re-hashing).
  void append_range(const TupleBatch& src, std::size_t begin, std::size_t end);

  /// The columns of `n` rows appended for the caller to fill in place; the
  /// caller writes position_of(key) into every position it fills.
  struct Columns {
    std::uint64_t* ids;
    std::uint64_t* keys;
    std::uint32_t* positions;
  };
  Columns append_rows(std::size_t n);

  std::uint64_t id(std::size_t i) const { return ids_[i]; }
  std::uint64_t key(std::size_t i) const { return keys_[i]; }
  /// Precomputed position_of(key(i)).
  std::uint64_t position(std::size_t i) const { return positions_[i]; }
  Tuple tuple(std::size_t i) const { return Tuple{ids_[i], keys_[i]}; }

  const std::vector<std::uint64_t>& ids() const { return ids_; }
  const std::vector<std::uint64_t>& keys() const { return keys_; }
  const std::vector<std::uint32_t>& positions() const { return positions_; }

  /// Row-at-a-time view materializing Tuple values.
  class const_iterator {
   public:
    const_iterator(const TupleBatch* batch, std::size_t i)
        : batch_(batch), i_(i) {}
    Tuple operator*() const { return batch_->tuple(i_); }
    const_iterator& operator++() {
      ++i_;
      return *this;
    }
    friend bool operator==(const const_iterator&,
                           const const_iterator&) = default;

   private:
    const TupleBatch* batch_;
    std::size_t i_;
  };
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  /// Row-wise equality (positions are derived, hence not compared twice).
  friend bool operator==(const TupleBatch& a, const TupleBatch& b) {
    return a.ids_ == b.ids_ && a.keys_ == b.keys_;
  }

 private:
  std::vector<std::uint64_t> ids_;
  std::vector<std::uint64_t> keys_;
  // Positions fit in 32 bits (kPositionBits <= 32 by construction); the
  // narrower column halves the bytes the partition passes stream.
  std::vector<std::uint32_t> positions_;
};

static_assert(kPositionBits <= 32, "position column is stored as uint32");

}  // namespace ehja
