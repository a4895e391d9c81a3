// Columnar tuple batch: the unit of the data plane.
//
// A batch stores the paper's synthetic tuples decomposed into two parallel
// columns -- row ids and join attributes -- so that the hot paths
// (partitioning at the sources, bulk build/probe at the join processes, the
// wire codec) stream over contiguous arrays instead of chasing an
// array-of-structs one tuple at a time.  A row's hash position is not
// stored: position(i) is position_of(key(i)), a single shift, which every
// consumer (routing, fences, forward tables, hash-table build) evaluates
// where it reads the key.  A row costs 16 bytes in every batch.
//
// The schema's payload-size column is degenerate -- every tuple of a
// relation carries the same payload_bytes() -- so it is represented by the
// Schema rather than per-row storage; payload bytes still flow through all
// footprint and wire-cost computations.
//
// Builder API: append()/push_back() grow both columns in lockstep;
// append_row()/append_range() copy rows across batches; append_rows()
// hands out raw columns for a bulk writer to fill.
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

  void append(std::uint64_t id, std::uint64_t key) {
    ids_.push_back(id);
    keys_.push_back(key);
  }
  void push_back(const Tuple& t) { append(t.id, t.key); }

  /// Copy row `i` of `src`.
  void append_row(const TupleBatch& src, std::size_t i) {
    append(src.ids_[i], src.keys_[i]);
  }

  /// Bulk-copy rows [begin, end) of `src` (one memcpy per column).
  void append_range(const TupleBatch& src, std::size_t begin, std::size_t end);

  /// The columns of `n` rows appended for the caller to fill in place.
  struct Columns {
    std::uint64_t* ids;
    std::uint64_t* keys;
  };
  Columns append_rows(std::size_t n);

  std::uint64_t id(std::size_t i) const { return ids_[i]; }
  std::uint64_t key(std::size_t i) const { return keys_[i]; }
  std::uint64_t position(std::size_t i) const { return position_of(keys_[i]); }
  Tuple tuple(std::size_t i) const { return Tuple{ids_[i], keys_[i]}; }

  const std::vector<std::uint64_t>& ids() const { return ids_; }
  const std::vector<std::uint64_t>& keys() const { return keys_; }

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

  friend bool operator==(const TupleBatch&, const TupleBatch&) = default;

 private:
  std::vector<std::uint64_t> ids_;
  std::vector<std::uint64_t> keys_;
};

}  // namespace ehja
