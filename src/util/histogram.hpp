// Sparse per-position histogram over an integer domain.
//
// The hybrid algorithm's reshuffling step needs per-hash-position entry
// counts summed across a replica set (paper ss4.2.3).  A histogram covers a
// contiguous position range [lo, hi) and holds one cell per *occupied*
// position: strictly increasing (position, count) pairs, every count
// non-zero.  Resolution is one position, so the reshuffle planner
// (core/reshuffle.hpp) cuts exactly where a dense per-position sweep would,
// while building, shipping, merging and planning cost what the data
// occupies rather than the range's width (a small-domain query fills a few
// thousand of 2^20 positions).
#pragma once

#include <cstdint>
#include <vector>

namespace ehja {

class PositionHistogram {
 public:
  struct Cell {
    std::uint64_t position = 0;
    std::uint64_t count = 0;
    bool operator==(const Cell&) const = default;
  };

  PositionHistogram() = default;

  /// Covers [lo, hi) with no cells yet.
  PositionHistogram(std::uint64_t lo, std::uint64_t hi);

  void reserve(std::size_t cells) { cells_.reserve(cells); }

  /// Append `count` (> 0) entries at `position`, which must lie in [lo, hi)
  /// past every cell pushed so far.
  void push(std::uint64_t position, std::uint64_t count);

  /// Cell-wise sum over the same range, by a linear merge of the two sorted
  /// cell lists.  This is the "global sum operation ... among the nodes that
  /// share the same hash table range" from the paper.
  void merge(const PositionHistogram& other);

  std::uint64_t lo() const { return lo_; }
  std::uint64_t hi() const { return hi_; }
  const std::vector<Cell>& cells() const { return cells_; }
  std::uint64_t total() const { return total_; }

  /// Bytes the wire codec writes for this histogram (net/wire.cpp: lo, hi
  /// and the cell count, then one (gap, count) varint pair per cell); the
  /// cost model charges the reshuffle reply by it.
  std::size_t wire_bytes() const;

 private:
  std::uint64_t lo_ = 0;
  std::uint64_t hi_ = 0;
  std::uint64_t total_ = 0;
  std::vector<Cell> cells_;
};

}  // namespace ehja
