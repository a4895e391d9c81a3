#include "util/histogram.hpp"

#include <limits>
#include <utility>

#include "net/wire_format.hpp"
#include "util/assert.hpp"

namespace ehja {

PositionHistogram::PositionHistogram(std::uint64_t lo, std::uint64_t hi)
    : lo_(lo), hi_(hi) {
  EHJA_CHECK(lo <= hi);
}

void PositionHistogram::push(std::uint64_t position, std::uint64_t count) {
  EHJA_CHECK_MSG(position >= lo_ && position < hi_,
                 "position outside histogram range");
  EHJA_CHECK_MSG(cells_.empty() || position > cells_.back().position,
                 "histogram cells pushed out of order");
  EHJA_CHECK(count > 0);
  EHJA_CHECK(count <= std::numeric_limits<std::uint64_t>::max() - total_);
  cells_.push_back(Cell{position, count});
  total_ += count;
}

void PositionHistogram::merge(const PositionHistogram& other) {
  EHJA_CHECK_MSG(lo_ == other.lo_ && hi_ == other.hi_,
                 "histogram range mismatch in merge");
  EHJA_CHECK(other.total_ <=
             std::numeric_limits<std::uint64_t>::max() - total_);
  std::vector<Cell> sum;
  sum.reserve(cells_.size() + other.cells_.size());
  auto a = cells_.begin();
  auto b = other.cells_.begin();
  while (a != cells_.end() && b != other.cells_.end()) {
    if (a->position < b->position) {
      sum.push_back(*a++);
    } else if (b->position < a->position) {
      sum.push_back(*b++);
    } else {
      sum.push_back(Cell{a->position, a->count + b->count});
      ++a;
      ++b;
    }
  }
  sum.insert(sum.end(), a, cells_.end());
  sum.insert(sum.end(), b, other.cells_.end());
  cells_ = std::move(sum);
  total_ += other.total_;
}

std::size_t PositionHistogram::wire_bytes() const {
  std::size_t bytes = wire::varint_bytes(lo_) + wire::varint_bytes(hi_) +
                      wire::varint_bytes(cells_.size());
  std::uint64_t next = lo_;  // first position the next gap counts from
  for (const Cell& c : cells_) {
    bytes += wire::varint_bytes(c.position - next) +
             wire::varint_bytes(c.count);
    next = c.position + 1;
  }
  return bytes;
}

}  // namespace ehja
