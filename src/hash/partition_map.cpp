#include "hash/partition_map.hpp"

#include <iterator>
#include <utility>

#include "util/assert.hpp"

namespace ehja {

PartitionMap PartitionMap::initial(const std::vector<ActorId>& owners,
                                   std::uint64_t positions) {
  EHJA_CHECK(!owners.empty());
  PartitionMap map;
  map.positions_ = positions;
  const auto ranges =
      equal_ranges(static_cast<std::uint32_t>(owners.size()), positions);
  map.entries_.reserve(owners.size());
  for (std::size_t j = 0; j < owners.size(); ++j) {
    map.entries_.push_back(Entry{ranges[j], {owners[j]}});
  }
  map.check();
  return map;
}

PartitionMap PartitionMap::from_entries(std::vector<Entry> entries,
                                        std::uint64_t positions) {
  PartitionMap map;
  map.positions_ = positions;
  map.entries_ = std::move(entries);
  map.check();
  return map;
}

std::size_t PartitionMap::index_for(std::uint64_t pos) const {
  EHJA_CHECK(pos < positions_ && !entries_.empty());
  // The last entry whose range starts at or below pos; check() pins
  // entries_[0].range.lo to 0, so there always is one.  Branchless: a
  // source routes rows at random positions, so a branching search would
  // mispredict about half its steps.  The answer stays in [base, base + n).
  const Entry* base = entries_.data();
  std::size_t n = entries_.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half].range.lo <= pos ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - entries_.data());
}

const PartitionMap::Entry& PartitionMap::entry_for(std::uint64_t pos) const {
  return entries_[index_for(pos)];
}

std::size_t PartitionMap::owner_slots() const {
  std::size_t slots = 0;
  for (const Entry& e : entries_) slots += e.owners.size();
  return slots;
}

void PartitionMap::split_entry(std::size_t index, std::uint64_t mid,
                               ActorId new_owner) {
  EHJA_CHECK(index < entries_.size());
  Entry& entry = entries_[index];
  EHJA_CHECK(mid > entry.range.lo && mid < entry.range.hi);
  EHJA_CHECK_MSG(entry.owners.size() == 1,
                 "cannot split a replicated range");
  Entry upper{PosRange{mid, entry.range.hi}, {new_owner}};
  entry.range.hi = mid;
  entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(index) + 1,
                  std::move(upper));
}

void PartitionMap::add_replica(std::size_t index, ActorId new_owner) {
  EHJA_CHECK(index < entries_.size());
  Entry& entry = entries_[index];
  // The newest replica becomes the active owner; older replicas stay for
  // the probe-phase broadcast.
  entry.owners.insert(entry.owners.begin(), new_owner);
}

void PartitionMap::replace_entry(std::size_t index,
                                 std::vector<Entry> replacements) {
  EHJA_CHECK(index < entries_.size());
  EHJA_CHECK(!replacements.empty());
  const PosRange original = entries_[index].range;
  EHJA_CHECK(replacements.front().range.lo == original.lo);
  EHJA_CHECK(replacements.back().range.hi == original.hi);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(index));
  entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(index),
                  std::make_move_iterator(replacements.begin()),
                  std::make_move_iterator(replacements.end()));
  check();
}

std::size_t PartitionMap::wire_bytes() const {
  std::size_t bytes = 32;
  for (const Entry& e : entries_) bytes += 16 + 4 * e.owners.size();
  return bytes;
}

void PartitionMap::check() const {
  EHJA_CHECK(!entries_.empty());
  EHJA_CHECK(entries_.front().range.lo == 0);
  EHJA_CHECK(entries_.back().range.hi == positions_);
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    EHJA_CHECK(!entries_[i].range.empty());
    EHJA_CHECK(!entries_[i].owners.empty());
    if (i + 1 < entries_.size()) {
      EHJA_CHECK(entries_[i].range.hi == entries_[i + 1].range.lo);
    }
  }
}

}  // namespace ehja
