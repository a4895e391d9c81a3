#include "hash/local_hash_table.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/assert.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define EHJA_PREFETCH(p) __builtin_prefetch(p)
#define EHJA_PREFETCH_W(p) __builtin_prefetch((p), 1)
#else
#define EHJA_PREFETCH(p) ((void)0)
#define EHJA_PREFETCH_W(p) ((void)0)
#endif

namespace ehja {

namespace {

/// Comparisons a binary search over n >= 1 sorted keys performs
/// (floor(log2 n) + 1).  This is the *modeled* probe cost of the 2004
/// structure; the actual lookup scans or searches the position's run
/// segment.
std::uint64_t search_comparisons(std::uint32_t n) {
  return static_cast<std::uint64_t>(std::bit_width(n));
}

/// How far ahead the batch loops prefetch the chain heads (insert), the
/// run offsets (run rebuild, probe) and, closer in, the run segment a
/// probe row will read.  Large tables make these arrays miss LLC on random
/// access; a short software pipeline hides most of that latency.
constexpr std::size_t kPrefetchAhead = 16;
constexpr std::size_t kSegmentAhead = 8;

/// Abort unless every position of `batch` lies in `range`.  One branchless
/// (vectorizable) scan over the key column at batch granularity, so the
/// insert loops carry no per-row range check.  The abort semantics match
/// the scalar path -- the process dies either way, and partial mutation is
/// unobservable past an abort.
void check_positions(const TupleBatch& batch, const PosRange& range) {
  const std::size_t n = batch.size();
  const std::uint64_t* keys = batch.keys().data();
  const std::uint64_t lo = range.lo;
  const std::uint64_t width = range.width();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bad |= static_cast<std::uint64_t>(position_of(keys[i]) - lo >= width);
  }
  EHJA_CHECK_MSG(bad == 0, "insert outside owned range");
}

}  // namespace

LocalHashTable::LocalHashTable(Schema schema, PosRange range)
    : schema_(schema), range_(range) {
  EHJA_CHECK(!range.empty());
  chains_.resize(static_cast<std::size_t>(range.width()));
}

void LocalHashTable::insert(const Tuple& t) {
  const std::uint64_t pos = position_of(t.key);
  EHJA_CHECK_MSG(range_.contains(pos), "insert outside owned range");
  ChainRef& c = chain(pos);
  const std::uint32_t e = static_cast<std::uint32_t>(slab_.size());
  slab_.push_back(Entry{t.id, t.key, c.head});
  c.head = e;
  ++c.count;
  ++tuple_count_;
  run_live_ = false;
}

void LocalHashTable::insert_batch(const TupleBatch& batch) {
  const std::size_t n = batch.size();
  if (n == 0) return;
  const std::uint64_t* keys = batch.keys().data();
  const std::uint64_t* ids = batch.ids().data();
  // Claim the whole slab segment up front: entry e for row i is base + i,
  // written through a raw pointer so the hot loop carries no capacity
  // checks.  Chain heads are touched with write-intent prefetch -- the
  // random read-modify-write over chains_ is the loop's only miss.  Two
  // straight-line stages per row and nothing else: the prefetched
  // chain-head RMW and a sequential slab store.
  const std::size_t base = claim(batch);
  Entry* slab = slab_.data();
  ChainRef* chains = chains_.data();
  const std::uint64_t lo = range_.lo;
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC unroll 4
#endif
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchAhead < n) {
      EHJA_PREFETCH_W(&chains[static_cast<std::size_t>(
          position_of(keys[i + kPrefetchAhead]) - lo)]);
    }
    ChainRef& c = chains[static_cast<std::size_t>(position_of(keys[i]) - lo)];
    const std::uint32_t e = static_cast<std::uint32_t>(base + i);
    slab[e] = Entry{ids[i], keys[i], c.head};
    c.head = e;
    ++c.count;
  }
  commit(batch);
}

std::size_t LocalHashTable::claim(const TupleBatch& batch) {
  check_positions(batch, range_);
  const std::size_t base = slab_.size();
  slab_.resize(base + batch.size());
  run_live_ = false;
  return base;
}

void LocalHashTable::link(const TupleBatch& batch, std::size_t base,
                          const PosRange& sub) {
  EHJA_CHECK(sub.lo >= range_.lo && sub.hi <= range_.hi);
  const std::size_t n = batch.size();
  const std::uint64_t* keys = batch.keys().data();
  const std::uint64_t* ids = batch.ids().data();
  const std::uint64_t sub_lo = sub.lo;
  const std::uint64_t sub_width = sub.width();
  Entry* slab = slab_.data();
  ChainRef* chains = chains_.data();
  const std::uint64_t lo = range_.lo;
  // The same chain push as insert_batch, for the rows inside `sub` only:
  // per position the pushes still happen in row order, and only chain
  // heads inside `sub` (and those rows' slab entries) are written.  Rows
  // are taken a block at a time: a branchless pass lists the block's own
  // rows, so the push loop neither mispredicts on ownership nor prefetches
  // another lane's chain heads.
  constexpr std::size_t kBlock = 256;
  std::uint32_t own[kBlock];
  for (std::size_t start = 0; start < n; start += kBlock) {
    const std::size_t stop = std::min(n, start + kBlock);
    std::size_t m = 0;
    for (std::size_t i = start; i < stop; ++i) {
      own[m] = static_cast<std::uint32_t>(i);
      m += position_of(keys[i]) - sub_lo < sub_width;
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (j + kPrefetchAhead < m) {
        EHJA_PREFETCH_W(&chains[static_cast<std::size_t>(
            position_of(keys[own[j + kPrefetchAhead]]) - lo)]);
      }
      const std::size_t i = own[j];
      ChainRef& c = chains[static_cast<std::size_t>(position_of(keys[i]) - lo)];
      const std::uint32_t e = static_cast<std::uint32_t>(base + i);
      slab[e] = Entry{ids[i], keys[i], c.head};
      c.head = e;
      ++c.count;
    }
  }
}

void LocalHashTable::commit(const TupleBatch& batch) {
  tuple_count_ += batch.size();
}

LocalHashTable::ProbeResult LocalHashTable::probe(const Tuple& s,
                                                  std::vector<Tuple>* sink) {
  const std::uint64_t pos = position_of(s.key);
  EHJA_CHECK_MSG(range_.contains(pos), "probe outside owned range");
  ensure_index();
  return probe_position(static_cast<std::size_t>(pos - range_.lo), s.key,
                        s.id, sink);
}

LocalHashTable::BatchProbeResult LocalHashTable::probe_batch(
    const TupleBatch& batch, std::vector<Tuple>* sink) {
  if (batch.size() == 0) return BatchProbeResult{};
  ensure_index();
  return probe_rows(batch, 0, batch.size(), sink);
}

LocalHashTable::BatchProbeResult LocalHashTable::probe_rows(
    const TupleBatch& batch, std::size_t begin, std::size_t end,
    std::vector<Tuple>* sink) const {
  EHJA_CHECK(begin <= end && end <= batch.size());
  EHJA_CHECK_MSG(run_live_, "probe_rows without ensure_index");
  BatchProbeResult agg;
  agg.probed = end - begin;
  const std::uint64_t* keys = batch.keys().data();
  const std::uint64_t* ids = batch.ids().data();
  const std::uint32_t* offsets = offsets_.get();
  const RunRow* run = run_.data();
  const std::uint64_t lo = range_.lo;
  const std::uint64_t width = range_.width();
  for (std::size_t i = begin; i < end; ++i) {
    // Two-stage pipeline: a row's offset cell is fetched kPrefetchAhead
    // rows ahead, and by kSegmentAhead rows ahead it is cached, so the
    // start of the row's segment can be fetched too.
    if (i + kPrefetchAhead < end) {
      const std::uint64_t p = position_of(keys[i + kPrefetchAhead]) - lo;
      if (p < width) EHJA_PREFETCH(&offsets[p]);
    }
    if (i + kSegmentAhead < end) {
      const std::uint64_t p = position_of(keys[i + kSegmentAhead]) - lo;
      if (p < width) EHJA_PREFETCH(run + offsets[p]);
    }
    const std::uint64_t p = position_of(keys[i]) - lo;
    EHJA_CHECK_MSG(p < width, "probe outside owned range");
    const ProbeResult r =
        probe_position(static_cast<std::size_t>(p), keys[i], ids[i], sink);
    agg.matches += r.matches;
    agg.comparisons += r.comparisons;
    agg.checksum_delta += r.checksum_delta;
  }
  return agg;
}

LocalHashTable::ProbeResult LocalHashTable::probe_position(
    std::size_t p, std::uint64_t key, std::uint64_t id,
    std::vector<Tuple>* sink) const {
  ProbeResult result;
  const std::uint32_t n = offsets_[p + 1] - offsets_[p];
  if (n == 0) {
    result.comparisons = 1;
    return result;
  }
  result.comparisons = search_comparisons(n);
  const RunRow* row = run_.data() + offsets_[p];
  const RunRow* const stop = row + n;
  const auto emit = [&](const RunRow& r) {
    ++result.matches;
    ++result.comparisons;
    result.checksum_delta += match_signature(r.id, id);
    if (sink) sink->push_back(Tuple{r.id, id});
  };
  if (n <= kScanRows) {
    for (; row != stop; ++row) {
      if (row->key == key) emit(*row);
    }
    return result;
  }
  row = std::lower_bound(
      row, stop, key,
      [](const RunRow& r, std::uint64_t k) { return r.key < k; });
  for (; row != stop && row->key == key; ++row) emit(*row);
  return result;
}

void LocalHashTable::ensure_index() {
  if (run_live_) return;
  rebuild_run();
  run_live_ = true;
}

void LocalHashTable::rebuild_run() {
  // Prefix pass: offsets_[p] becomes the end of position p's segment, and
  // positions too long to scan are listed for sorting.
  const std::size_t width = chains_.size();
  if (offset_cells_ != width + 1) {
    offsets_ = std::make_unique_for_overwrite<std::uint32_t[]>(width + 1);
    offset_cells_ = width + 1;
  }
  std::uint32_t* offsets = offsets_.get();
  std::vector<std::uint32_t> long_positions;
  std::uint32_t total = 0;
  for (std::size_t p = 0; p < width; ++p) {
    const std::uint32_t n = chains_[p].count;
    total += n;
    offsets[p] = total;
    if (n > kScanRows) long_positions.push_back(static_cast<std::uint32_t>(p));
  }
  offsets[width] = total;
  run_.resize(total);
  // Slab pass, newest entry first: each live row takes the last free cell
  // of its position's segment, so a segment fills back to front, ends in
  // insertion order, and leaves offsets_[p] at its start.  The same
  // two-stage prefetch as the probe, twice as deep: a row here costs less
  // than a probe row.
  const Entry* slab = slab_.data();
  RunRow* run = run_.data();
  const std::uint64_t lo = range_.lo;
  for (std::size_t e = slab_.size(); e-- > 0;) {
    if (e >= 2 * kPrefetchAhead) {
      const std::uint64_t p =
          position_of(slab[e - 2 * kPrefetchAhead].key) - lo;
      if (p < width) EHJA_PREFETCH_W(&offsets[p]);
    }
    if (e >= 2 * kSegmentAhead) {
      const std::uint64_t p = position_of(slab[e - 2 * kSegmentAhead].key) - lo;
      if (p < width && offsets[p] != 0) EHJA_PREFETCH_W(run + offsets[p] - 1);
    }
    const Entry& entry = slab[e];
    if (entry.chain_next == kUnlinked) continue;
    const std::size_t p = static_cast<std::size_t>(position_of(entry.key) - lo);
    run[--offsets[p]] = RunRow{entry.key, entry.id};
  }
  // Long segments are binary-searched; the stable sort keeps equal keys in
  // insertion order.
  for (const std::uint32_t p : long_positions) {
    std::stable_sort(run + offsets[p], run + offsets[p + 1],
                     [](const RunRow& x, const RunRow& y) {
                       return x.key < y.key;
                     });
  }
}

TupleBatch LocalHashTable::extract_range(const PosRange& sub) {
  EHJA_CHECK(sub.lo >= range_.lo && sub.hi <= range_.hi);
  ChainRef* chains = chains_.data() + (sub.lo - range_.lo);
  const std::size_t width = static_cast<std::size_t>(sub.width());
  std::uint64_t rows = 0;
  for (std::size_t p = 0; p < width; ++p) rows += chains[p].count;
  TupleBatch extracted;
  if (rows == 0) return extracted;
  const TupleBatch::Columns out =
      extracted.append_rows(static_cast<std::size_t>(rows));
  Entry* slab = slab_.data();
  std::size_t end = 0;  // one past the current chain's segment
  for (std::size_t p = 0; p < width; ++p) {
    if (p + kPrefetchAhead < width && chains[p + kPrefetchAhead].count != 0) {
      EHJA_PREFETCH(&slab[chains[p + kPrefetchAhead].head]);
    }
    ChainRef& c = chains[p];
    if (c.count == 0) continue;
    // Chains link newest first; filling the chain's segment back to front
    // leaves its rows in insertion order.
    end += c.count;
    std::size_t j = end;
    for (std::uint32_t e = c.head; e != kNil;) {
      --j;
      out.ids[j] = slab[e].id;
      out.keys[j] = slab[e].key;
      // Removed entries stay in the slab; the mark keeps them out of the
      // next run.
      e = std::exchange(slab[e].chain_next, kUnlinked);
    }
    c = ChainRef{};
  }
  tuple_count_ -= rows;
  run_live_ = false;
  return extracted;
}

void LocalHashTable::set_range(const PosRange& next) {
  EHJA_CHECK(!next.empty());
  std::vector<ChainRef> fresh(static_cast<std::size_t>(next.width()));
  std::uint64_t retained = 0;
  for (std::uint64_t pos = range_.lo; pos < range_.hi; ++pos) {
    ChainRef& c = chain(pos);
    if (c.count == 0) continue;
    EHJA_CHECK_MSG(next.contains(pos),
                   "set_range would orphan retained tuples");
    retained += c.count;
    fresh[static_cast<std::size_t>(pos - next.lo)] = c;
  }
  EHJA_CHECK(retained == tuple_count_);
  range_ = next;
  chains_ = std::move(fresh);
  run_live_ = false;  // the offsets are relative to the old range
}

PositionHistogram LocalHashTable::histogram() const {
  PositionHistogram hist(range_.lo, range_.hi);
  // At most one cell per entry; a replica of a large uniform build fills
  // most of its range, so reserving avoids regrowing a near-range-sized list.
  hist.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(tuple_count_, chains_.size())));
  for (std::size_t i = 0; i < chains_.size(); ++i) {
    if (chains_[i].count != 0) hist.push(range_.lo + i, chains_[i].count);
  }
  return hist;
}

}  // namespace ehja
