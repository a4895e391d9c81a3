#include "hash/local_hash_table.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"
#include "util/rng.hpp"

#if defined(__GNUC__) || defined(__clang__)
#define EHJA_PREFETCH(p) __builtin_prefetch(p)
#define EHJA_PREFETCH_W(p) __builtin_prefetch((p), 1)
#else
#define EHJA_PREFETCH(p) ((void)0)
#define EHJA_PREFETCH_W(p) ((void)0)
#endif

namespace ehja {

namespace {

/// Comparisons a binary search over n sorted keys performs (ceil(log2)+1).
/// This is the *modeled* probe cost of the 2004 structure; the actual
/// lookup goes through the open-addressing key index.
std::uint64_t search_comparisons(std::size_t n) {
  std::uint64_t comparisons = 1;
  while (n > 1) {
    n >>= 1;
    ++comparisons;
  }
  return comparisons;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// How far ahead the batch loops prefetch the chain-head / index-slot
/// cache lines.  Large tables make both arrays miss LLC on random access;
/// a short software pipeline hides most of that latency.
constexpr std::size_t kPrefetchAhead = 16;

/// Abort unless every position of `batch` lies in `range`.  One branchless
/// (vectorizable) scan at batch granularity, so the insert loops carry no
/// per-row range check.  The abort semantics match the scalar path -- the
/// process dies either way, and partial mutation is unobservable past an
/// abort.
void check_positions(const TupleBatch& batch, const PosRange& range) {
  const std::size_t n = batch.size();
  const std::uint32_t* positions = batch.positions().data();
  const std::uint32_t vlo = static_cast<std::uint32_t>(range.lo);
  const std::uint32_t vwidth = static_cast<std::uint32_t>(range.width());
  std::uint32_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bad |= static_cast<std::uint32_t>(positions[i] - vlo >= vwidth);
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
  slab_.push_back(Entry{t.id, t.key, c.head, kNil});
  c.head = e;
  ++c.count;
  ++tuple_count_;
  footprint_bytes_ += tuple_footprint(schema_);
  if (index_built_) index_insert(e);
}

void LocalHashTable::insert_batch(const TupleBatch& batch) {
  const std::size_t n = batch.size();
  if (n == 0) return;
  const std::uint64_t* keys = batch.keys().data();
  const std::uint64_t* ids = batch.ids().data();
  const std::uint32_t* positions = batch.positions().data();
  check_positions(batch, range_);
  // Claim the whole slab segment up front: entry e for row i is base + i,
  // written through a raw pointer so the hot loop carries no capacity
  // checks.  Chain heads are touched with write-intent prefetch -- the
  // random read-modify-write over chains_ is the loop's only miss.
  const std::size_t base = slab_.size();
  slab_.resize(base + n);
  Entry* slab = slab_.data();
  ChainRef* chains = chains_.data();
  const std::uint64_t lo = range_.lo;
  if (!index_built_) {
    // Common case: build phase, no key index to maintain.  Two straight-line
    // stages per row and nothing else -- the prefetched chain-head RMW and a
    // sequential slab store.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC unroll 4
#endif
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kPrefetchAhead < n) {
        EHJA_PREFETCH_W(&chains[static_cast<std::size_t>(
            positions[i + kPrefetchAhead] - lo)]);
      }
      ChainRef& c = chains[static_cast<std::size_t>(positions[i] - lo)];
      const std::uint32_t e = static_cast<std::uint32_t>(base + i);
      slab[e] = Entry{ids[i], keys[i], c.head, kNil};
      c.head = e;
      ++c.count;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      if (i + kPrefetchAhead < n) {
        EHJA_PREFETCH_W(&chains[static_cast<std::size_t>(
            positions[i + kPrefetchAhead] - lo)]);
      }
      ChainRef& c = chains[static_cast<std::size_t>(positions[i] - lo)];
      const std::uint32_t e = static_cast<std::uint32_t>(base + i);
      slab[e] = Entry{ids[i], keys[i], c.head, kNil};
      c.head = e;
      ++c.count;
      index_insert(e);
    }
  }
  commit(batch);
}

std::size_t LocalHashTable::claim(const TupleBatch& batch) {
  check_positions(batch, range_);
  const std::size_t base = slab_.size();
  slab_.resize(base + batch.size());
  // link() does not maintain the index; the next probe rebuilds it.
  index_built_ = false;
  return base;
}

void LocalHashTable::link(const TupleBatch& batch, std::size_t base,
                          const PosRange& sub) {
  EHJA_CHECK(sub.lo >= range_.lo && sub.hi <= range_.hi);
  const std::size_t n = batch.size();
  const std::uint64_t* keys = batch.keys().data();
  const std::uint64_t* ids = batch.ids().data();
  const std::uint32_t* positions = batch.positions().data();
  const std::uint32_t sub_lo = static_cast<std::uint32_t>(sub.lo);
  const std::uint32_t sub_width = static_cast<std::uint32_t>(sub.width());
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
      m += positions[i] - sub_lo < sub_width;
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (j + kPrefetchAhead < m) {
        EHJA_PREFETCH_W(&chains[static_cast<std::size_t>(
            positions[own[j + kPrefetchAhead]] - lo)]);
      }
      const std::size_t i = own[j];
      ChainRef& c = chains[static_cast<std::size_t>(positions[i] - lo)];
      const std::uint32_t e = static_cast<std::uint32_t>(base + i);
      slab[e] = Entry{ids[i], keys[i], c.head, kNil};
      c.head = e;
      ++c.count;
    }
  }
}

void LocalHashTable::commit(const TupleBatch& batch) {
  tuple_count_ += batch.size();
  footprint_bytes_ +=
      static_cast<std::uint64_t>(batch.size()) * tuple_footprint(schema_);
}

LocalHashTable::ProbeResult LocalHashTable::probe(const Tuple& s,
                                                  std::vector<Tuple>* sink) {
  const std::uint64_t pos = position_of(s.key);
  EHJA_CHECK_MSG(range_.contains(pos), "probe outside owned range");
  const ChainRef& c = chain(pos);
  ProbeResult result;
  if (c.count == 0) {
    result.comparisons = 1;
    return result;
  }
  ensure_index();
  result.comparisons = search_comparisons(c.count);
  for (std::uint32_t e = index_find(s.key); e != kNil; e = slab_[e].key_next) {
    ++result.matches;
    ++result.comparisons;
    result.checksum_delta += match_signature(slab_[e].id, s.id);
    if (sink) sink->push_back(Tuple{slab_[e].id, s.id});
  }
  return result;
}

LocalHashTable::BatchProbeResult LocalHashTable::probe_batch(
    const TupleBatch& batch, std::vector<Tuple>* sink) {
  if (batch.size() == 0) return BatchProbeResult{};
  // Any non-empty chain needs the index; building once up front performs
  // the same lookups the scalar path would (build timing is unobservable).
  ensure_index();
  return probe_rows(batch, 0, batch.size(), sink);
}

LocalHashTable::BatchProbeResult LocalHashTable::probe_rows(
    const TupleBatch& batch, std::size_t begin, std::size_t end,
    std::vector<Tuple>* sink) const {
  EHJA_CHECK(begin <= end && end <= batch.size());
  EHJA_CHECK_MSG(index_built_ || tuple_count_ == 0,
                 "probe_rows without ensure_index");
  BatchProbeResult agg;
  agg.probed = end - begin;
  const std::uint64_t* keys = batch.keys().data();
  const std::uint64_t* ids = batch.ids().data();
  const std::uint32_t* positions = batch.positions().data();
  for (std::size_t i = begin; i < end; ++i) {
    if (i + kPrefetchAhead < end) {
      const std::uint64_t ahead = positions[i + kPrefetchAhead];
      if (range_.contains(ahead)) {
        EHJA_PREFETCH(&chains_[static_cast<std::size_t>(ahead - range_.lo)]);
      }
      if (index_built_) {
        EHJA_PREFETCH(
            &index_slots_[SplitMix64::mix(keys[i + kPrefetchAhead]) &
                          index_mask_]);
      }
    }
    const std::uint64_t pos = positions[i];
    EHJA_CHECK_MSG(range_.contains(pos), "probe outside owned range");
    const ChainRef& c = chain(pos);
    if (c.count == 0) {
      agg.comparisons += 1;
      continue;
    }
    agg.comparisons += search_comparisons(c.count);
    for (std::uint32_t e = index_find(keys[i]); e != kNil;
         e = slab_[e].key_next) {
      ++agg.matches;
      ++agg.comparisons;
      agg.checksum_delta += match_signature(slab_[e].id, ids[i]);
      if (sink) sink->push_back(Tuple{slab_[e].id, ids[i]});
    }
  }
  return agg;
}

void LocalHashTable::ensure_index() {
  if (index_built_ || tuple_count_ == 0) return;
  rebuild_index();
  index_built_ = true;
}

void LocalHashTable::rebuild_index() {
  index_keys_ = 0;
  const std::size_t slots = next_pow2(std::max<std::size_t>(
      64, static_cast<std::size_t>(tuple_count_) * 2));
  index_slots_.assign(slots, kNil);
  index_mask_ = slots - 1;
  for (const ChainRef& c : chains_) {
    for (std::uint32_t e = c.head; e != kNil; e = slab_[e].chain_next) {
      index_insert(e);
    }
  }
}

void LocalHashTable::index_insert(std::uint32_t e) {
  // Grow ahead of a distinct-key insert so the load factor stays <= 1/2.
  if ((index_keys_ + 1) * 2 > index_slots_.size()) {
    std::vector<std::uint32_t> old = std::move(index_slots_);
    const std::size_t slots = std::max<std::size_t>(64, old.size() * 2);
    index_slots_.assign(slots, kNil);
    index_mask_ = slots - 1;
    for (std::uint32_t head : old) {
      if (head == kNil) continue;
      std::size_t s = SplitMix64::mix(slab_[head].key) & index_mask_;
      while (index_slots_[s] != kNil) s = (s + 1) & index_mask_;
      index_slots_[s] = head;
    }
  }
  const std::uint64_t key = slab_[e].key;
  std::size_t s = SplitMix64::mix(key) & index_mask_;
  while (true) {
    const std::uint32_t cur = index_slots_[s];
    if (cur == kNil) {
      slab_[e].key_next = kNil;
      index_slots_[s] = e;
      ++index_keys_;
      return;
    }
    if (slab_[cur].key == key) {
      slab_[e].key_next = cur;
      index_slots_[s] = e;
      return;
    }
    s = (s + 1) & index_mask_;
  }
}

std::uint32_t LocalHashTable::index_find(std::uint64_t key) const {
  std::size_t s = SplitMix64::mix(key) & index_mask_;
  while (true) {
    const std::uint32_t e = index_slots_[s];
    if (e == kNil) return kNil;
    if (slab_[e].key == key) return e;
    s = (s + 1) & index_mask_;
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
  const Entry* slab = slab_.data();
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
    const auto pos = static_cast<std::uint32_t>(sub.lo + p);
    for (std::uint32_t e = c.head; e != kNil; e = slab[e].chain_next) {
      --j;
      out.ids[j] = slab[e].id;
      out.keys[j] = slab[e].key;
      out.positions[j] = pos;
    }
    c = ChainRef{};
  }
  tuple_count_ -= rows;
  footprint_bytes_ -= rows * tuple_footprint(schema_);
  // Removed entries stay in the slab but leave the chains; the index would
  // keep resolving them, so it must be rebuilt before the next probe.
  index_built_ = false;
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
  // Every retained entry survived, so the key index (keyed by join
  // attribute, not position) remains valid.
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
