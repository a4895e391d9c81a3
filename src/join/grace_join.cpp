#include "join/grace_join.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace ehja {

namespace {

std::uint64_t part_boundary(const PosRange& range, std::size_t k,
                            std::size_t fanout) {
  return range.lo + range.width() * k / fanout;
}

}  // namespace

HybridHashSpiller::HybridHashSpiller(Schema schema, PosRange range,
                                     std::uint32_t intra_threads,
                                     std::uint64_t memory_budget_bytes,
                                     std::size_t fanout, SimDisk& disk,
                                     const CostModel& cost,
                                     std::uint64_t stream_namespace)
    : schema_(schema),
      budget_(memory_budget_bytes),
      fanout_(fanout),
      cost_(&cost),
      disk_(&disk),
      stream_namespace_(stream_namespace),
      table_(schema, range, intra_threads) {
  EHJA_CHECK(fanout >= 1);
}

HybridHashSpiller::HybridHashSpiller(Schema schema, PosRange range,
                                     std::uint64_t memory_budget_bytes,
                                     std::size_t fanout, SimDisk& disk,
                                     const CostModel& cost,
                                     std::uint64_t stream_namespace,
                                     SpillPolicy policy)
    : HybridHashSpiller(schema, range, 1, memory_budget_bytes, fanout, disk,
                        cost, stream_namespace) {
  spill(policy);
}

void HybridHashSpiller::cut() {
  const PosRange& range = table_.range();
  const std::size_t parts = static_cast<std::size_t>(
      std::min<std::uint64_t>(fanout_, range.width()));
  partitions_.clear();
  for (std::size_t k = 0; k < parts; ++k) {
    // Two streams (R, S) per sub-partition, distinct at any fanout.
    const std::uint64_t base = (stream_namespace_ * parts + k) * 2;
    const PosRange sub{part_boundary(range, k, parts),
                       part_boundary(range, k + 1, parts)};
    partitions_.push_back(Partition{sub, SpillFile(*disk_, base),
                                    SpillFile(*disk_, base + 1)});
  }
}

double HybridHashSpiller::spill(SpillPolicy policy) {
  EHJA_CHECK_MSG(!enforcing(), "already spilling");
  EHJA_CHECK_MSG(budget_ >= tuple_footprint(schema_),
                 "budget below a single tuple's footprint");
  policy_ = policy;
  cut();
  if (table_.tuple_count() == 0) return 0.0;
  // Re-home the rows held so far; evictions are charged as disk writes.
  const TupleBatch rows = table_.extract_range(range());
  table_.reset(range());
  return build(rows);
}

std::size_t HybridHashSpiller::partition_of(std::uint64_t pos) const {
  const PosRange& range = table_.range();
  EHJA_CHECK(range.contains(pos));
  std::size_t k = static_cast<std::size_t>((pos - range.lo) *
                                           partitions_.size() / range.width());
  k = std::min(k, partitions_.size() - 1);
  // Integer rounding can land one partition off; fix up locally.
  while (pos < partitions_[k].range.lo) --k;
  while (pos >= partitions_[k].range.hi) ++k;
  return k;
}

double HybridHashSpiller::build(const TupleBatch& batch) {
  if (!enforcing()) {
    table_.insert_batch(batch);
    return static_cast<double>(batch.size()) * cost_->tuple_insert_sec;
  }
  EHJA_CHECK(!finished_);
  const std::uint64_t row_bytes = tuple_footprint(schema_);
  double seconds = 0.0;
  std::size_t i = 0;
  while (i < batch.size()) {
    // In-memory rows the table takes before its footprint passes the
    // budget; the next one is the cut.
    const std::uint64_t footprint = table_.footprint_bytes();
    const std::uint64_t room =
        footprint < budget_ ? (budget_ - footprint) / row_bytes : 0;
    resident_.clear();
    bool over = false;
    for (; i < batch.size() && !over; ++i) {
      Partition& part = partitions_[partition_of(batch.position(i))];
      if (part.spilled) {
        seconds += spill_row(part.r_rows, part.r_file, batch, i);
        continue;
      }
      resident_.append_row(batch, i);
      ++part.mem_tuples;
      over = resident_.size() > room;
      if (!over) seconds += cost_->tuple_insert_sec;
    }
    table_.insert_batch(resident_);
    if (over) seconds += evict_over_budget(cost_->tuple_insert_sec);
  }
  return seconds;
}

double HybridHashSpiller::evict_over_budget(double seconds) {
  if (policy_ == SpillPolicy::kEvictAll) {
    // Basic GRACE: the first overflow sends every partition to disk; from
    // here on the whole join streams through the disk.
    for (std::size_t k = 0; k < partitions_.size(); ++k) {
      if (!partitions_[k].spilled) seconds += evict(k);
    }
  }
  while (table_.footprint_bytes() > budget_) {
    std::size_t victim = partitions_.size();
    for (std::size_t k = 0; k < partitions_.size(); ++k) {
      if (partitions_[k].spilled) continue;
      if (victim == partitions_.size() ||
          partitions_[k].mem_tuples > partitions_[victim].mem_tuples) {
        victim = k;
      }
    }
    EHJA_CHECK_MSG(victim < partitions_.size(),
                   "over budget with every partition already spilled");
    seconds += evict(victim);
  }
  return seconds;
}

double HybridHashSpiller::evict(std::size_t victim) {
  Partition& part = partitions_[victim];
  // A sub-partition is evicted at most once per cut, and rows only spill
  // to it after that, so the extracted batch becomes its R side whole.
  EHJA_CHECK(!part.spilled && part.r_rows.empty());
  part.spilled = true;
  part.r_rows = table_.extract_range(part.range);
  EHJA_CHECK(part.r_rows.size() == part.mem_tuples);
  part.mem_tuples = 0;
  const std::size_t rows = part.r_rows.size();
  return static_cast<double>(rows) * cost_->tuple_pack_sec +
         part.r_file.append(rows * schema_.tuple_bytes);
}

double HybridHashSpiller::spill_row(TupleBatch& rows, SpillFile& file,
                                    const TupleBatch& batch, std::size_t i) {
  rows.append_row(batch, i);
  return cost_->tuple_pack_sec + file.append(schema_.tuple_bytes);
}

double HybridHashSpiller::probe(const TupleBatch& batch, JoinResult& acc,
                                std::vector<Tuple>* sink) {
  double seconds = 0.0;
  const TupleBatch* resident = &batch;
  if (enforcing()) {
    EHJA_CHECK(!finished_);
    resident_.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Partition& part = partitions_[partition_of(batch.position(i))];
      if (part.spilled) {
        seconds += spill_row(part.s_rows, part.s_file, batch, i);
      } else {
        resident_.append_row(batch, i);
      }
    }
    resident = &resident_;
  }
  if (resident->empty()) return seconds;
  const auto agg = table_.probe_batch(*resident, sink);
  acc.matches += agg.matches;
  acc.checksum += agg.checksum_delta;
  return seconds +
         (static_cast<double>(agg.probed) * cost_->tuple_probe_sec +
          static_cast<double>(agg.comparisons) * cost_->tuple_compare_sec +
          static_cast<double>(agg.matches) * cost_->match_emit_sec);
}

double HybridHashSpiller::reset(const std::vector<PosRange>& discard,
                                const std::optional<PosRange>& new_range,
                                JoinResult& acc, std::vector<Tuple>* sink) {
  if (!enforcing()) {
    std::uint64_t dropped = 0;
    for (const PosRange& r : discard) {
      const std::uint64_t lo = std::max(r.lo, range().lo);
      const std::uint64_t hi = std::min(r.hi, range().hi);
      if (lo < hi) dropped += table_.extract_range(PosRange{lo, hi}).size();
    }
    if (new_range.has_value()) table_.set_range(*new_range);
    return static_cast<double>(dropped) * cost_->tuple_insert_sec;
  }
  EHJA_CHECK(!finished_);
  TupleBatch build_keep;
  TupleBatch probe_keep;
  const auto keep = [&discard](TupleBatch& out, const TupleBatch& in) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      const std::uint64_t pos = in.position(i);
      const auto covers = [pos](const PosRange& r) { return r.contains(pos); };
      if (std::none_of(discard.begin(), discard.end(), covers)) {
        out.append_row(in, i);
      }
    }
  };
  // Drain in sub-partition order: in-memory rows, then the spill files'.
  double seconds = 0.0;
  for (Partition& part : partitions_) {
    keep(build_keep, table_.extract_range(part.range));
    if (part.spilled) {
      seconds += part.r_file.flush() + part.s_file.flush();
      seconds += part.r_file.scan_all() + part.s_file.scan_all();
      keep(build_keep, part.r_rows);
      keep(probe_keep, part.s_rows);
    }
  }
  // The survivors re-run the dynamic hybrid-hash discipline under fresh
  // spill streams; deferred probes of still-spilled sub-partitions re-join
  // at finish() exactly once, as before the reset.
  table_.reset(new_range.value_or(range()));
  stream_namespace_ += std::uint64_t{1} << 20;
  cut();
  seconds += build(build_keep);
  return seconds + probe(probe_keep, acc, sink);
}

double HybridHashSpiller::join_partition(Partition& part, JoinResult& acc,
                                         std::vector<Tuple>* sink) {
  double seconds = part.r_file.flush() + part.s_file.flush();
  if (part.r_rows.empty() || part.s_rows.empty()) {
    // Still pay the scan of whichever side has data (the 2004 code would
    // read the partition to discover it matches nothing).
    seconds += part.r_file.scan_all();
    seconds += part.s_file.scan_all();
    return seconds;
  }
  const std::size_t n = part.r_rows.size();
  const std::size_t passes = static_cast<std::size_t>(
      ceil_div(n * tuple_footprint(schema_), budget_));
  TupleBatch slice;
  for (std::size_t f = 0; f < passes; ++f) {
    const std::size_t begin = n * f / passes;
    const std::size_t end = n * (f + 1) / passes;
    // Read this R fragment and build an in-memory table over it.
    seconds += part.r_file.scan((end - begin) * schema_.tuple_bytes);
    seconds += static_cast<double>(end - begin) * cost_->tuple_insert_sec;
    // One pass builds over the whole R side in place; more copy a slice.
    const TupleBatch* rows = &part.r_rows;
    if (passes > 1) {
      slice.clear();
      slice.append_range(part.r_rows, begin, end);
      rows = &slice;
    }
    LocalHashTable fragment(schema_, part.range);
    fragment.insert_batch(*rows);
    // Each pass rescans the full S partition -- the multi-pass penalty.
    seconds += part.s_file.scan(part.s_rows.size() * schema_.tuple_bytes);
    for (const Tuple s : part.s_rows) {
      seconds += cost_->tuple_probe_sec;
      const auto probe = fragment.probe(s, sink);
      acc.matches += probe.matches;
      acc.checksum += probe.checksum_delta;
      // Charged one match at a time, not multiplied out: floating-point
      // sums depend on their order, and modeled times are compared bit for
      // bit across runs and builds.
      for (std::uint64_t m = 0; m < probe.matches; ++m) {
        seconds += cost_->tuple_compare_sec + cost_->match_emit_sec;
      }
    }
  }
  return seconds;
}

double HybridHashSpiller::finish(JoinResult& acc, std::vector<Tuple>* sink) {
  EHJA_CHECK(!finished_);
  finished_ = true;
  double seconds = 0.0;
  for (Partition& part : partitions_) {
    if (!part.spilled) continue;
    seconds += join_partition(part, acc, sink);
  }
  return seconds;
}

std::uint64_t HybridHashSpiller::spilled_build_tuples() const {
  std::uint64_t n = 0;
  for (const Partition& p : partitions_) n += p.r_rows.size();
  return n;
}

std::uint64_t HybridHashSpiller::spilled_probe_tuples() const {
  std::uint64_t n = 0;
  for (const Partition& p : partitions_) n += p.s_rows.size();
  return n;
}

std::size_t HybridHashSpiller::spilled_partitions() const {
  std::size_t n = 0;
  for (const Partition& p : partitions_) n += p.spilled ? 1 : 0;
  return n;
}

GraceOutcome grace_join(const Relation& build, const Relation& probe,
                        std::uint64_t memory_budget_bytes, std::size_t fanout,
                        SimDisk& disk, const CostModel& cost) {
  HybridHashSpiller spiller(build.schema(), PosRange{0, kPositionCount},
                            memory_budget_bytes, fanout, disk, cost,
                            /*stream_namespace=*/1);
  GraceOutcome outcome;
  outcome.seconds += spiller.build(TupleBatch::from_tuples(build.tuples()));
  outcome.seconds +=
      spiller.probe(TupleBatch::from_tuples(probe.tuples()), outcome.result);
  outcome.seconds += spiller.finish(outcome.result);
  outcome.spilled_build_tuples = spiller.spilled_build_tuples();
  outcome.spilled_probe_tuples = spiller.spilled_probe_tuples();
  return outcome;
}

}  // namespace ehja
