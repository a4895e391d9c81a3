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
                                     std::uint64_t memory_budget_bytes,
                                     std::size_t fanout, SimDisk& disk,
                                     const CostModel& cost,
                                     std::uint64_t stream_namespace,
                                     SpillPolicy policy)
    : schema_(schema),
      budget_(memory_budget_bytes),
      policy_(policy),
      cost_(&cost),
      disk_(&disk),
      table_(schema, range) {
  EHJA_CHECK(fanout >= 1);
  EHJA_CHECK_MSG(budget_ >= tuple_footprint(schema),
                 "budget below a single tuple's footprint");
  const std::size_t parts =
      static_cast<std::size_t>(std::min<std::uint64_t>(fanout, range.width()));
  partitions_.reserve(parts);
  for (std::size_t k = 0; k < parts; ++k) {
    Partition part;
    part.range = PosRange{part_boundary(range, k, parts),
                          part_boundary(range, k + 1, parts)};
    // Two streams (R, S) per sub-partition, distinct at any fanout.
    const std::uint64_t base = (stream_namespace * parts + k) * 2;
    part.r_file = std::make_unique<SpillFile>(disk, base);
    part.s_file = std::make_unique<SpillFile>(disk, base + 1);
    partitions_.push_back(std::move(part));
  }
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

double HybridHashSpiller::add_build(const Tuple& t) {
  EHJA_CHECK(!finished_);
  ++build_tuples_;
  const std::uint64_t pos = position_of(t.key);
  Partition& part = partitions_[partition_of(pos)];
  if (part.spilled) {
    part.r_tuples.push_back(t);
    part.r_file->note_records(1);
    return cost_->tuple_pack_sec + part.r_file->append(schema_.tuple_bytes);
  }
  table_.insert(t);
  ++part.mem_tuples;
  double seconds = cost_->tuple_insert_sec;
  if (table_.footprint_bytes() > budget_ &&
      policy_ == SpillPolicy::kEvictAll) {
    // Basic GRACE: the first overflow sends every partition to disk; from
    // here on the whole join streams through the disk.
    for (std::size_t k = 0; k < partitions_.size(); ++k) {
      if (!partitions_[k].spilled) seconds += evict(k);
    }
    return seconds;
  }
  while (table_.footprint_bytes() > budget_) {
    seconds += evict_largest();
  }
  return seconds;
}

double HybridHashSpiller::evict_largest() {
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
  return evict(victim);
}

double HybridHashSpiller::evict(std::size_t victim) {
  Partition& part = partitions_[victim];
  part.spilled = true;
  std::vector<Tuple> evicted = table_.extract_range(part.range);
  EHJA_CHECK(evicted.size() == part.mem_tuples);
  part.mem_tuples = 0;
  double seconds =
      static_cast<double>(evicted.size()) * cost_->tuple_pack_sec;
  seconds += part.r_file->append(evicted.size() * schema_.tuple_bytes);
  part.r_file->note_records(evicted.size());
  if (part.r_tuples.empty()) {
    part.r_tuples = std::move(evicted);
  } else {
    part.r_tuples.insert(part.r_tuples.end(), evicted.begin(), evicted.end());
  }
  return seconds;
}

double HybridHashSpiller::add_probe(const Tuple& t, JoinResult& acc,
                                    std::vector<Tuple>* sink) {
  EHJA_CHECK(!finished_);
  const std::uint64_t pos = position_of(t.key);
  Partition& part = partitions_[partition_of(pos)];
  if (part.spilled) {
    part.s_tuples.push_back(t);
    part.s_file->note_records(1);
    return cost_->tuple_pack_sec + part.s_file->append(schema_.tuple_bytes);
  }
  const auto probe = table_.probe(t, sink);
  acc.matches += probe.matches;
  acc.checksum += probe.checksum_delta;
  return cost_->tuple_probe_sec +
         static_cast<double>(probe.comparisons) * cost_->tuple_compare_sec +
         static_cast<double>(probe.matches) * cost_->match_emit_sec;
}

double HybridHashSpiller::join_partition(Partition& part, JoinResult& acc,
                                         std::vector<Tuple>* sink) {
  double seconds = part.r_file->flush() + part.s_file->flush();
  if (part.r_tuples.empty() || part.s_tuples.empty()) {
    // Still pay the scan of whichever side has data (the 2004 code would
    // read the partition to discover it matches nothing).
    seconds += part.r_file->scan_all();
    seconds += part.s_file->scan_all();
    return seconds;
  }
  const std::uint64_t r_footprint =
      part.r_tuples.size() * tuple_footprint(schema_);
  const std::size_t passes =
      static_cast<std::size_t>(ceil_div(r_footprint, budget_));
  const std::size_t n = part.r_tuples.size();
  for (std::size_t f = 0; f < passes; ++f) {
    const std::size_t begin = n * f / passes;
    const std::size_t end = n * (f + 1) / passes;
    // Read this R fragment and build an in-memory table over it.
    seconds += part.r_file->scan((end - begin) * schema_.tuple_bytes);
    seconds += static_cast<double>(end - begin) * cost_->tuple_insert_sec;
    LocalHashTable fragment(schema_, part.range);
    for (std::size_t i = begin; i < end; ++i) fragment.insert(part.r_tuples[i]);
    // Each pass rescans the full S partition -- the multi-pass penalty.
    seconds += part.s_file->scan(part.s_tuples.size() * schema_.tuple_bytes);
    for (const Tuple& s : part.s_tuples) {
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

double HybridHashSpiller::extract_all(std::vector<Tuple>& build_out,
                                      std::vector<Tuple>& probe_out) {
  EHJA_CHECK(!finished_);
  double seconds = 0.0;
  for (Partition& part : partitions_) {
    if (part.mem_tuples > 0) {
      std::vector<Tuple> mem = table_.extract_range(part.range);
      EHJA_CHECK(mem.size() == part.mem_tuples);
      part.mem_tuples = 0;
      build_out.insert(build_out.end(), mem.begin(), mem.end());
    }
    if (part.spilled) {
      seconds += part.r_file->flush() + part.s_file->flush();
      seconds += part.r_file->scan_all() + part.s_file->scan_all();
      build_out.insert(build_out.end(), part.r_tuples.begin(),
                       part.r_tuples.end());
      probe_out.insert(probe_out.end(), part.s_tuples.begin(),
                       part.s_tuples.end());
      part.r_tuples.clear();
      part.s_tuples.clear();
      part.spilled = false;
    }
  }
  build_tuples_ = 0;
  return seconds;
}

std::uint64_t HybridHashSpiller::spilled_build_tuples() const {
  std::uint64_t n = 0;
  for (const Partition& p : partitions_) n += p.r_tuples.size();
  return n;
}

std::uint64_t HybridHashSpiller::spilled_probe_tuples() const {
  std::uint64_t n = 0;
  for (const Partition& p : partitions_) n += p.s_tuples.size();
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
  for (const Tuple& r : build.tuples()) {
    outcome.seconds += spiller.add_build(r);
  }
  for (const Tuple& s : probe.tuples()) {
    outcome.seconds += spiller.add_probe(s, outcome.result);
  }
  outcome.seconds += spiller.finish(outcome.result);
  outcome.spilled_build_tuples = spiller.spilled_build_tuples();
  outcome.spilled_probe_tuples = spiller.spilled_probe_tuples();
  return outcome;
}

}  // namespace ehja
