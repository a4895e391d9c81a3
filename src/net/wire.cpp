#include "net/wire.hpp"

#include <zlib.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

#include "util/assert.hpp"

namespace ehja::wire {

// --- CRC32 ---

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  return static_cast<std::uint32_t>(::crc32_z(0, data, size));
}

// --- Writer ---

namespace {

/// Write `v` as a LEB128 varint at `p`, which has room for kMaxVarintBytes;
/// returns the end of what it wrote.
std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

/// Byte-swap each of `n` words at `p` on a big-endian host, turning host
/// words into little-endian ones and back; a no-op elsewhere.
void swap_to_le(std::uint8_t* p, std::size_t n) {
  if constexpr (std::endian::native == std::endian::big) {
    for (std::size_t i = 0; i < n; ++i, p += 8) {
      std::uint64_t v;
      std::memcpy(&v, p, 8);
      v = __builtin_bswap64(v);
      std::memcpy(p, &v, 8);
    }
  }
}

}  // namespace

void Writer::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void Writer::u64(std::uint64_t v) { u64s({&v, 1}); }

void Writer::varint(std::uint64_t v) { varints({&v, 1}); }

void Writer::varints(std::span<const std::uint64_t> column) {
  const std::size_t start = buf_.size();
  buf_.resize(start + column.size() * kMaxVarintBytes);
  std::uint8_t* p = buf_.data() + start;
  for (const std::uint64_t v : column) p = put_varint(p, v);
  buf_.resize(static_cast<std::size_t>(p - buf_.data()));
}

void Writer::u64s(std::span<const std::uint64_t> column) {
  const std::size_t start = buf_.size();
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(column.data());
  buf_.insert(buf_.end(), bytes, bytes + column.size_bytes());
  swap_to_le(buf_.data() + start, column.size());
}

void Writer::zigzag(std::int64_t v) {
  varint((static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63));
}

void Writer::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void Writer::bytes(const std::uint8_t* data, std::size_t size) {
  buf_.insert(buf_.end(), data, data + size);
}

// --- Reader ---

std::uint8_t Reader::u8() {
  if (!ok_ || size_ - pos_ < 1) {
    ok_ = false;
    return 0;
  }
  return data_[pos_++];
}

std::uint16_t Reader::u16() {
  if (!ok_ || size_ - pos_ < 2) {
    ok_ = false;
    return 0;
  }
  std::uint16_t v = static_cast<std::uint16_t>(
      data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
  pos_ += 2;
  return v;
}

std::uint32_t Reader::u32() {
  if (!ok_ || size_ - pos_ < 4) {
    ok_ = false;
    return 0;
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  std::uint64_t v = 0;
  u64s({&v, 1});
  return v;
}

void Reader::u64s(std::span<std::uint64_t> column) {
  // An empty column (a zero-row chunk's) may have a null data pointer,
  // which memcpy must not be passed even for zero bytes.
  if (column.empty()) return;
  if (!ok_ || remaining() / 8 < column.size()) {
    ok_ = false;
    std::fill(column.begin(), column.end(), 0);
    return;
  }
  auto* bytes = reinterpret_cast<std::uint8_t*>(column.data());
  std::memcpy(bytes, data_ + pos_, column.size_bytes());
  swap_to_le(bytes, column.size());
  pos_ += column.size_bytes();
}

namespace {

/// Read one varint at `p`, which has kMaxVarintBytes readable bytes;
/// returns how many it took, or 0 for an overlong encoding.
std::size_t get_varint(const std::uint8_t* p, std::uint64_t& v) {
  std::uint64_t x = 0;
  for (std::size_t n = 0; n < kMaxVarintBytes; ++n) {
    const std::uint8_t byte = p[n];
    x |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * n);
    if (!(byte & 0x80)) {
      // The 10th byte may only carry the final bit of a 64-bit value.
      if (n == kMaxVarintBytes - 1 && byte > 1) return 0;
      v = x;
      return n + 1;
    }
  }
  return 0;
}

}  // namespace

std::uint64_t Reader::varint() {
  std::uint64_t v = 0;
  varints({&v, 1});
  return v;
}

void Reader::varints(std::span<std::uint64_t> column) {
  // Locals, so that the column writes cannot make the loop reload them.
  const std::size_t size = size_;
  std::size_t pos = pos_;
  std::size_t i = 0;
  for (; ok_ && i < column.size(); ++i) {
    const std::size_t left = size - pos;
    std::size_t n = 0;
    if (left >= kMaxVarintBytes) {
      n = get_varint(data_ + pos, column[i]);
    } else {
      // Near the end, read a zero-padded copy: a varint cut short ends in
      // the padding, longer than the bytes that are left.
      std::uint8_t tail[kMaxVarintBytes] = {};
      std::memcpy(tail, data_ + pos, left);
      n = get_varint(tail, column[i]);
      if (n > left) n = 0;
    }
    if (n == 0) {
      ok_ = false;
      break;
    }
    pos += n;
  }
  pos_ = pos;
  std::fill(column.begin() + static_cast<std::ptrdiff_t>(i), column.end(), 0);
}

std::int64_t Reader::zigzag() {
  const std::uint64_t v = varint();
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

bool Reader::can_hold(std::uint64_t count, std::size_t min_item_bytes) {
  if (!ok_) return false;
  EHJA_CHECK(min_item_bytes >= 1);
  if (count > remaining() / min_item_bytes) {
    ok_ = false;
    return false;
  }
  return true;
}

// --- field lists ---
//
// One per plain wire struct, in wire order (net/wire.hpp maps field types
// to bytes).  They live in ehja::wire rather than an anonymous namespace
// because the archives find them by argument-dependent lookup.

template <typename A>
bool fields(A& a, PosRange& v) {
  return a(v.lo, v.hi);
}

template <typename A>
bool fields(A& a, PartitionMap::Entry& v) {
  return a(v.range, v.owners);
}

template <typename A>
bool fields(A& a, NodeMetrics& v) {
  return a(v.actor, v.node, v.build_tuples, v.probe_tuples, v.matches,
           v.chunks_received, v.chunks_forwarded, v.max_overshoot_bytes,
           v.spilled_build_tuples, v.spilled_probe_tuples,
           v.spilled_partitions, v.fence_dropped_tuples);
}

/// The scheduler snapshot's metrics: the scheduler-accrued scalars only.
/// The nodes vector, captured rows and the join result are deliberately not
/// carried (the promoted scheduler re-collects them with the final reports).
template <typename A>
bool fields(A& a, RunMetrics& v) {
  return a(v.t_start, v.t_build_end, v.t_reshuffle_end, v.t_probe_end,
           v.t_complete, v.split_time, v.expand_time, v.initial_join_nodes,
           v.expansions, v.final_join_nodes, v.pool_exhausted,
           v.adaptive_splits, v.adaptive_replicas, v.source_build_chunks,
           v.source_probe_chunks, v.extra_build_chunks, v.failures_injected,
           v.failures_detected, v.detection_latency_total,
           v.detection_latency_max, v.false_positive_deaths, v.join_failures,
           v.source_failures, v.scheduler_failovers, v.recoveries,
           v.recovery_time_total, v.replayed_build_tuples,
           v.replayed_probe_tuples, v.build_tuples_total,
           v.probe_tuples_total);
}

template <typename A>
bool fields(A& a, JoinInitPayload& v) {
  return a(v.role, v.range, v.source_count, v.op_id);
}

template <typename A>
bool fields(A& a, StartBuildPayload& v) {
  return a(v.map, v.epoch);
}

template <typename A>
bool fields(A& a, ChunkPayload& v) {
  return a(v.chunk, v.forwarded, v.epoch);
}

template <typename A>
bool fields(A& a, ForwardEndPayload& v) {
  return a(v.op_id);
}

template <typename A>
bool fields(A& a, MemoryFullPayload& v) {
  return a(v.footprint_bytes, v.budget_bytes);
}

template <typename A>
bool fields(A& a, SplitRequestPayload& v) {
  return a(v.op_id, v.moved, v.target);
}

template <typename A>
bool fields(A& a, HandoffStartPayload& v) {
  return a(v.op_id, v.target);
}

template <typename A>
bool fields(A& a, OpCompletePayload& v) {
  return a(v.op_id, v.tuples_received);
}

template <typename A>
bool fields(A& a, MapUpdatePayload& v) {
  return a(v.version, v.map);
}

template <typename A>
bool fields(A& a, SourceDonePayload& v) {
  return a(v.rel, v.chunks_sent, v.tuples_sent, v.chunks_to);
}

template <typename A>
bool fields(A& a, SourceProgressPayload& v) {
  return a(v.rel, v.tuples_sent);
}

template <typename A>
bool fields(A& a, DrainProbePayload& v) {
  return a(v.epoch);
}

template <typename A>
bool fields(A& a, DrainAckPayload& v) {
  return a(v.epoch, v.data_chunks_received, v.data_chunks_forwarded,
           v.received_from, v.forwarded_to);
}

template <typename A>
bool fields(A& a, StartProbePayload& v) {
  return a(v.map, v.epoch);
}

template <typename A>
bool fields(A& a, HistogramRequestPayload& v) {
  return a(v.set_id, v.round);
}

template <typename A>
bool fields(A& a, HistogramReplyPayload& v) {
  return a(v.set_id, v.histogram, v.round);
}

/// The plan re-cuts one replica set's range: valid entries need not start
/// at position 0, so it is a raw entry list, not a PartitionMap.
template <typename A>
bool fields(A& a, ReshuffleMovePayload& v) {
  return a(v.plan, v.round);
}

template <typename A>
bool fields(A& a, ReshuffleDonePayload& v) {
  return a(v.round);
}

template <typename A>
bool fields(A& a, NodeReportPayload& v) {
  return a(v.metrics, fixed64(v.checksum), v.result_rows);
}

template <typename A>
bool fields(A& a, ResultChunkPayload& v) {
  return a(v.chunk, v.first, v.total);
}

template <typename A>
bool fields(A& a, RecoveryFencePayload& v) {
  return a(v.epoch, v.lost);
}

template <typename A>
bool fields(A& a, RangeResetPayload& v) {
  return a(v.epoch, v.discard, v.zero_probe_results, v.new_range, v.retired);
}

template <typename A>
bool fields(A& a, RangeResetAckPayload& v) {
  return a(v.epoch);
}

template <typename A>
bool fields(A& a, ReplayRequestPayload& v) {
  return a(v.epoch, v.rel, v.ranges, v.pause_after);
}

template <typename A>
bool fields(A& a, ReplayDonePayload& v) {
  return a(v.epoch, v.rel, v.tuples_replayed, v.chunks_to,
           v.chunks_sent_total);
}

/// phase holds a SchedulerActor phase, kBuild..kDone (9 values); pool_free
/// holds NodeIds, which share ActorId's representation.
template <typename A>
bool fields(A& a, SchedulerSnapshotPayload& v) {
  return a(v.generation, bounded8(v.phase, 8), v.probe_recovery, v.epoch,
           v.map_version, v.map, v.joins, v.sources, v.dead, v.spilled,
           v.pool_free, v.reshuffle_round, v.drain_epoch, v.source_chunks_to,
           v.metrics);
}

template <typename A>
bool fields(A& a, SchedulerHandoffPayload& v) {
  return a(v.generation, v.epoch);
}

/// done_mask bits 0/1: R/S done; bits 2/3: R/S stream started.
template <typename A>
bool fields(A& a, SchedulerHandoffAckPayload& v) {
  return a(v.generation, bounded8(v.done_mask, 15), v.build_tuples,
           v.probe_tuples, v.build_chunks, v.probe_chunks, v.chunks_to);
}

template <typename A>
bool fields(A& a, DistributionSpec& v) {
  return a(v.kind, v.mean, v.sigma, v.zipf_s, v.domain);
}

template <typename A>
bool fields(A& a, LinkConfig& v) {
  return a(v.topology, v.bandwidth_bytes_per_sec, v.latency_sec,
           v.per_message_overhead_bytes, v.loopback_sec_per_byte,
           v.fault_jitter_sec, v.fault_drop_prob, v.fault_rto_sec,
           fixed64(v.fault_seed));
}

template <typename A>
bool fields(A& a, CostModel& v) {
  return a(v.tuple_generate_sec, v.tuple_insert_sec, v.tuple_probe_sec,
           v.tuple_compare_sec, v.match_emit_sec, v.tuple_pack_sec,
           v.control_handle_sec, v.cpu_scale);
}

template <typename A>
bool fields(A& a, DiskConfig& v) {
  return a(v.write_bytes_per_sec, v.read_bytes_per_sec, v.seek_sec,
           v.io_buffer_bytes);
}

template <typename A>
bool fields(A& a, KillSpec& v) {
  return a(v.role, v.pool_index, v.at_time, v.after_chunks);
}

template <typename A>
bool fields(A& a, FaultPlan& v) {
  return a(v.kills);
}

template <typename A>
bool fields(A& a, FaultToleranceConfig& v) {
  return a(v.force_enabled, v.heartbeat_interval_sec, v.heartbeat_timeout_sec,
           v.detector, v.phi_threshold, v.phi_window, v.standby_scheduler);
}

/// config.trace is deliberately not serialized: tracing is a
/// coordinator-side concern and the sink pointer is meaningless in another
/// process.
template <typename A>
bool fields(A& a, EhjaConfig& v) {
  return a(v.algorithm, v.initial_join_nodes, v.join_pool_nodes,
           v.data_sources, v.node_hash_memory_bytes, v.build_rel, v.probe_rel,
           v.chunk_tuples, v.generation_slice_tuples, fixed64(v.seed),
           v.spill_fanout, v.pick_policy, v.split_variant,
           v.balanced_initial_partition, v.partition_sample, v.link, v.cost, v.disk, v.faults, v.ft,
           v.intra_threads, v.capture_output, v.pipeline_stage);
}

// --- archive overloads defined out of line ---

void Enc::put(const std::string& s) {
  const std::size_t n = std::min(s.size(), kMaxWireString);
  w_.varint(n);
  w_.bytes(reinterpret_cast<const std::uint8_t*>(s.data()), n);
}

bool Dec::get(std::string& s) {
  const std::uint64_t n = r_.varint();
  if (n > kMaxWireString) r_.fail();
  if (!r_.can_hold(n, 1)) return false;
  s.resize(static_cast<std::size_t>(n));
  for (char& c : s) c = static_cast<char>(r_.u8());
  return r_.ok();
}

// Chunks are encoded columnar (all row ids as varints, then all join
// attributes as 8-byte words) so the codec streams each column of the batch
// sequentially; positions are the keys' top bits and never ship.
void Enc::put(const Chunk& v) {
  put(v.rel);
  w_.varint(v.batch.size());
  w_.varints(v.batch.ids());
  w_.u64s(v.batch.keys());
}

/// The fewest bytes one row takes in a Chunk or materialized relation: a
/// one-byte id and an 8-byte key.
constexpr std::size_t kMinRowBytes = 1 + 8;

bool Dec::get(Chunk& v) {
  std::uint64_t count = 0;
  if (!(*this)(v.rel, count) || !r_.can_hold(count, kMinRowBytes)) {
    return false;
  }
  const auto n = static_cast<std::size_t>(count);
  v.batch.clear();
  const TupleBatch::Columns rows = v.batch.append_rows(n);
  r_.varints({rows.ids, n});
  r_.u64s({rows.keys, n});
  return r_.ok();
}

void Enc::put(const PartitionMap& v) { (*this)(v.positions(), v.entries()); }

bool Dec::get(PartitionMap& v) {
  std::uint64_t positions = 0;
  std::vector<PartitionMap::Entry> entries;
  if (!(*this)(positions, entries)) return false;
  // Re-validate PartitionMap::check()'s invariants here, where a violation
  // is a decode error rather than the abort from_entries() would raise.
  if (entries.empty() || entries.front().range.lo != 0 ||
      entries.back().range.hi != positions) {
    r_.fail();
    return false;
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].range.empty() || entries[i].owners.empty() ||
        (i + 1 < entries.size() &&
         entries[i].range.hi != entries[i + 1].range.lo)) {
      r_.fail();
      return false;
    }
  }
  v = PartitionMap::from_entries(std::move(entries), positions);
  return true;
}

// Sparse cells are delta-coded: each gap counts the empty positions since
// the previous cell (or since lo), so a densely occupied range costs about
// two bytes per cell.  PositionHistogram::wire_bytes() mirrors this layout.
void Enc::put(const PositionHistogram& v) {
  (*this)(v.lo(), v.hi(), v.cells().size());
  std::uint64_t next = v.lo();
  for (const PositionHistogram::Cell& c : v.cells()) {
    w_.varint(c.position - next);
    w_.varint(c.count);
    next = c.position + 1;
  }
}

bool Dec::get(PositionHistogram& v) {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t n = 0;
  if (!(*this)(lo, hi, n)) return false;
  // Re-validate what push() would abort on: cells inside [lo, hi) and
  // strictly increasing (a gap can never step back), non-zero counts, and a
  // total that fits in u64.
  if (hi < lo || n > hi - lo || !r_.can_hold(n, 2)) {
    r_.fail();
    return false;
  }
  PositionHistogram hist(lo, hi);
  hist.reserve(static_cast<std::size_t>(n));
  std::uint64_t next = lo;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t gap = r_.varint();
    const std::uint64_t count = r_.varint();
    if (!r_.ok()) return false;
    if (gap >= hi - next || count == 0 ||
        count > std::numeric_limits<std::uint64_t>::max() - hist.total()) {
      r_.fail();
      return false;
    }
    hist.push(next + gap, count);
    next += gap + 1;
  }
  v = std::move(hist);
  return true;
}

// Materialized backing rows (pipeline intermediates) ride inside the
// relation spec behind a presence flag, with the source checksum, in a
// Chunk's column layout: the ids as varints, then the keys as 8-byte words.
void Enc::put(const RelationSpec& v) {
  (*this)(v.tag, v.tuple_count, v.schema.tuple_bytes, v.dist,
          v.data != nullptr);
  if (v.data) {
    w_.u64(v.data->source_checksum);
    const std::vector<Tuple>& rows = v.data->rows;
    std::vector<std::uint64_t> column(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) column[i] = rows[i].id;
    w_.varints(column);
    for (std::size_t i = 0; i < rows.size(); ++i) column[i] = rows[i].key;
    w_.u64s(column);
  }
}

bool Dec::get(RelationSpec& v) {
  if (!(*this)(v.tag, v.tuple_count, v.schema.tuple_bytes)) return false;
  // Schema::payload_bytes() asserts tuple_bytes >= 16; enforce it here so a
  // corrupt config is a decode error, not a later abort.
  if (v.schema.tuple_bytes < 16) {
    r_.fail();
    return false;
  }
  bool has_data = false;
  if (!(*this)(v.dist, has_data)) return false;
  if (!has_data) {
    v.data.reset();
    return true;
  }
  if (!r_.can_hold(v.tuple_count, kMinRowBytes)) return false;
  auto data = std::make_shared<MaterializedRelation>();
  data->source_checksum = r_.u64();
  std::vector<std::uint64_t> ids(static_cast<std::size_t>(v.tuple_count));
  std::vector<std::uint64_t> keys(ids.size());
  r_.varints(ids);
  r_.u64s(keys);
  if (!r_.ok()) return false;
  data->rows.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) data->rows[i] = {ids[i], keys[i]};
  v.data = std::move(data);
  return true;
}

void Enc::put(const EhjaConfig& v) {
  fields(*this, const_cast<EhjaConfig&>(v));
}

bool Dec::get(EhjaConfig& v) {
  v.trace = nullptr;
  return fields(*this, v);
}

// --- message codec ---

namespace {

/// The payload "type" of tags that carry none.
struct Signal {};

/// The protocol's one Tag -> payload-type map: returns
/// f(std::type_identity<T>{}) for the payload type T that `tag` carries
/// (Signal for payload-free tags), or false without calling f when `tag`
/// names no message.
template <typename F>
bool with_payload_type(int tag, F&& f) {
  switch (static_cast<Tag>(tag)) {
    case Tag::kJoinInit:
      return f(std::type_identity<JoinInitPayload>{});
    case Tag::kStartBuild:
      return f(std::type_identity<StartBuildPayload>{});
    case Tag::kDataChunk:
      return f(std::type_identity<ChunkPayload>{});
    case Tag::kForwardEnd:
      return f(std::type_identity<ForwardEndPayload>{});
    case Tag::kMemoryFull:
      return f(std::type_identity<MemoryFullPayload>{});
    case Tag::kSplitRequest:
      return f(std::type_identity<SplitRequestPayload>{});
    case Tag::kHandoffStart:
      return f(std::type_identity<HandoffStartPayload>{});
    case Tag::kOpComplete:
      return f(std::type_identity<OpCompletePayload>{});
    case Tag::kMapUpdate:
      return f(std::type_identity<MapUpdatePayload>{});
    case Tag::kSourceDone:
      return f(std::type_identity<SourceDonePayload>{});
    case Tag::kDrainProbe:
      return f(std::type_identity<DrainProbePayload>{});
    case Tag::kDrainAck:
      return f(std::type_identity<DrainAckPayload>{});
    case Tag::kStartProbe:
      return f(std::type_identity<StartProbePayload>{});
    case Tag::kSourceProgress:
      return f(std::type_identity<SourceProgressPayload>{});
    case Tag::kHistogramRequest:
      return f(std::type_identity<HistogramRequestPayload>{});
    case Tag::kHistogramReply:
      return f(std::type_identity<HistogramReplyPayload>{});
    case Tag::kReshuffleMove:
      return f(std::type_identity<ReshuffleMovePayload>{});
    case Tag::kReshuffleDone:
      return f(std::type_identity<ReshuffleDonePayload>{});
    case Tag::kNodeReport:
      return f(std::type_identity<NodeReportPayload>{});
    case Tag::kResultChunk:
      return f(std::type_identity<ResultChunkPayload>{});
    case Tag::kRecoveryFence:
      return f(std::type_identity<RecoveryFencePayload>{});
    case Tag::kRangeReset:
      return f(std::type_identity<RangeResetPayload>{});
    case Tag::kRangeResetAck:
      return f(std::type_identity<RangeResetAckPayload>{});
    case Tag::kReplayRequest:
      return f(std::type_identity<ReplayRequestPayload>{});
    case Tag::kReplayDone:
      return f(std::type_identity<ReplayDonePayload>{});
    case Tag::kSchedulerSnapshot:
      return f(std::type_identity<SchedulerSnapshotPayload>{});
    case Tag::kSchedulerHandoff:
      return f(std::type_identity<SchedulerHandoffPayload>{});
    case Tag::kSchedulerHandoffAck:
      return f(std::type_identity<SchedulerHandoffAckPayload>{});
    case Tag::kGenSlice:
    case Tag::kRelief:
    case Tag::kSwitchToSpill:
    case Tag::kBuildComplete:
    case Tag::kReportRequest:
    case Tag::kPing:
    case Tag::kPong:
    case Tag::kHeartbeatTick:
      return f(std::type_identity<Signal>{});
  }
  return false;
}

}  // namespace

bool known_tag(int tag) {
  return with_payload_type(tag, [](auto) { return true; });
}

bool tag_has_payload(Tag tag) {
  return with_payload_type(static_cast<int>(tag), [](auto type) {
    return !std::is_same_v<typename decltype(type)::type, Signal>;
  });
}

void encode_message(const Message& msg, Writer& w) {
  Enc out{w};
  const bool known = with_payload_type(msg.tag, [&](auto type) {
    using T = typename decltype(type)::type;
    constexpr bool kSignal = std::is_same_v<T, Signal>;
    EHJA_CHECK_MSG(msg.has_payload() != kSignal,
                   "message payload presence does not match its tag");
    out(msg.tag, msg.from, msg.wire_bytes);
    if constexpr (!kSignal) out(msg.as<T>());
    return true;
  });
  EHJA_CHECK_MSG(known, "encoding message with unknown tag");
}

bool decode_message(Reader& r, Message& out) {
  Dec in{r};
  int tag = 0;
  ActorId from = kInvalidActor;
  std::size_t wire_bytes = 0;
  if (!in(tag, from, wire_bytes)) return false;
  const bool decoded = with_payload_type(tag, [&](auto type) {
    using T = typename decltype(type)::type;
    if constexpr (std::is_same_v<T, Signal>) {
      out = make_signal(static_cast<Tag>(tag), wire_bytes);
    } else {
      T payload;
      if (!in(payload)) return false;
      out = make_message(static_cast<Tag>(tag), std::move(payload),
                         wire_bytes);
    }
    return true;
  });
  if (!decoded) {
    r.fail();
    return false;
  }
  out.from = from;
  return true;
}

// --- config codec ---

void encode_config(const EhjaConfig& config, Writer& w) { Enc{w}(config); }

bool decode_config(Reader& r, EhjaConfig& config) {
  return Dec{r}(config);
}

// --- frame layer ---

namespace {

void store_le32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

}  // namespace

std::size_t begin_frame(std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  out.resize(start + kFrameHeaderBytes);
  return start;
}

void end_frame(std::vector<std::uint8_t>& out, std::size_t start,
               FrameKind kind) {
  EHJA_CHECK(out.size() >= start + kFrameHeaderBytes);
  const std::size_t body_len = out.size() - start - kFrameHeaderBytes;
  EHJA_CHECK_MSG(body_len <= kMaxFrameBody, "frame body exceeds cap");
  std::uint8_t* header = out.data() + start;
  store_le32(header, kFrameMagic);
  header[4] = kWireVersion;
  header[5] = static_cast<std::uint8_t>(kind);
  header[6] = 0;  // reserved
  header[7] = 0;
  store_le32(header + 8, static_cast<std::uint32_t>(body_len));
  store_le32(header + 12, crc32(header + kFrameHeaderBytes, body_len));
}

void append_frame(std::vector<std::uint8_t>& out, FrameKind kind,
                  std::span<const std::uint8_t> body) {
  const std::size_t start = begin_frame(out);
  out.insert(out.end(), body.begin(), body.end());
  end_frame(out, start, kind);
}

FrameStatus try_parse_frame(const std::uint8_t* data, std::size_t size,
                            std::size_t& consumed, FrameView& out,
                            std::string* error) {
  consumed = 0;
  if (size < kFrameHeaderBytes) return FrameStatus::kNeedMore;
  Reader header(data, kFrameHeaderBytes);
  const std::uint32_t magic = header.u32();
  const std::uint8_t version = header.u8();
  const std::uint8_t kind = header.u8();
  header.u16();  // reserved
  const std::uint32_t body_len = header.u32();
  const std::uint32_t crc = header.u32();
  if (magic != kFrameMagic) {
    if (error) *error = "bad frame magic";
    return FrameStatus::kError;
  }
  if (version != kWireVersion) {
    // Distinguish "peer is newer" from garbage: the serve layer turns the
    // former into a polite reject, and both are clean errors, never aborts.
    if (error) {
      *error = version > kWireVersion ? "wire version newer than supported"
                                      : "wire version mismatch";
    }
    return FrameStatus::kError;
  }
  if (kind < static_cast<std::uint8_t>(FrameKind::kHello) ||
      kind > kMaxFrameKind) {
    if (error) *error = "unknown frame kind";
    return FrameStatus::kError;
  }
  if (body_len > kMaxFrameBody) {
    if (error) *error = "frame body exceeds cap";
    return FrameStatus::kError;
  }
  if (size < kFrameHeaderBytes + body_len) return FrameStatus::kNeedMore;
  const std::uint8_t* body = data + kFrameHeaderBytes;
  if (crc32(body, body_len) != crc) {
    if (error) *error = "frame CRC mismatch";
    return FrameStatus::kError;
  }
  out.kind = static_cast<FrameKind>(kind);
  out.body = {body, body_len};
  consumed = kFrameHeaderBytes + body_len;
  return FrameStatus::kFrame;
}

FrameStatus try_parse_frame(const std::uint8_t* data, std::size_t size,
                            std::size_t& consumed, Frame& out,
                            std::string* error) {
  FrameView view;
  const FrameStatus st = try_parse_frame(data, size, consumed, view, error);
  if (st == FrameStatus::kFrame) {
    out.kind = view.kind;
    out.body.assign(view.body.begin(), view.body.end());
  }
  return st;
}

}  // namespace ehja::wire
