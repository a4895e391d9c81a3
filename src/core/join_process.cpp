#include "core/join_process.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace ehja {

JoinProcessActor::JoinProcessActor(std::shared_ptr<const EhjaConfig> config,
                                   ActorId scheduler)
    : config_(std::move(config)), scheduler_(scheduler), disk_(config_->disk) {}

std::string JoinProcessActor::name() const {
  std::ostringstream os;
  os << "join[" << id() << "]";
  return os.str();
}

std::uint64_t JoinProcessActor::budget() const {
  // Standalone, the cluster is derived from this config and the two sides
  // are equal.  Serve mode: the cluster's nodes are whole warm workers
  // shared by many queries, and this query's share is its own configured
  // per-node budget (what admission charged for it) -- never the worker.
  return std::min(rt().cluster().node(node()).hash_memory_bytes,
                  config_->node_hash_memory_bytes);
}

std::uint64_t JoinProcessActor::build_tuples_held() const {
  return store_ ? store_->build_tuples() : 0;
}

void JoinProcessActor::on_message(const Message& msg) {
  const Tag tag = static_cast<Tag>(msg.tag);
  // Scheduler-control tags are honoured only from the scheduler currently
  // obeyed.  A falsely-suspected coordinator (standby failover) keeps
  // running until its own handoff notice arrives; its stale control traffic
  // must not fork this node's state.  Data tags (kDataChunk, kForwardEnd)
  // flow between peers and sources and are exempt.
  // (kInvalidActor marks a harness-injected message; no live actor has it.)
  if (tag != Tag::kDataChunk && tag != Tag::kForwardEnd &&
      tag != Tag::kSchedulerHandoff && msg.from != scheduler_ &&
      msg.from != kInvalidActor) {
    EHJA_WARN(name(), "dropping control tag ", static_cast<int>(msg.tag),
              " from non-scheduler actor ", msg.from);
    return;
  }
  switch (tag) {
    case Tag::kJoinInit:
      charge(config_->cost.control_handle_sec);
      handle_init(msg.as<JoinInitPayload>());
      break;
    case Tag::kDataChunk:
      handle_chunk(msg.from, msg.as<ChunkPayload>());
      break;
    case Tag::kForwardEnd: {
      charge(config_->cost.control_handle_sec);
      const auto& end = msg.as<ForwardEndPayload>();
      if (end.op_id != 0) {
        OpCompletePayload done;
        done.op_id = end.op_id;
        done.tuples_received = build_tuples_held();
        send(scheduler_, make_message(Tag::kOpComplete, done,
                                      kControlWireBytes));
      }
      break;
    }
    case Tag::kSplitRequest:
      handle_split_request(msg.as<SplitRequestPayload>());
      break;
    case Tag::kHandoffStart:
      charge(config_->cost.control_handle_sec);
      handle_handoff(msg.as<HandoffStartPayload>());
      break;
    case Tag::kRelief:
      charge(config_->cost.control_handle_sec);
      memory_request_pending_ = false;
      break;
    case Tag::kSwitchToSpill:
      charge(config_->cost.control_handle_sec);
      EHJA_CHECK(store_.has_value());
      charge(store_->spill(SpillPolicy::kEvictLargest));
      memory_request_pending_ = false;
      EHJA_INFO(name(), "pool exhausted: switched to out-of-core spilling");
      break;
    case Tag::kDrainProbe: {
      charge(config_->cost.control_handle_sec);
      DrainAckPayload ack;
      ack.epoch = msg.as<DrainProbePayload>().epoch;
      ack.data_chunks_received = chunks_received_;
      ack.data_chunks_forwarded = chunks_forwarded_;
      std::size_t wire = kControlWireBytes;
      if (config_->recovery_enabled()) {
        ack.received_from = received_from_;
        ack.forwarded_to = forwarded_to_;
        wire += 24 * (ack.received_from.size() + ack.forwarded_to.size());
      }
      send(scheduler_, make_message(Tag::kDrainAck, std::move(ack), wire));
      break;
    }
    case Tag::kPing:
      charge(config_->cost.control_handle_sec);
      send(scheduler_, make_signal(Tag::kPong));
      break;
    case Tag::kRecoveryFence:
      handle_fence(msg.as<RecoveryFencePayload>());
      break;
    case Tag::kRangeReset:
      handle_range_reset(msg.as<RangeResetPayload>());
      break;
    case Tag::kHistogramRequest:
      handle_histogram_request(msg.as<HistogramRequestPayload>());
      break;
    case Tag::kReshuffleMove:
      handle_reshuffle(msg.as<ReshuffleMovePayload>());
      break;
    case Tag::kReportRequest:
      handle_report_request();
      break;
    case Tag::kSchedulerHandoff:
      handle_scheduler_handoff(msg);
      break;
    default:
      EHJA_CHECK_MSG(false, "join process received unexpected tag");
  }
}

void JoinProcessActor::handle_init(const JoinInitPayload& init) {
  EHJA_CHECK_MSG(!store_, "double init");
  store_.emplace(config_->build_rel.schema, init.range, config_->intra_threads,
                 budget(), config_->spill_fanout, disk_, config_->cost,
                 static_cast<std::uint64_t>(id()) + 1);
  if (config_->algorithm == Algorithm::kOutOfCore) {
    // The baseline never expands: on overflow it runs the basic GRACE
    // out-of-core join of ss2 (everything through the disk).
    charge(store_->spill(SpillPolicy::kEvictAll));
  }
  EHJA_DEBUG(name(), "init role=", static_cast<int>(init.role), " range=[",
             init.range.lo, ",", init.range.hi, ")");
  // Replay anything that raced ahead of the init message.
  std::vector<std::pair<ActorId, ChunkPayload>> stashed;
  stashed.swap(pre_init_chunks_);
  for (const auto& [from, payload] : stashed) {
    handle_chunk(from, payload);
  }
}

void JoinProcessActor::note_overshoot() {
  if (!store_ || store_->enforcing()) return;
  const std::uint64_t footprint = store_->memory_footprint();
  if (footprint > budget()) {
    max_overshoot_bytes_ =
        std::max(max_overshoot_bytes_, footprint - budget());
  }
}

void JoinProcessActor::after_insert_overflow_check() {
  note_overshoot();
  if (store_->enforcing() || store_->memory_footprint() <= budget()) return;
  if (memory_request_pending_ || frozen_ || !expansion_enabled_) return;
  MemoryFullPayload full;
  full.footprint_bytes = store_->memory_footprint();
  full.budget_bytes = budget();
  memory_request_pending_ = true;
  send(scheduler_, make_message(Tag::kMemoryFull, full, kControlWireBytes));
}

bool JoinProcessActor::fence_drops(std::uint64_t chunk_epoch,
                                   std::uint64_t pos) const {
  for (const RecoveryFencePayload& fence : fences_) {
    if (chunk_epoch >= fence.epoch) continue;
    for (const PosRange& r : fence.lost) {
      if (r.contains(pos)) return true;
    }
  }
  return false;
}

void JoinProcessActor::handle_chunk(ActorId from, const ChunkPayload& payload) {
  if (const KillSpec* kill = config_->kill_for_node(node());
      kill != nullptr && kill->role == KillRole::kJoin &&
      kill->after_chunks > 0 &&
      chunks_received_ + 1 == kill->after_chunks) {
    EHJA_WARN(name(), "fault injection: node ", node(), " dies on chunk ",
              kill->after_chunks);
    rt().kill_node(node());
    return;
  }
  if (!store_) {
    // Raced ahead of kJoinInit (thread runtime); counted when replayed.
    pre_init_chunks_.emplace_back(from, payload);
    return;
  }
  ++chunks_received_;
  if (config_->recovery_enabled()) ++received_from_[from];
  const Chunk& chunk = payload.chunk;
  charge(static_cast<double>(chunk.size()) * config_->cost.tuple_pack_sec);
  if (fences_.empty()) {
    if (chunk.rel == config_->build_rel.tag) {
      handle_build_chunk(chunk, payload.epoch);
    } else {
      handle_probe_chunk(chunk);
    }
    return;
  }
  // Filter out tuples a recovery fence covers: they belong to ranges being
  // rebuilt, and the source replay re-delivers them under the new epoch.
  // The filter reads each row's position off its key.
  Chunk kept;
  kept.rel = chunk.rel;
  kept.batch.reserve(chunk.size());
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    if (fence_drops(payload.epoch, chunk.batch.position(i))) {
      ++fence_dropped_tuples_;
    } else {
      kept.batch.append_row(chunk.batch, i);
    }
  }
  if (retired_) {
    // A retired node owns no map entry; anything surviving the fences here
    // indicates a routing bug upstream, so keep it loud.
    EHJA_CHECK_MSG(kept.empty(),
                   "data tuple survived fences at a retired node");
    return;
  }
  if (kept.empty()) return;
  if (kept.rel == config_->build_rel.tag) {
    handle_build_chunk(kept, payload.epoch);
  } else {
    handle_probe_chunk(kept);
  }
}

void JoinProcessActor::handle_build_chunk(const Chunk& chunk,
                                          std::uint64_t epoch) {
  const Schema& schema = config_->build_rel.schema;
  if (frozen_) {
    // Paper ss4.2.2: a full node forwards arriving build data to the fresh
    // replica of its range.  The forward keeps the incoming chunk's epoch:
    // the tuples are the original sender's incarnation, not this node's.
    chunks_forwarded_ +=
        ship_batch(handoff_target_, chunk.batch, chunk.rel, schema, epoch);
    return;
  }

  // Partition pass over the batch's key positions: tuples we own stay,
  // tuples given away in splits (stale-source routing) ship hop-by-hop.
  // The common case -- every position owned -- inserts the incoming batch
  // wholesale without copying a row.
  const PosRange owned = store_->range();
  std::size_t owned_rows = 0;
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    if (owned.contains(chunk.batch.position(i))) ++owned_rows;
  }
  TupleBatch mine_rows;
  const TupleBatch* mine = &chunk.batch;
  if (owned_rows != chunk.size()) {
    mine_rows.reserve(owned_rows);
    std::map<ActorId, TupleBatch> foreign;
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      const std::uint64_t pos = chunk.batch.position(i);
      if (owned.contains(pos)) {
        mine_rows.append_row(chunk.batch, i);
        continue;
      }
      ActorId target = kInvalidActor;
      for (const auto& [range, actor] : forward_table_) {
        if (range.contains(pos)) {
          target = actor;
          break;
        }
      }
      EHJA_CHECK_MSG(target != kInvalidActor,
                     "build tuple for a range this node never owned");
      foreign[target].append_row(chunk.batch, i);
    }
    for (auto& [target, rows] : foreign) {
      chunks_forwarded_ += ship_batch(target, rows, chunk.rel, schema, epoch);
    }
    mine = &mine_rows;
  }

  charge(store_->build(*mine));
  after_insert_overflow_check();
  // Periodic memory sample for the trace (chunks 1, 5, 9, ...).
  if (config_->trace != nullptr && (chunks_received_ & 3u) == 1) {
    config_->trace->emit(now(), TraceKind::kMemSample, id(),
                         static_cast<std::int64_t>(store_->memory_footprint()));
  }
}

void JoinProcessActor::handle_probe_chunk(const Chunk& chunk) {
  probe_tuples_ += chunk.size();
  charge(store_->probe(chunk.batch, result_, capture_sink()));
}

void JoinProcessActor::handle_split_request(const SplitRequestPayload& req) {
  charge(config_->cost.control_handle_sec);
  EHJA_CHECK_MSG(config_->algorithm == Algorithm::kSplit ||
                     config_->algorithm == Algorithm::kAdaptive,
                 "split request outside a splitting algorithm");
  const PosRange range = store_->range();
  EHJA_CHECK(req.moved.lo > range.lo && req.moved.hi == range.hi);

  const TupleBatch moved = store_->table().extract_range(req.moved);
  store_->table().set_range(PosRange{range.lo, req.moved.lo});
  forward_table_.emplace_back(req.moved, req.target);

  chunks_forwarded_ += ship_batch(req.target, moved, config_->build_rel.tag,
                                  config_->build_rel.schema, epoch_);
  ForwardEndPayload end;
  end.op_id = req.op_id;
  send(req.target, make_message(Tag::kForwardEnd, end, kControlWireBytes));
  note_overshoot();
  EHJA_DEBUG(name(), "split: kept [", range.lo, ",", req.moved.lo, ")");
}

void JoinProcessActor::handle_handoff(const HandoffStartPayload& handoff) {
  EHJA_CHECK(config_->algorithm == Algorithm::kReplicate ||
             config_->algorithm == Algorithm::kHybrid ||
             config_->algorithm == Algorithm::kAdaptive);
  frozen_ = true;
  handoff_target_ = handoff.target;
  // In-flight and stale chunks are forwarded as they arrive (handle_build_
  // chunk); the op's data stream terminator can go out immediately.
  ForwardEndPayload end;
  end.op_id = handoff.op_id;
  send(handoff.target, make_message(Tag::kForwardEnd, end, kControlWireBytes));
}

void JoinProcessActor::handle_histogram_request(
    const HistogramRequestPayload& req) {
  EHJA_CHECK(store_ && !store_->enforcing());
  // Reshuffle begins: the build phase is fully drained, so a frozen replica
  // can resume accepting tuples (they now come from its own set); the
  // redistribution itself must not trigger further expansion.
  frozen_ = false;
  expansion_enabled_ = false;
  // The scan still walks every chain of the range; the reply carries only
  // the occupied positions, charged at the bytes their codec writes.
  charge(static_cast<double>(store_->range().width()) * 2e-9 +
         config_->cost.control_handle_sec);
  HistogramReplyPayload reply;
  reply.set_id = req.set_id;
  reply.round = req.round;
  reply.histogram = store_->table().histogram();
  const std::size_t wire = kControlWireBytes + reply.histogram.wire_bytes();
  send(scheduler_, make_message(Tag::kHistogramReply, std::move(reply), wire));
}

void JoinProcessActor::handle_reshuffle(const ReshuffleMovePayload& move) {
  charge(config_->cost.control_handle_sec);
  EHJA_CHECK(store_ && !store_->enforcing());
  PosRange mine{0, 0};
  for (const auto& entry : move.plan) {
    EHJA_CHECK(entry.owners.size() == 1);
    if (entry.owners.front() == id()) {
      mine = entry.range;
      continue;
    }
    chunks_forwarded_ += ship_batch(
        entry.owners.front(), store_->table().extract_range(entry.range),
        config_->build_rel.tag, config_->build_rel.schema, epoch_);
  }
  EHJA_CHECK_MSG(!mine.empty(), "reshuffle plan omits this member");
  store_->table().set_range(mine);
  ReshuffleDonePayload done;
  done.round = move.round;
  send(scheduler_,
       make_message(Tag::kReshuffleDone, done, kControlWireBytes));
  note_overshoot();
}

std::uint64_t JoinProcessActor::ship_batch(ActorId target,
                                           const TupleBatch& batch, RelTag rel,
                                           const Schema& schema,
                                           std::uint64_t epoch) {
  EHJA_CHECK(target != kInvalidActor);
  if (batch.empty()) return 0;
  charge(static_cast<double>(batch.size()) * config_->cost.tuple_pack_sec);
  std::uint64_t chunks = 0;
  std::size_t offset = 0;
  // Bulk re-chunk: each outgoing chunk is a contiguous column slice.
  while (offset < batch.size()) {
    const std::size_t n =
        std::min<std::size_t>(config_->chunk_tuples, batch.size() - offset);
    ChunkPayload payload;
    payload.forwarded = true;
    payload.epoch = epoch;
    payload.chunk.rel = rel;
    payload.chunk.batch.reserve(n);
    payload.chunk.batch.append_range(batch, offset, offset + n);
    const std::size_t wire = payload.chunk.wire_bytes(schema);
    send(target, make_message(Tag::kDataChunk, std::move(payload), wire));
    offset += n;
    ++chunks;
  }
  if (config_->recovery_enabled()) forwarded_to_[target] += chunks;
  return chunks;
}

void JoinProcessActor::handle_fence(const RecoveryFencePayload& fence) {
  charge(config_->cost.control_handle_sec);
  epoch_ = std::max(epoch_, fence.epoch);
  // An epoch-only fence (sent to a join spawned after a recovery) drops
  // nothing; keeping it would only force every chunk through the filter.
  if (!fence.lost.empty()) fences_.push_back(fence);
}

void JoinProcessActor::handle_range_reset(const RangeResetPayload& reset) {
  charge(config_->cost.control_handle_sec);
  if (reset.epoch < epoch_) {
    // Per-pair FIFO means a same-scheduler reset can never regress; this is
    // a reset that raced a scheduler failover, superseded by the promoted
    // coordinator's own wipe.  Ack it (stale acks are ignored upstream) but
    // do not re-apply the surgery: the discard set belongs to an older
    // incarnation and would drop tuples the newer replay already delivered.
    EHJA_WARN(name(), "ignoring stale range reset epoch ", reset.epoch,
              " (current ", epoch_, ")");
    RangeResetAckPayload ack;
    ack.epoch = reset.epoch;
    send(scheduler_,
         make_message(Tag::kRangeResetAck, ack, kControlWireBytes));
    return;
  }
  epoch_ = std::max(epoch_, reset.epoch);
  if (reset.zero_probe_results) {
    // Probe-phase recovery recomputes the entry from scratch: matches
    // against the partial pre-crash table cannot be separated from the
    // matches the full replay will recompute.  Captured rows mirror the
    // checksum, so they are wiped together.
    result_ = JoinResult{};
    captured_.clear();
    probe_tuples_ = 0;
  }
  const std::uint64_t held = build_tuples_held();
  if (store_) {
    charge(store_->reset(reset.discard, reset.new_range, result_,
                         capture_sink()));
  }
  retired_ = retired_ || reset.retired;
  frozen_ = false;
  handoff_target_ = kInvalidActor;
  memory_request_pending_ = false;
  note_overshoot();
  EHJA_INFO(name(), "range reset epoch ", reset.epoch, ": dropped ",
            held - build_tuples_held(), " build tuples",
            retired_ ? " (retired)" : "");
  RangeResetAckPayload ack;
  ack.epoch = reset.epoch;
  send(scheduler_,
       make_message(Tag::kRangeResetAck, ack, kControlWireBytes));
}

void JoinProcessActor::handle_scheduler_handoff(const Message& msg) {
  charge(config_->cost.control_handle_sec);
  const auto& handoff = msg.as<SchedulerHandoffPayload>();
  if (handoff.generation <= scheduler_generation_) {
    EHJA_WARN(name(), "ignoring stale scheduler handoff generation ",
              handoff.generation);
    return;
  }
  scheduler_generation_ = handoff.generation;
  scheduler_ = msg.from;
  epoch_ = std::max(epoch_, handoff.epoch);
  EHJA_INFO(name(), "obeying scheduler ", scheduler_, " (generation ",
            handoff.generation, ")");
}

void JoinProcessActor::handle_report_request() {
  if (reported_) {
    // A promoted scheduler cannot know whether this node's report reached
    // its predecessor, so kReportRequest is re-sent; answer from the stored
    // copy -- the spiller's finish pass already ran and must not run twice.
    // The captured-row stream is resent in full ahead of it (the first
    // chunk's flag resets the scheduler's accumulation, so no dedup state
    // is needed here).
    EHJA_INFO(name(), "re-sending node report");
    send_result_rows();
    send(scheduler_, make_message(Tag::kNodeReport, last_report_,
                                  kControlWireBytes));
    return;
  }
  reported_ = true;
  EHJA_CHECK(store_.has_value());
  // Phase 3 of the out-of-core path: join the spilled partition pairs.
  charge(store_->finish(result_, capture_sink()));
  send_result_rows();
  NodeReportPayload report;
  report.metrics.actor = id();
  report.metrics.node = node();
  report.metrics.build_tuples = build_tuples_held();
  report.metrics.probe_tuples = probe_tuples_;
  report.metrics.matches = result_.matches;
  report.metrics.chunks_received = chunks_received_;
  report.metrics.chunks_forwarded = chunks_forwarded_;
  report.metrics.max_overshoot_bytes = max_overshoot_bytes_;
  report.metrics.fence_dropped_tuples = fence_dropped_tuples_;
  report.metrics.spilled_build_tuples = store_->spilled_build_tuples();
  report.metrics.spilled_probe_tuples = store_->spilled_probe_tuples();
  report.metrics.spilled_partitions = store_->spilled_partitions();
  report.checksum = result_.checksum;
  report.result_rows = captured_.size();
  last_report_ = report;
  send(scheduler_,
       make_message(Tag::kNodeReport, std::move(report), kControlWireBytes));
}

void JoinProcessActor::send_result_rows() {
  if (!config_->capture_output) return;
  // Per-pair FIFO guarantees every chunk lands before the kNodeReport that
  // follows on the same channel, so the scheduler never sees a report whose
  // row count the stream has not yet satisfied.
  const Schema wide = config_->result_schema();
  const std::uint64_t total = captured_.size();
  std::size_t offset = 0;
  bool first = true;
  while (offset < captured_.size() || first) {
    const std::size_t n = std::min<std::size_t>(
        config_->chunk_tuples, captured_.size() - offset);
    ResultChunkPayload payload;
    payload.first = first;
    payload.total = total;
    payload.chunk.rel = config_->build_rel.tag;
    payload.chunk.batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      payload.chunk.batch.push_back(captured_[offset + i]);
    }
    const std::size_t wire = payload.chunk.wire_bytes(wide);
    charge(static_cast<double>(n) * config_->cost.tuple_pack_sec);
    send(scheduler_,
         make_message(Tag::kResultChunk, std::move(payload), wire));
    offset += n;
    first = false;
  }
}

}  // namespace ehja
