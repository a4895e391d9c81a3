#include "core/data_source.hpp"

#include <sstream>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace ehja {

DataSourceActor::DataSourceActor(std::shared_ptr<const EhjaConfig> config,
                                 std::uint32_t source_index, ActorId scheduler)
    : config_(std::move(config)),
      source_index_(source_index),
      scheduler_(scheduler) {}

std::string DataSourceActor::name() const {
  std::ostringstream os;
  os << "source[" << source_index_ << "]";
  return os.str();
}

const RelationSpec& DataSourceActor::active_spec() const {
  return phase_ == Phase::kBuild ? config_->build_rel : config_->probe_rel;
}

const RelationSpec& DataSourceActor::spec_of(RelTag rel) const {
  return rel == config_->build_rel.tag ? config_->build_rel
                                       : config_->probe_rel;
}

void DataSourceActor::on_message(const Message& msg) {
  const Tag tag = static_cast<Tag>(msg.tag);
  // Split-brain guard: scheduler control is only obeyed from the scheduler
  // this source currently follows.  After a (possibly false-positive)
  // failover the deposed scheduler may still emit control traffic; dropping
  // it here keeps exactly one coordinator authoritative.
  const bool scheduler_control =
      tag == Tag::kStartBuild || tag == Tag::kStartProbe ||
      tag == Tag::kMapUpdate || tag == Tag::kReplayRequest || tag == Tag::kPing;
  // (kInvalidActor marks a harness-injected message; no live actor has it.)
  if (scheduler_control && msg.from != scheduler_ &&
      msg.from != kInvalidActor) {
    EHJA_WARN(name(), "dropping control tag ", msg.tag,
              " from non-current scheduler ", msg.from);
    return;
  }
  switch (tag) {
    case Tag::kStartBuild: {
      charge(config_->cost.control_handle_sec);
      phase_ = Phase::kBuild;
      paused_ = false;  // a phase start always outranks a settle pause
      const auto& start = msg.as<StartBuildPayload>();
      epoch_ = std::max(epoch_, start.epoch);
      done_mask_ |= 0x4;  // build stream started
      start_relation(config_->build_rel.tag, start.map);
      break;
    }
    case Tag::kStartProbe: {
      charge(config_->cost.control_handle_sec);
      phase_ = Phase::kProbe;
      paused_ = false;  // a phase start always outranks a settle pause
      const auto& start = msg.as<StartProbePayload>();
      epoch_ = std::max(epoch_, start.epoch);
      done_mask_ |= 0x8;  // probe stream started
      start_relation(config_->probe_rel.tag, start.map);
      break;
    }
    case Tag::kMapUpdate: {
      charge(config_->cost.control_handle_sec);
      const auto& update = msg.as<MapUpdatePayload>();
      if (update.version > map_version_) {
        map_version_ = update.version;
        map_ = update.map;
      }
      break;
    }
    case Tag::kGenSlice: {
      generate_slice();
      break;
    }
    case Tag::kReplayRequest: {
      charge(config_->cost.control_handle_sec);
      handle_replay(msg.as<ReplayRequestPayload>());
      break;
    }
    case Tag::kPing: {
      charge(config_->cost.control_handle_sec);
      send(scheduler_, make_signal(Tag::kPong));
      break;
    }
    case Tag::kSchedulerHandoff: {
      charge(config_->cost.control_handle_sec);
      handle_scheduler_handoff(msg);
      break;
    }
    default:
      EHJA_CHECK_MSG(false, "data source received unexpected tag");
  }
}

void DataSourceActor::handle_scheduler_handoff(const Message& msg) {
  const auto& handoff = msg.as<SchedulerHandoffPayload>();
  if (handoff.generation <= scheduler_generation_) {
    EHJA_WARN(name(), "ignoring stale scheduler handoff gen ",
              handoff.generation);
    return;
  }
  scheduler_generation_ = handoff.generation;
  scheduler_ = msg.from;
  epoch_ = std::max(epoch_, handoff.epoch);
  EHJA_INFO(name(), "following scheduler ", scheduler_, " (gen ",
            scheduler_generation_, ")");
  // Report local truth: the promoted scheduler rebuilds its per-source
  // bookkeeping from these acks instead of its (possibly stale) snapshot.
  SchedulerHandoffAckPayload ack;
  ack.generation = handoff.generation;
  ack.done_mask = done_mask_;
  ack.build_tuples = build_tuples_total_;
  ack.probe_tuples = probe_tuples_total_;
  ack.build_chunks = build_chunks_;
  ack.probe_chunks = probe_chunks_;
  ack.chunks_to = chunks_to_;
  const std::size_t wire = kControlWireBytes + 24 * ack.chunks_to.size();
  send(scheduler_,
       make_message(Tag::kSchedulerHandoffAck, std::move(ack), wire));
}

void DataSourceActor::start_relation(RelTag /*rel*/, const PartitionMap& map) {
  map_ = map;
  // A phase-start map is authoritative; later kMapUpdate versions continue
  // from wherever the build left off.
  stream_.emplace(active_spec(), config_->seed, source_index_,
                  config_->data_sources);
  tuples_sent_ = 0;
  defer_slice();
}

void DataSourceActor::defer_slice() {
  if (slice_pending_) return;
  slice_pending_ = true;
  defer(make_signal(Tag::kGenSlice));
}

void DataSourceActor::generate_slice() {
  slice_pending_ = false;
  if (replay_.has_value()) {
    replay_slice();
    return;
  }
  if (paused_ || phase_ == Phase::kIdle || phase_ == Phase::kDone) return;
  const RelTag rel = active_spec().tag;
  Tuple t;
  std::uint32_t produced = 0;
  stage_.clear();
  stage_.reserve(config_->generation_slice_tuples);
  while (produced < config_->generation_slice_tuples && stream_->next(t)) {
    stage_.append(t.id, t.key);
    ++produced;
  }
  route_batch(stage_, rel, /*probe_fanout=*/phase_ == Phase::kProbe);
  charge(static_cast<double>(produced) * config_->cost.tuple_generate_sec);

  // The adaptive policy's observed-rate input.  Only kAdaptive pays for
  // these reports: under the paper's algorithms the extra control messages
  // would perturb event timing without anyone reading them.
  constexpr std::uint32_t kProgressSlices = 8;
  if (config_->algorithm == Algorithm::kAdaptive && phase_ == Phase::kBuild &&
      ++slices_since_report_ >= kProgressSlices) {
    slices_since_report_ = 0;
    SourceProgressPayload progress;
    progress.rel = rel;
    progress.tuples_sent = tuples_sent_;
    send(scheduler_,
         make_message(Tag::kSourceProgress, progress, kControlWireBytes));
  }

  if (stream_->remaining() > 0) {
    defer_slice();
    return;
  }
  flush_all();
  SourceDonePayload done;
  done.rel = rel;
  done.chunks_sent = rel == RelTag::kR ? build_chunks_ : probe_chunks_;
  done.tuples_sent = tuples_sent_;
  std::size_t wire = kControlWireBytes;
  if (config_->recovery_enabled()) {
    done.chunks_to = chunks_to_;
    wire += 24 * done.chunks_to.size();
  }
  send(scheduler_, make_message(Tag::kSourceDone, std::move(done), wire));
  done_mask_ |= rel == RelTag::kR ? 0x1 : 0x2;
  phase_ = phase_ == Phase::kBuild ? Phase::kIdle : Phase::kDone;
  EHJA_DEBUG(name(), "finished ", rel_name(rel), ": ", tuples_sent_,
             " tuples");
}

void DataSourceActor::handle_replay(const ReplayRequestPayload& req) {
  // Everything buffered so far belongs to the old incarnation: out the door
  // under the old epoch (fences sort out what must die), then adopt the new
  // one.  A folded recovery's request simply overwrites a running job.
  flush_all();
  epoch_ = std::max(epoch_, req.epoch);
  paused_ = req.pause_after;
  ReplayJob job;
  job.epoch = req.epoch;
  job.rel = req.rel;
  job.ranges = req.ranges;
  job.stream.emplace(spec_of(req.rel), config_->seed, source_index_,
                     config_->data_sources);
  // Replay exactly the prefix already produced: the normal stream covers
  // the rest.  Once the relation finished (or was never this phase's
  // stream), the whole slice is fair game.
  const bool streaming_it =
      stream_.has_value() &&
      ((req.rel == config_->build_rel.tag && phase_ == Phase::kBuild) ||
       (req.rel == config_->probe_rel.tag && phase_ == Phase::kProbe));
  job.cap = streaming_it ? stream_->produced() : job.stream->slice_size();
  EHJA_INFO(name(), "replay ", rel_name(req.rel), " epoch ", req.epoch, ": ",
            job.cap, " tuples to re-examine over ", req.ranges.size(),
            " range(s)", req.pause_after ? ", then pause" : "");
  replay_ = std::move(job);
  defer_slice();
}

void DataSourceActor::replay_slice() {
  ReplayJob& job = *replay_;
  Tuple t;
  std::uint32_t produced = 0;
  stage_.clear();
  while (produced < config_->generation_slice_tuples &&
         job.stream->produced() < job.cap && job.stream->next(t)) {
    ++produced;
    const std::uint64_t pos = position_of(t.key);
    bool lost = false;
    for (const PosRange& r : job.ranges) {
      if (r.contains(pos)) {
        lost = true;
        break;
      }
    }
    if (lost) stage_.append(t.id, t.key);
  }
  job.replayed += stage_.size();
  route_batch(stage_, job.rel,
              /*probe_fanout=*/job.rel == config_->probe_rel.tag);
  charge(static_cast<double>(produced) * config_->cost.tuple_generate_sec);
  if (job.stream->produced() < job.cap && job.stream->remaining() > 0) {
    defer_slice();
    return;
  }
  flush_all();  // replay chunks go out stamped with the new epoch
  ReplayDonePayload done;
  done.epoch = job.epoch;
  done.rel = job.rel;
  done.tuples_replayed = job.replayed;
  done.chunks_to = chunks_to_;
  done.chunks_sent_total = build_chunks_ + probe_chunks_;
  const std::size_t wire = kControlWireBytes + 24 * done.chunks_to.size();
  EHJA_INFO(name(), "replay done: ", job.replayed, " tuples re-sent");
  send(scheduler_, make_message(Tag::kReplayDone, std::move(done), wire));
  replay_.reset();
  if (!paused_ && (phase_ == Phase::kBuild || phase_ == Phase::kProbe) &&
      stream_.has_value() && stream_->remaining() > 0) {
    defer_slice();
  }
}

void DataSourceActor::route_batch(const TupleBatch& batch, RelTag rel,
                                  bool probe_fanout) {
  const std::size_t n = batch.size();
  if (n == 0) return;
  const auto& entries = map_.entries();
  // One slot per distinct actor the slice can reach (an actor may own
  // several entries): an entry's active owner during the build, every
  // owner, in `owners` order, for the probe broadcast.
  slots_.clear();
  fan_.clear();
  fan_begin_.assign(1, 0);
  for (const PartitionMap::Entry& entry : entries) {
    const std::size_t owners = probe_fanout ? entry.owners.size() : 1;
    for (std::size_t k = 0; k < owners; ++k) {
      std::size_t s = 0;
      while (s < slots_.size() && slots_[s].to != entry.owners[k]) ++s;
      if (s == slots_.size()) slots_.push_back(Slot{entry.owners[k]});
      fan_.push_back(static_cast<std::uint32_t>(s));
    }
    fan_begin_.push_back(static_cast<std::uint32_t>(fan_.size()));
  }
  // The destination entry of every row, then the rows each slot receives.
  const std::uint64_t* keys = batch.keys().data();
  stage_entry_.resize(n);
  entry_counts_.assign(entries.size(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t e = map_.index_for(position_of(keys[i]));
    stage_entry_[i] = static_cast<std::uint32_t>(e);
    ++entry_counts_[e];
  }
  for (std::size_t e = 0; e < entries.size(); ++e) {
    for (std::uint32_t k = fan_begin_[e]; k < fan_begin_[e + 1]; ++k) {
      slots_[fan_[k]].rows += entry_counts_[e];
    }
  }
  // Scatter in generation order; a buffer flushes the moment it fills, so
  // chunk boundaries and send order match the tuple-at-a-time semantics.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t e = stage_entry_[i];
    for (std::uint32_t k = fan_begin_[e]; k < fan_begin_[e + 1]; ++k) {
      Slot& slot = slots_[fan_[k]];
      if (slot.buffer == nullptr) {
        Chunk& buffer = buffers_[slot.to];
        if (buffer.empty()) buffer.rel = rel;
        EHJA_CHECK_MSG(buffer.rel == rel, "mixed-relation buffer");
        buffer.batch.reserve(std::min<std::size_t>(
            config_->chunk_tuples, buffer.size() + slot.rows));
        slot.buffer = &buffer;
      }
      slot.buffer->batch.append_row(batch, i);
      --slot.rows;
      if (slot.buffer->size() >= config_->chunk_tuples) {
        flush(slot.to);
        slot.buffer = nullptr;
      }
    }
  }
}

void DataSourceActor::flush(ActorId to) {
  auto it = buffers_.find(to);
  if (it == buffers_.end() || it->second.empty()) return;
  // Chunk-triggered source kill: die as the K-th data chunk is about to go
  // out.  On the socket runtime kill_node() raises SIGKILL in this very
  // process; on sim/thread runtimes it marks the node dead, so the send
  // below (and everything after) is discarded with the machine.
  if (const KillSpec* kill = config_->kill_for_node(node());
      kill != nullptr && kill->role == KillRole::kSource &&
      kill->after_chunks > 0 &&
      build_chunks_ + probe_chunks_ + 1 == kill->after_chunks) {
    EHJA_INFO(name(), "injected kill before chunk ", kill->after_chunks);
    rt().kill_node(node());
  }
  Chunk& buffer = it->second;
  const std::size_t n = buffer.size();
  charge(static_cast<double>(n) * config_->cost.tuple_pack_sec);
  // Replayed tuples are re-deliveries, not new production: keeping them out
  // of tuples_sent_ preserves the build-side conservation check.
  if (!replay_.has_value()) {
    tuples_sent_ += n;
    if (buffer.rel == RelTag::kR) {
      build_tuples_total_ += n;
    } else {
      probe_tuples_total_ += n;
    }
  }
  if (buffer.rel == RelTag::kR) {
    ++build_chunks_;
  } else {
    ++probe_chunks_;
  }
  if (config_->recovery_enabled()) ++chunks_to_[to];
  ChunkPayload payload;
  payload.chunk = std::move(buffer);
  payload.forwarded = false;
  payload.epoch = epoch_;
  const std::size_t wire =
      payload.chunk.wire_bytes(spec_of(payload.chunk.rel).schema);
  buffers_.erase(it);
  send(to, make_message(Tag::kDataChunk, std::move(payload), wire));
}

void DataSourceActor::flush_all() {
  // std::map iteration order makes the flush sequence deterministic.
  while (!buffers_.empty()) {
    flush(buffers_.begin()->first);
  }
}

}  // namespace ehja
