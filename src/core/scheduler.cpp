#include "core/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "core/reshuffle.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace ehja {

SchedulerActor::SchedulerActor(
    std::shared_ptr<const EhjaConfig> config,
    std::function<ActorId(NodeId)> spawn_join,
    std::function<ActorId(NodeId, std::uint32_t)> spawn_source)
    : config_(std::move(config)),
      spawn_join_(std::move(spawn_join)),
      spawn_source_(std::move(spawn_source)),
      detector_(config_->ft.detector, config_->ft.heartbeat_timeout_sec,
                config_->ft.phi_threshold, config_->ft.phi_window) {}

void SchedulerActor::wire(std::vector<ActorId> sources,
                          std::vector<ActorId> initial_joins,
                          ResourcePool pool,
                          std::vector<NodeId> source_nodes,
                          std::vector<NodeId> join_nodes) {
  sources_ = std::move(sources);
  joins_ = std::move(initial_joins);
  policy_ = ExpansionPolicy::make(config_, *this, std::move(pool));
  recovery_ = std::make_unique<RecoveryManager>(
      config_, static_cast<ExpansionEnv&>(*this),
      static_cast<RecoveryHost&>(*this));
  EHJA_CHECK(sources_.size() == config_->data_sources);
  EHJA_CHECK(joins_.size() == config_->initial_join_nodes);
  EHJA_CHECK(join_nodes.empty() || join_nodes.size() == joins_.size());
  EHJA_CHECK(source_nodes.empty() || source_nodes.size() == sources_.size());
  for (std::uint32_t j = 0; j < joins_.size(); ++j) {
    node_of_[joins_[j]] =
        join_nodes.empty() ? config_->pool_node(j) : join_nodes[j];
  }
  for (std::uint32_t i = 0; i < sources_.size(); ++i) {
    node_of_[sources_[i]] =
        source_nodes.empty() ? config_->source_node(i) : source_nodes[i];
  }
}

void SchedulerActor::wire_standby(ActorId active) {
  mode_ = Mode::kStandby;
  active_ = active;
}

void SchedulerActor::on_start() {
  if (mode_ == Mode::kStandby) {
    // A standby holds no run state; it only watches the active coordinator
    // (whose pings and snapshots feed the detector) and keeps the latest
    // checkpoint ready for promotion.
    detector_.track(active_, Actor::now());
    defer_after(make_signal(Tag::kHeartbeatTick),
                config_->ft.heartbeat_interval_sec);
    return;
  }
  EHJA_CHECK_MSG(policy_ != nullptr, "scheduler not wired before run");
  metrics_.t_start = Actor::now();
  trace_event(TraceKind::kPhase, 0, 0, "build");
  metrics_.initial_join_nodes = config_->initial_join_nodes;

  if (config_->balanced_initial_partition) {
    // Sample the build distribution and cut the initial ranges to equal
    // *weight* instead of equal width (config.hpp): the sorted sample
    // becomes the per-position histogram the reshuffle plans from.
    // Sampling is real work on the front-end node.
    std::vector<std::uint64_t> positions(config_->partition_sample);
    SplitMix64 rng(config_->seed, /*stream=*/0xba1a);
    for (std::uint64_t& pos : positions) {
      pos = position_of(sample_key(config_->build_rel.dist, rng));
    }
    std::sort(positions.begin(), positions.end());
    PositionHistogram sampled(0, kPositionCount);
    for (std::size_t i = 0; i < positions.size();) {
      std::size_t run = i + 1;
      while (run < positions.size() && positions[run] == positions[i]) ++run;
      sampled.push(positions[i], run - i);
      i = run;
    }
    charge(static_cast<double>(config_->partition_sample) *
           config_->cost.tuple_generate_sec);
    map_ = PartitionMap::from_entries(plan_reshuffle(sampled, joins_));
  } else {
    map_ = PartitionMap::initial(joins_);
  }

  absorb_coverage();
  if (config_->recovery_enabled()) {
    for (ActorId join : joins_) detector_.track(join, Actor::now());
    for (ActorId source : sources_) detector_.track(source, Actor::now());
    defer_after(make_signal(Tag::kHeartbeatTick),
                config_->ft.heartbeat_interval_sec);
  }

  // Hand every initial join node its bucket...
  for (std::size_t j = 0; j < joins_.size(); ++j) {
    JoinInitPayload init;
    init.role = JoinRole::kInitial;
    init.range = map_.entries()[j].range;
    init.source_count = config_->data_sources;
    send(joins_[j], make_message(Tag::kJoinInit, init, kControlWireBytes));
  }
  // ...and start the build phase at the sources.
  for (ActorId source : sources_) {
    StartBuildPayload start;
    start.map = map_;
    const std::size_t wire = start.map.wire_bytes();
    send(source, make_message(Tag::kStartBuild, std::move(start), wire));
  }
  EHJA_INFO(name(), "start: ", config_->to_string());
  checkpoint();
}

void SchedulerActor::on_message(const Message& msg) {
  ++messages_processed_;
  if (const KillSpec* kill = config_->kill_for_node(node());
      kill != nullptr && kill->role == KillRole::kScheduler &&
      kill->after_chunks > 0 && messages_processed_ == kill->after_chunks) {
    EHJA_WARN(name(), "fault injection: coordinator dies after message ",
              kill->after_chunks);
    rt().kill_node(node());
    return;
  }
  charge(config_->cost.control_handle_sec);
  if (mode_ == Mode::kDeposed) {
    return;  // superseded by a promoted standby: stay silent forever
  }
  if (mode_ == Mode::kStandby) {
    on_standby_message(msg);
    return;
  }
  const Tag tag = static_cast<Tag>(msg.tag);
  if (tag == Tag::kSchedulerHandoff) {
    handle_handoff_at_active(msg);
    return;
  }
  if (tag == Tag::kSchedulerHandoffAck) {
    handle_handoff_ack(msg.from, msg.as<SchedulerHandoffAckPayload>());
    return;
  }
  if (tag == Tag::kSchedulerSnapshot || tag == Tag::kPing) {
    // Checkpoint or liveness ping from the predecessor coordinator: after a
    // (possibly false-positive) promotion the old active keeps sending until
    // our handoff deposes it.  Its view is stale by construction -- drop.
    EHJA_WARN(name(), "dropping stale coordinator tag ", msg.tag, " from ",
              msg.from);
    return;
  }
  if (promotion_pending_ && tag != Tag::kHeartbeatTick && tag != Tag::kPong) {
    // Until every source acked the handoff, the ack-rebuilt bookkeeping is
    // not in place; replaying the stash afterwards keeps FIFO order.
    promotion_stash_.push_back(msg);
    return;
  }
  if (config_->recovery_enabled()) {
    if (recovery_->dead_actors().count(msg.from) != 0) {
      return;  // straggler from a declared death: drop wholesale
    }
    detector_.heard_from(msg.from, Actor::now(),
                         /*sample=*/tag == Tag::kPong);
    switch (tag) {
      case Tag::kPong:
        return;  // heard_from above is the whole point
      case Tag::kHeartbeatTick:
        handle_heartbeat_tick();
        return;
      case Tag::kRangeResetAck:
        recovery_->on_reset_ack(msg.from, msg.as<RangeResetAckPayload>());
        return;
      case Tag::kReplayDone:
        handle_replay_done(msg.from, msg.as<ReplayDonePayload>());
        return;
      default:
        break;  // the regular protocol below
    }
  }
  switch (static_cast<Tag>(msg.tag)) {
    case Tag::kMemoryFull:
      handle_memory_full(msg.from, msg.as<MemoryFullPayload>());
      break;
    case Tag::kOpComplete:
      handle_op_complete(msg.as<OpCompletePayload>());
      break;
    case Tag::kSourceDone:
      handle_source_done(msg.from, msg.as<SourceDonePayload>());
      break;
    case Tag::kSourceProgress:
      handle_source_progress(msg.from, msg.as<SourceProgressPayload>());
      break;
    case Tag::kDrainAck:
      handle_drain_ack(msg.from, msg.as<DrainAckPayload>());
      break;
    case Tag::kHistogramReply:
      handle_histogram_reply(msg.as<HistogramReplyPayload>());
      break;
    case Tag::kReshuffleDone:
      handle_reshuffle_done(msg.as<ReshuffleDonePayload>());
      break;
    case Tag::kResultChunk:
      handle_result_chunk(msg.from, msg.as<ResultChunkPayload>());
      break;
    case Tag::kNodeReport:
      handle_node_report(msg.from, msg.as<NodeReportPayload>());
      break;
    default:
      EHJA_CHECK_MSG(false, "scheduler received unexpected tag");
  }
}

// ------------------------------------------------- expansion (policy side)

void SchedulerActor::handle_memory_full(ActorId from,
                                        const MemoryFullPayload& payload) {
  if (!config_->recovery_enabled()) {
    EHJA_CHECK_MSG(phase_ == Phase::kBuild || phase_ == Phase::kBuildDrain,
                   "memory full outside the build phase");
  } else if (phase_ == Phase::kRecovery && recovery_->probe_recovery()) {
    // A rebuilt owner absorbed more range than fits.  No expansions during
    // recovery: degrade it to local spilling and let the replay continue.
    policy_->force_spill(from);
    return;
  } else if (phase_ != Phase::kBuild && phase_ != Phase::kBuildDrain &&
             phase_ != Phase::kRecovery) {
    EHJA_WARN(name(), "ignoring memory-full from join ", from,
              " outside the build (replay races the probe start)");
    return;
  }
  EHJA_DEBUG(name(), "memory full from join ", from, " (",
             payload.footprint_bytes, " > ", payload.budget_bytes, ")");
  policy_->on_memory_full(from, payload);
  // The request may have been resolved without starting an op (pool
  // exhausted -> spill switch, or a stale requester dropped).  If sources
  // finished in the meantime, the build drain must be (re)started here --
  // nothing else will.
  maybe_start_build_drain();
}

void SchedulerActor::handle_op_complete(const OpCompletePayload& done) {
  policy_->on_op_complete(done);
  maybe_start_build_drain();
}

// --- ExpansionEnv -------------------------------------------------------

ActorId SchedulerActor::spawn_join(NodeId node) {
  const ActorId fresh = spawn_join_(node);
  joins_.push_back(fresh);
  node_of_[fresh] = node;
  if (config_->recovery_enabled()) {
    detector_.track(fresh, Actor::now());
    if (recovery_->epoch() > 0 && !recovery_->active()) {
      // A join spawned after a recovery starts in the current incarnation:
      // what it later ships out of its own table (split, reshuffle) is
      // stamped with its epoch and must pass the fences at older peers.  A
      // fence with no lost ranges carries just the epoch; it goes out ahead
      // of the kJoinInit that follows this spawn.  A recovery's own
      // recruits get the real fence from the surgery.
      RecoveryFencePayload fence;
      fence.epoch = recovery_->epoch();
      send(fresh, make_message(Tag::kRecoveryFence, fence, kControlWireBytes));
    }
  }
  return fresh;
}

void SchedulerActor::send_to(ActorId to, Message msg) {
  send(to, std::move(msg));
}

bool SchedulerActor::expansion_starting() {
  if (phase_ != Phase::kBuild && phase_ != Phase::kBuildDrain) return false;
  // An expansion invalidates an in-progress drain; it will be restarted
  // when the op completes.
  if (phase_ == Phase::kBuildDrain) {
    phase_ = Phase::kBuild;
    drain_.abort();
  }
  return true;
}

std::uint64_t SchedulerActor::observed_build_tuples() const {
  std::uint64_t total = 0;
  for (const auto& [source, tuples] : source_progress_) total += tuples;
  return total;
}

void SchedulerActor::broadcast_map() {
  absorb_coverage();
  MapUpdatePayload update;
  update.version = ++map_version_;
  update.map = map_;
  const std::size_t wire = map_.wire_bytes();
  for (ActorId source : sources_) {
    send(source, make_message(Tag::kMapUpdate, update, wire));
  }
  checkpoint();
}

// ------------------------------------- failure detection and recovery

void SchedulerActor::absorb_coverage() {
  for (const auto& entry : map_.entries()) {
    for (ActorId owner : entry.owners) {
      auto [it, inserted] = coverage_.try_emplace(owner, entry.range);
      if (!inserted) {
        it->second.lo = std::min(it->second.lo, entry.range.lo);
        it->second.hi = std::max(it->second.hi, entry.range.hi);
      }
    }
  }
}

PosRange SchedulerActor::coverage_of(ActorId actor) const {
  const auto it = coverage_.find(actor);
  return it == coverage_.end() ? PosRange{} : it->second;
}

void SchedulerActor::handle_heartbeat_tick() {
  if (phase_ == Phase::kDone) return;
  if (phase_ == Phase::kReporting) {
    // Disarm join/source detection: every join must answer the report
    // request anyway.  Keep the standby fed, or it would falsely promote.
    if (standby_ != kInvalidActor) {
      send(standby_, make_signal(Tag::kPing));
      defer_after(make_signal(Tag::kHeartbeatTick),
                  config_->ft.heartbeat_interval_sec);
    }
    return;
  }
  const FailureDetector::TickResult result =
      detector_.tick(Actor::now(), /*recovery_active=*/
                     phase_ == Phase::kRecovery);
  for (const FailureDetector::Death& death : result.dead) {
    declare_dead(death.actor, death.silence_sec);
  }
  for (ActorId target : result.ping) {
    send(target, make_signal(Tag::kPing));
  }
  if (standby_ != kInvalidActor) {
    send(standby_, make_signal(Tag::kPing));
  }
  defer_after(make_signal(Tag::kHeartbeatTick),
              config_->ft.heartbeat_interval_sec);
}

void SchedulerActor::declare_dead(ActorId dead, double silence_sec) {
  if (recovery_->dead_actors().count(dead) != 0) return;
  detector_.untrack(dead);
  ++metrics_.failures_detected;
  metrics_.detection_latency_total += silence_sec;
  metrics_.detection_latency_max =
      std::max(metrics_.detection_latency_max, silence_sec);
  if (const auto it = node_of_.find(dead);
      it != node_of_.end() && rt().node_alive(it->second)) {
    // The host node is still up: the detector was wrong, not the process.
    // Recovery proceeds anyway (the false-dead actor's traffic is fenced),
    // but the mistake is counted.
    ++metrics_.false_positive_deaths;
  }
  trace_event(TraceKind::kFailureDetected, dead,
              static_cast<std::int64_t>(silence_sec * 1e6));
  const bool is_source =
      std::find(sources_.begin(), sources_.end(), dead) != sources_.end();
  EHJA_WARN(name(), is_source ? "source" : "join", " actor ", dead,
            " silent for ", silence_sec, "s: declared dead");
  // Whether the run was on the probe side decides the recovery flavour
  // (and must be pinned before the phase flips to kRecovery).
  const bool probe_side =
      phase_ == Phase::kProbe || phase_ == Phase::kProbeDrain ||
      (phase_ == Phase::kRecovery && recovery_->probe_recovery());
  // Membership changed under whatever drain or reshuffle was in flight.
  drain_.abort();
  if (phase_ == Phase::kReshuffle || phase_ == Phase::kReshuffleDrain) {
    reshuffle_sets_.clear();
    reshuffle_pending_replies_ = 0;
    reshuffle_pending_done_ = 0;
    ++reshuffle_round_;  // stragglers of the aborted attempt become stale
  }
  if (is_source) {
    ++metrics_.source_failures;
    const ActorId fresh = replace_source(dead);
    phase_ = Phase::kRecovery;
    recovery_->add_fresh_source(fresh, probe_side);
    recovery_->on_source_death(dead, probe_side);
  } else {
    ++metrics_.join_failures;
    joins_.erase(std::remove(joins_.begin(), joins_.end(), dead),
                 joins_.end());
    policy_->on_actor_dead(dead);
    phase_ = Phase::kRecovery;
    recovery_->on_death(dead, probe_side);
  }
  checkpoint();
}

ActorId SchedulerActor::replace_source(ActorId dead) {
  EHJA_CHECK_MSG(spawn_source_ != nullptr,
                 "data source died but no spawn_source callback is wired");
  const auto it = std::find(sources_.begin(), sources_.end(), dead);
  EHJA_CHECK(it != sources_.end());
  const auto index =
      static_cast<std::uint32_t>(std::distance(sources_.begin(), it));
  // Un-count everything the dead stream contributed: the replacement
  // re-emits the identical slice (TupleStream is deterministic in the
  // source index) and re-reports its own completions.
  source_records_.erase(dead);
  source_progress_.erase(dead);
  source_chunks_to_.erase(dead);
  // Prefer a free pool node; with the pool exhausted (every node joined the
  // join), co-locate the replacement with the scheduler -- a source is pure
  // CPU + network, and survivability must not depend on pool slack.
  const std::optional<NodeId> pool_node = policy_->acquire_node();
  const NodeId host = pool_node.has_value() ? *pool_node : node();
  const ActorId fresh = spawn_source_(host, index);
  EHJA_WARN(name(), "source ", dead, " (index ", index,
            ") reassigned to fresh actor ", fresh, " on node ", host,
            pool_node.has_value() ? "" : " (pool exhausted: co-located)");
  sources_[index] = fresh;
  node_of_[fresh] = host;
  detector_.track(fresh, Actor::now());
  return fresh;
}

void SchedulerActor::handle_replay_done(ActorId from,
                                        const ReplayDonePayload& done) {
  source_chunks_to_[from] = done.chunks_to;
  recovery_->on_replay_done(from, done);
}

void SchedulerActor::start_settle_drain() {
  drain_.arm();
  start_drain_round();
}

void SchedulerActor::recovery_complete(bool probe_recovery) {
  EHJA_CHECK(phase_ == Phase::kRecovery);
  if (probe_recovery) {
    phase_ = Phase::kProbe;
    trace_event(TraceKind::kPhase, 0, 0, "probe_resume");
    if (source_totals(&SourceRecord::probe).done == config_->data_sources) {
      phase_ = Phase::kProbeDrain;
      drain_.arm();
      start_drain_round();
    }
  } else {
    phase_ = Phase::kBuild;
    trace_event(TraceKind::kPhase, 0, 0, "build_resume");
    policy_->kick();  // restart expansions queued during the recovery
    maybe_start_build_drain();
  }
  checkpoint();
}

std::uint64_t SchedulerActor::expected_live_chunks() const {
  std::uint64_t expected = 0;
  for (const auto& [source, dests] : source_chunks_to_) {
    for (const auto& [dest, chunks] : dests) {
      if (recovery_->dead_actors().count(dest) == 0) expected += chunks;
    }
  }
  return expected;
}

// ------------------------------------------------- scheduler failover

void SchedulerActor::checkpoint() {
  if (standby_ == kInvalidActor || mode_ != Mode::kActive) return;
  SchedulerSnapshotPayload snap;
  snap.generation = ++snapshot_generation_;
  snap.phase = static_cast<std::uint8_t>(phase_);
  snap.probe_recovery = recovery_ != nullptr && recovery_->probe_recovery();
  snap.epoch = recovery_ != nullptr ? recovery_->epoch() : 0;
  snap.map_version = map_version_;
  snap.map = map_;
  snap.joins = joins_;
  snap.sources = sources_;
  if (recovery_ != nullptr) {
    snap.dead.assign(recovery_->dead_actors().begin(),
                     recovery_->dead_actors().end());
  }
  snap.spilled = policy_->spilled();
  snap.pool_free = policy_->free_pool_nodes();
  snap.reshuffle_round = reshuffle_round_;
  snap.drain_epoch = drain_.epoch();
  snap.source_chunks_to = source_chunks_to_;
  snap.metrics = metrics_;
  std::size_t wire = map_.wire_bytes() + 128 +
                     8 * (snap.joins.size() + snap.sources.size() +
                          snap.dead.size() + snap.spilled.size() +
                          snap.pool_free.size());
  for (const auto& [source, dests] : snap.source_chunks_to) {
    wire += 16 + 24 * dests.size();
  }
  send(standby_, make_message(Tag::kSchedulerSnapshot, std::move(snap), wire));
}

void SchedulerActor::on_standby_message(const Message& msg) {
  switch (static_cast<Tag>(msg.tag)) {
    case Tag::kSchedulerSnapshot: {
      detector_.heard_from(msg.from, Actor::now(), /*sample=*/true);
      const auto& snap = msg.as<SchedulerSnapshotPayload>();
      if (!snapshot_.has_value() || snap.generation > snapshot_->generation) {
        snapshot_ = snap;
      }
      break;
    }
    case Tag::kPing:
      detector_.heard_from(msg.from, Actor::now(), /*sample=*/true);
      break;
    case Tag::kHeartbeatTick: {
      const FailureDetector::TickResult result = detector_.tick(Actor::now());
      for (const FailureDetector::Death& death : result.dead) {
        if (death.actor != active_) continue;
        EHJA_WARN(name(), "active coordinator ", active_, " silent for ",
                  death.silence_sec, "s (phi ", death.phi, "): promoting");
        promote(death.silence_sec);
        return;  // promote() re-arms its own tick
      }
      defer_after(make_signal(Tag::kHeartbeatTick),
                  config_->ft.heartbeat_interval_sec);
      break;
    }
    default:
      // Stray worker traffic addressed here by mistake; a standby holds no
      // protocol state to apply it to.
      EHJA_WARN(name(), "standby ignoring tag ", msg.tag, " from ", msg.from);
      break;
  }
}

void SchedulerActor::promote(double silence_sec) {
  EHJA_CHECK_MSG(snapshot_.has_value(),
                 "standby promoted before any checkpoint arrived");
  const SchedulerSnapshotPayload snap = std::move(*snapshot_);
  snapshot_.reset();
  detector_.untrack(active_);
  mode_ = Mode::kActive;
  handoff_generation_ = 1;  // a single standby promotes at most once

  // Adopt the checkpointed coordination state.
  phase_ = static_cast<Phase>(snap.phase);
  promoted_probe_recovery_ = snap.probe_recovery;
  map_ = snap.map;
  map_version_ = snap.map_version;
  joins_ = snap.joins;
  sources_ = snap.sources;
  reshuffle_round_ = snap.reshuffle_round + 1;  // stale any in-flight attempt
  drain_.restore_epoch(snap.drain_epoch);
  source_chunks_to_ = snap.source_chunks_to;
  metrics_ = snap.metrics;
  ++metrics_.scheduler_failovers;
  ++metrics_.failures_detected;
  metrics_.detection_latency_total += silence_sec;
  metrics_.detection_latency_max =
      std::max(metrics_.detection_latency_max, silence_sec);
  if (rt().node_alive(config_->scheduler_node())) {
    ++metrics_.false_positive_deaths;  // the handoff will depose it
  }
  absorb_coverage();

  // Rebuild the collaborators a snapshot cannot carry: a fresh policy over
  // the unclaimed pool, and a recovery manager seeded with the
  // predecessor's incarnation epoch and all-time dead set.
  policy_ = ExpansionPolicy::make(
      config_, *this,
      ResourcePool(rt().cluster(), snap.pool_free, config_->pick_policy));
  policy_->adopt_spilled(snap.spilled);
  recovery_ = std::make_unique<RecoveryManager>(
      config_, static_cast<ExpansionEnv&>(*this),
      static_cast<RecoveryHost&>(*this));
  recovery_->restore(snap.epoch,
                     std::set<ActorId>(snap.dead.begin(), snap.dead.end()));

  // Node bookkeeping: initial placements are config-determined; later
  // recruits are unknown to a promoted coordinator (that only weakens the
  // false-positive metric, never correctness).
  for (std::uint32_t i = 0;
       i < sources_.size() && i < config_->data_sources; ++i) {
    node_of_.emplace(sources_[i], config_->source_node(i));
  }
  for (ActorId join : joins_) detector_.track(join, Actor::now());
  for (ActorId source : sources_) detector_.track(source, Actor::now());

  EHJA_WARN(name(), "promoting to active coordinator: generation ",
            handoff_generation_, ", checkpointed phase ",
            static_cast<int>(snap.phase), ", epoch ", snap.epoch);

  if (phase_ == Phase::kDone) {
    // The predecessor finished the run and died after; adopt and stop.
    if (on_done_) {
      on_done_();
    } else {
      rt().request_stop();
    }
    return;
  }

  SchedulerHandoffPayload handoff;
  handoff.generation = handoff_generation_;
  handoff.epoch = snap.epoch;
  for (ActorId join : joins_) {
    send(join,
         make_message(Tag::kSchedulerHandoff, handoff, kControlWireBytes));
  }
  promotion_pending_ = true;
  pending_handoff_acks_.clear();
  handoff_acks_.clear();
  for (ActorId source : sources_) {
    pending_handoff_acks_.insert(source);
    send(source,
         make_message(Tag::kSchedulerHandoff, handoff, kControlWireBytes));
  }
  // The predecessor may be alive (false suspicion): order it to abdicate.
  send(active_,
       make_message(Tag::kSchedulerHandoff, handoff, kControlWireBytes));
  defer_after(make_signal(Tag::kHeartbeatTick),
              config_->ft.heartbeat_interval_sec);
}

void SchedulerActor::handle_handoff_ack(
    ActorId from, const SchedulerHandoffAckPayload& ack) {
  if (ack.generation != handoff_generation_ || !promotion_pending_) {
    EHJA_WARN(name(), "stale handoff ack from ", from, " (generation ",
              ack.generation, ")");
    return;
  }
  if (pending_handoff_acks_.erase(from) == 0) return;  // duplicate
  handoff_acks_[from] = ack;
  if (pending_handoff_acks_.empty()) finish_promotion();
}

void SchedulerActor::finish_promotion() {
  promotion_pending_ = false;
  // Rebuild source bookkeeping from the acks: the workers' local truth
  // outranks any checkpoint (the predecessor may have died between a
  // source's kSourceDone and its next snapshot).
  source_progress_.clear();
  source_records_.clear();
  source_chunks_to_.clear();
  for (const auto& [source, ack] : handoff_acks_) {
    source_records_[source] = SourceRecord{
        {(ack.done_mask & 0x1) != 0, ack.build_chunks, ack.build_tuples},
        {(ack.done_mask & 0x2) != 0, ack.probe_chunks, ack.probe_tuples}};
    source_progress_[source] = ack.build_tuples;
    source_chunks_to_[source] = ack.chunks_to;
  }

  if (phase_ == Phase::kReporting) {
    // The probe already drained, so no data is in flight; the only lost
    // state is the report aggregation.  Joins answer a re-request with
    // their stored report, so re-asking is idempotent.
    metrics_.nodes.clear();
    metrics_.join.matches = 0;
    metrics_.join.checksum = 0;
    metrics_.build_tuples_total = 0;
    metrics_.probe_tuples_total = 0;
    metrics_.extra_build_chunks = 0;
    result_rows_.clear();
    reports_pending_ = static_cast<std::uint32_t>(joins_.size());
    for (ActorId join : joins_) send(join, make_signal(Tag::kReportRequest));
  } else {
    // Mid-phase takeover.  The checkpoint says which deliveries the
    // predecessor *requested*, never which ones landed; the one sound
    // answer is to assume none did and wipe-recover the whole position
    // space through the standard machinery.
    const bool probe_side =
        phase_ == Phase::kProbe || phase_ == Phase::kProbeDrain ||
        (phase_ == Phase::kRecovery && promoted_probe_recovery_);
    drain_.abort();
    reshuffle_sets_.clear();
    reshuffle_pending_replies_ = 0;
    reshuffle_pending_done_ = 0;
    phase_ = Phase::kRecovery;
    // A source whose stream start died with the predecessor (a replacement
    // spawned just before the failover: its kStartBuild/kStartProbe came
    // from the deposed coordinator and was dropped by the split-brain
    // guard) holds no stream to replay.  Its ack's started bits expose
    // that; re-start it as a fresh replacement so the wipe streams its
    // slice as a normal counted stream and the done barriers stay whole.
    for (const auto& [source, ack] : handoff_acks_) {
      const bool started_build = (ack.done_mask & 0x4) != 0;
      const bool started_probe = (ack.done_mask & 0x8) != 0;
      if (!started_build) {
        recovery_->add_fresh_source(source, probe_side);
      } else if (probe_side && !started_probe) {
        recovery_->add_fresh_probe_source(source);
      }
    }
    recovery_->on_wipe(probe_side);
  }
  handoff_acks_.clear();
  checkpoint();  // no-op (no second standby), kept for symmetry

  // Replay whatever arrived mid-promotion, in arrival order.
  std::vector<Message> stash;
  stash.swap(promotion_stash_);
  for (const Message& stashed : stash) on_message(stashed);
}

void SchedulerActor::handle_handoff_at_active(const Message& msg) {
  const auto& handoff = msg.as<SchedulerHandoffPayload>();
  if (handoff.generation <= handoff_generation_) {
    EHJA_WARN(name(), "ignoring handoff with stale generation ",
              handoff.generation);
    return;
  }
  // A promoted standby believes this coordinator died.  Whether it is right
  // (node about to go down) or wrong (false suspicion), exactly one
  // coordinator may speak, and the generation orders them.
  EHJA_WARN(name(), "deposed by promoted standby ", msg.from, " (generation ",
            handoff.generation, "); abdicating");
  mode_ = Mode::kDeposed;
  handoff_generation_ = handoff.generation;
}

void SchedulerActor::start_replacement_source(ActorId source, RelTag rel,
                                              std::uint64_t epoch) {
  if (rel == config_->build_rel.tag) {
    StartBuildPayload start;
    start.map = map_;
    start.epoch = epoch;
    const std::size_t wire = start.map.wire_bytes();
    send(source, make_message(Tag::kStartBuild, std::move(start), wire));
  } else {
    StartProbePayload start;
    start.map = map_;
    start.epoch = epoch;
    const std::size_t wire = start.map.wire_bytes();
    send(source, make_message(Tag::kStartProbe, std::move(start), wire));
  }
  EHJA_INFO(name(), "replacement source ", source, " starts its ",
            rel == config_->build_rel.tag ? "build" : "probe",
            " stream at epoch ", epoch);
}

// ------------------------------------------------------------ phase change

void SchedulerActor::handle_source_done(ActorId from,
                                        const SourceDonePayload& done) {
  if (config_->recovery_enabled()) source_chunks_to_[from] = done.chunks_to;
  const SourceDone reported{true, done.chunks_sent, done.tuples_sent};
  if (done.rel == config_->build_rel.tag) {
    source_records_[from].build = reported;
    source_progress_[from] = done.tuples_sent;
    checkpoint();
    maybe_start_build_drain();
  } else {
    source_records_[from].probe = reported;
    checkpoint();
    if (source_totals(&SourceRecord::probe).done == config_->data_sources) {
      if (phase_ == Phase::kProbe) {
        phase_ = Phase::kProbeDrain;
        drain_.arm();
        start_drain_round();
      } else {
        // A source resumed by a replay can finish mid-recovery; the probe
        // drain then starts from recovery_complete() instead.
        EHJA_CHECK_MSG(phase_ == Phase::kRecovery,
                       "probe sources done in unexpected phase");
      }
    }
  }
}

void SchedulerActor::handle_source_progress(
    ActorId from, const SourceProgressPayload& progress) {
  if (progress.rel != config_->build_rel.tag) return;
  source_progress_[from] = progress.tuples_sent;
}

SchedulerActor::SourceTotals SchedulerActor::source_totals(
    SourceDone SourceRecord::*rel) const {
  SourceTotals totals;
  for (const auto& [source, rec] : source_records_) {
    const SourceDone& side = rec.*rel;
    if (!side.done) continue;
    ++totals.done;
    totals.chunks += side.chunks;
    totals.tuples += side.tuples;
  }
  return totals;
}

std::uint64_t SchedulerActor::expected_source_chunks() const {
  std::uint64_t expected = source_totals(&SourceRecord::build).chunks;
  if (phase_ == Phase::kProbeDrain) {
    expected += source_totals(&SourceRecord::probe).chunks;
  }
  return expected;
}

void SchedulerActor::maybe_start_build_drain() {
  if (phase_ != Phase::kBuild) return;
  if (source_totals(&SourceRecord::build).done != config_->data_sources) {
    return;
  }
  if (!policy_->idle()) return;
  phase_ = Phase::kBuildDrain;
  drain_.arm();
  start_drain_round();
  checkpoint();
}

void SchedulerActor::start_drain_round() {
  const DrainProbePayload probe = drain_.begin_round();
  trace_event(TraceKind::kDrainRound, static_cast<std::int64_t>(probe.epoch),
              static_cast<std::int64_t>(drain_.prev_received()));
  for (ActorId join : joins_) {
    send(join, make_message(Tag::kDrainProbe, probe, kControlWireBytes));
  }
}

void SchedulerActor::handle_drain_ack(ActorId from,
                                      const DrainAckPayload& ack) {
  if (phase_ != Phase::kBuildDrain && phase_ != Phase::kReshuffleDrain &&
      phase_ != Phase::kProbeDrain && phase_ != Phase::kRecovery) {
    return;  // round aborted by an expansion
  }
  DrainProtocol::Outcome outcome;
  if (config_->recovery_enabled()) {
    // Reduce the per-pair counters over live nodes only: chunks addressed
    // to (or forwarded by) a dead node can never balance.
    const auto& dead = recovery_->dead_actors();
    DrainAckPayload live;
    live.epoch = ack.epoch;
    for (const auto& [sender, chunks] : ack.received_from) {
      if (dead.count(sender) == 0) live.data_chunks_received += chunks;
    }
    for (const auto& [dest, chunks] : ack.forwarded_to) {
      if (dead.count(dest) == 0) live.data_chunks_forwarded += chunks;
    }
    outcome = drain_.on_ack(from, live, joins_.size(), expected_live_chunks());
  } else {
    outcome =
        drain_.on_ack(from, ack, joins_.size(), expected_source_chunks());
  }
  switch (outcome) {
    case DrainProtocol::Outcome::kStale:
    case DrainProtocol::Outcome::kPending:
      break;
    case DrainProtocol::Outcome::kRepoll:
      start_drain_round();
      break;
    case DrainProtocol::Outcome::kDrained:
      on_drained();
      break;
  }
}

void SchedulerActor::on_drained() {
  drain_.arm();
  switch (phase_) {
    case Phase::kBuildDrain:
      build_complete();
      break;
    case Phase::kReshuffleDrain:
      metrics_.t_reshuffle_end = Actor::now();
      start_probe();
      break;
    case Phase::kProbeDrain:
      metrics_.t_probe_end = Actor::now();
      phase_ = Phase::kReporting;
      reports_pending_ = static_cast<std::uint32_t>(joins_.size());
      for (ActorId join : joins_) {
        send(join, make_signal(Tag::kReportRequest));
      }
      break;
    case Phase::kRecovery:
      recovery_->on_settle_drained();
      break;
    default:
      EHJA_CHECK_MSG(false, "drained in unexpected phase");
  }
  checkpoint();
}

void SchedulerActor::build_complete() {
  metrics_.t_build_end = Actor::now();
  trace_event(TraceKind::kPhase, 0, 0, "build_complete");
  EHJA_INFO(name(), "build complete at t=", Actor::now(), "s with ",
            joins_.size(), " join nodes");
  if (policy_->wants_reshuffle()) {
    start_reshuffle();
  } else {
    metrics_.t_reshuffle_end = metrics_.t_build_end;
    start_probe();
  }
}

// -------------------------------------------------------- hybrid reshuffle

void SchedulerActor::start_reshuffle() {
  phase_ = Phase::kReshuffle;
  trace_event(TraceKind::kPhase, 0, 0, "reshuffle");
  reshuffle_sets_.clear();
  reshuffle_pending_replies_ = 0;
  const std::vector<ActorId>& spilled = policy_->spilled();
  for (std::size_t i = 0; i < map_.size(); ++i) {
    const auto& entry = map_.entries()[i];
    if (entry.owners.size() < 2) continue;
    // A member that degraded to local spilling holds its partitions on
    // disk; its set cannot be reshuffled and keeps replication semantics
    // (probe broadcast) instead.
    const bool any_spilled = std::any_of(
        entry.owners.begin(), entry.owners.end(), [&spilled](ActorId owner) {
          return std::find(spilled.begin(), spilled.end(), owner) !=
                 spilled.end();
        });
    if (any_spilled) continue;
    ReshuffleSet set;
    set.members = entry.owners;
    reshuffle_sets_.emplace(i, std::move(set));
    HistogramRequestPayload req;
    req.set_id = i;
    req.round = reshuffle_round_;
    for (ActorId member : entry.owners) {
      send(member, make_message(Tag::kHistogramRequest, req,
                                kControlWireBytes));
      ++reshuffle_pending_replies_;
    }
  }
  EHJA_INFO(name(), "reshuffle: ", reshuffle_sets_.size(),
            " replica set(s)");
  if (reshuffle_pending_replies_ == 0) {
    // Every replicated set contained a spilled member: nothing to do.
    metrics_.t_reshuffle_end = metrics_.t_build_end;
    start_probe();
  }
}

void SchedulerActor::handle_histogram_reply(
    const HistogramReplyPayload& reply) {
  if (reply.round != reshuffle_round_) return;  // aborted attempt
  EHJA_CHECK(phase_ == Phase::kReshuffle);
  auto it = reshuffle_sets_.find(reply.set_id);
  EHJA_CHECK(it != reshuffle_sets_.end());
  ReshuffleSet& set = it->second;
  if (!set.merged.has_value()) {
    set.merged = reply.histogram;
  } else {
    set.merged->merge(reply.histogram);
  }
  ++set.replies;
  EHJA_CHECK(set.replies <= set.members.size());
  EHJA_CHECK(reshuffle_pending_replies_ > 0);
  if (--reshuffle_pending_replies_ == 0) {
    dispatch_reshuffle_moves();
  }
}

void SchedulerActor::dispatch_reshuffle_moves() {
  // Rebuild the map wholesale: untouched entries stay, every replica set's
  // entry is replaced by its plan.
  std::vector<PartitionMap::Entry> entries;
  reshuffle_pending_done_ = 0;
  for (std::size_t i = 0; i < map_.size(); ++i) {
    const auto it = reshuffle_sets_.find(i);
    if (it == reshuffle_sets_.end()) {
      entries.push_back(map_.entries()[i]);
      continue;
    }
    ReshuffleSet& set = it->second;
    EHJA_CHECK(set.replies == set.members.size());
    std::vector<PartitionMap::Entry> plan =
        plan_reshuffle(*set.merged, set.members);
    ReshuffleMovePayload move;
    move.plan = plan;
    move.round = reshuffle_round_;
    const std::size_t wire = 32 + 24 * plan.size();
    for (ActorId member : set.members) {
      send(member, make_message(Tag::kReshuffleMove, move, wire));
      ++reshuffle_pending_done_;
    }
    for (auto& entry : plan) entries.push_back(std::move(entry));
  }
  map_ = PartitionMap::from_entries(std::move(entries));
  ++map_version_;
  absorb_coverage();
  checkpoint();
}

void SchedulerActor::handle_reshuffle_done(const ReshuffleDonePayload& done) {
  if (done.round != reshuffle_round_) return;  // aborted attempt
  EHJA_CHECK(phase_ == Phase::kReshuffle);
  EHJA_CHECK(reshuffle_pending_done_ > 0);
  if (--reshuffle_pending_done_ > 0) return;
  phase_ = Phase::kReshuffleDrain;
  drain_.arm();
  start_drain_round();
  checkpoint();
}

// ------------------------------------------------------------------- probe

void SchedulerActor::start_probe() {
  phase_ = Phase::kProbe;
  trace_event(TraceKind::kPhase, 0, 0, "probe");
  for (ActorId source : sources_) {
    StartProbePayload start;
    start.map = map_;
    const std::size_t wire = start.map.wire_bytes();
    send(source, make_message(Tag::kStartProbe, std::move(start), wire));
  }
  EHJA_INFO(name(), "probe phase started at t=", Actor::now(), "s (",
            map_.owner_slots(), " owner slots over ", map_.size(),
            " ranges)");
}

// -------------------------------------------------------------- completion

void SchedulerActor::handle_result_chunk(ActorId from,
                                         const ResultChunkPayload& payload) {
  EHJA_CHECK_MSG(config_->capture_output,
                 "result chunk on a run that never asked for capture");
  EHJA_CHECK(phase_ == Phase::kReporting);
  std::vector<Tuple>& rows = result_rows_[from];
  // A re-requested report resends the node's whole stream; the first-chunk
  // flag restarts accumulation so the duplicate stream replaces (never
  // doubles) the original.
  if (payload.first) rows.clear();
  for (std::size_t i = 0; i < payload.chunk.size(); ++i) {
    rows.push_back(payload.chunk.batch.tuple(i));
  }
  EHJA_CHECK_MSG(rows.size() <= payload.total,
                 "result chunks exceed the sender's declared total");
}

void SchedulerActor::handle_node_report(ActorId from,
                                        const NodeReportPayload& report) {
  EHJA_CHECK(phase_ == Phase::kReporting);
  if (config_->capture_output) {
    // FIFO per pair: every chunk of this node's stream precedes its report.
    const auto it = result_rows_.find(from);
    const std::size_t rows = it == result_rows_.end() ? 0 : it->second.size();
    EHJA_CHECK_MSG(rows == report.result_rows,
                   "captured result rows lost in flight");
    EHJA_CHECK_MSG(report.result_rows == report.metrics.matches,
                   "captured rows disagree with the match count");
  }
  metrics_.nodes.push_back(report.metrics);
  metrics_.join.matches += report.metrics.matches;
  metrics_.join.checksum += report.checksum;
  metrics_.build_tuples_total += report.metrics.build_tuples;
  metrics_.probe_tuples_total += report.metrics.probe_tuples;
  metrics_.extra_build_chunks += report.metrics.chunks_forwarded;
  EHJA_CHECK(reports_pending_ > 0);
  if (--reports_pending_ > 0) return;

  metrics_.t_complete = Actor::now();
  metrics_.final_join_nodes = static_cast<std::uint32_t>(joins_.size());
  const SourceTotals build_sent = source_totals(&SourceRecord::build);
  const SourceTotals probe_sent = source_totals(&SourceRecord::probe);
  metrics_.source_build_chunks = build_sent.chunks;
  metrics_.source_probe_chunks = probe_sent.chunks;
  if (config_->capture_output) {
    // Flatten per-node streams in actor-id order (the map's iteration
    // order); the consumer treats the result as a multiset and the total
    // was verified against each report above.
    metrics_.output_rows.clear();
    metrics_.output_rows.reserve(
        static_cast<std::size_t>(metrics_.join.matches));
    for (auto& [actor, rows] : result_rows_) {
      metrics_.output_rows.insert(metrics_.output_rows.end(), rows.begin(),
                                  rows.end());
    }
    EHJA_CHECK_MSG(metrics_.output_rows.size() == metrics_.join.matches,
                   "captured pipeline output disagrees with the match count");
  }
  // Conservation: every generated build tuple is stored exactly once.
  if (metrics_.build_tuples_total != build_sent.tuples) {
    EHJA_ERROR(name(), "build-tuple conservation broken: joins hold ",
               metrics_.build_tuples_total, ", sources sent ",
               build_sent.tuples);
    for (const NodeMetrics& nm : metrics_.nodes) {
      EHJA_ERROR(name(), "  join actor ", nm.actor, " node ", nm.node,
                 " holds ", nm.build_tuples, " (received ",
                 nm.chunks_received, " chunks, forwarded ",
                 nm.chunks_forwarded, ")");
    }
  }
  EHJA_CHECK_MSG(metrics_.build_tuples_total == build_sent.tuples,
                 "build tuples lost or duplicated");
  // Probe tuples may be duplicated (replication broadcast), never lost.
  // The sources' probe tuples count *deliveries* (one per fanned-out copy),
  // so after a probe-phase recovery the bound no longer holds: a collapsed
  // entry's dead and retired replicas received deliveries the source counted
  // that are deliberately not re-sent to the single surviving owner.
  EHJA_CHECK(metrics_.failures_detected > 0 ||
             metrics_.probe_tuples_total >= probe_sent.tuples);
  phase_ = Phase::kDone;
  trace_event(TraceKind::kPhase, 0, 0, "done");
  checkpoint();
  EHJA_INFO(name(), "done: ", metrics_.summary());
  // A serving coordinator installs on_done_ and keeps the runtime alive for
  // the other queries it hosts; the one-shot driver stops the world here.
  if (on_done_) {
    on_done_();
  } else {
    rt().request_stop();
  }
}

}  // namespace ehja
