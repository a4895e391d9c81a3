// Scheduler actor (paper ss4.1.1).
//
// Coordinates the whole join as a *phase machine*: it holds the
// authoritative partition map, detects phase completion, runs the hybrid
// reshuffle, and aggregates the final per-node reports into RunMetrics.
// Everything algorithm-specific -- what to do on a kMemoryFull, node
// acquisition and spill degradation, partition map mutation -- lives in
// the ExpansionPolicy the scheduler constructs from the configured
// algorithm (core/expansion_policy.hpp); phase-drain detection lives in
// DrainProtocol (core/drain.hpp).  The scheduler wires messages to those
// two collaborators plus the reshuffle planner and otherwise only moves
// between phases:
//
//   kBuild --(all sources done, policy idle)--> kBuildDrain
//   kBuildDrain --(drain stable)--> [policy wants reshuffle?]
//        yes: kReshuffle --> kReshuffleDrain --> kProbe
//        no:  kProbe
//   kProbe --(all sources done)--> kProbeDrain --> kReporting --> kDone
//
// An expansion op starting mid-build-drain aborts the drain (the policy
// asks via ExpansionEnv::expansion_starting()); op completion retries.
//
// When recovery is enabled (EhjaConfig::recovery_enabled) the scheduler
// additionally runs a heartbeat failure detector off a self-timer
// (kHeartbeatTick / core/failure_detector.hpp); a declared death aborts
// whatever drain or reshuffle is in flight, moves the machine to
// Phase::kRecovery and hands control to the RecoveryManager
// (core/recovery.hpp), which drives fences, range resets and source replay
// through the same ExpansionEnv seam the policies use, then resumes the
// interrupted phase.  The detector disarms once reporting starts.
//
// Scheduler failover (FaultToleranceConfig::standby_scheduler).  A second
// SchedulerActor runs in Mode::kStandby: it holds no live protocol state of
// its own, it only (a) keeps the latest kSchedulerSnapshot the active
// coordinator checkpoints after every state transition and (b) watches the
// active's pings with its own failure detector.  When the active falls
// silent the standby *promotes*: it adopts the snapshot, broadcasts a
// kSchedulerHandoff (with a higher generation, so joins and sources retarget
// and a falsely-suspected active abdicates to Mode::kDeposed), waits for
// every source's handoff ack to rebuild source bookkeeping from local truth,
// and then runs a conservative full-coverage wipe through the existing
// recovery machinery -- the one sound answer to "which deliveries did my
// predecessor see?" being "assume none after the checkpoint".
//
// Data-source failover.  A dead source's deterministic TupleStream slice is
// reassigned: the scheduler recruits a pool node, spawns a replacement with
// the *same* source index (TupleStream is a pure function of seed and
// index), subtracts the dead stream's counted contributions, and runs a
// full-coverage wipe -- the dead stream's tuples are interleaved across all
// position ranges, so surviving sources replay their prefixes while the
// replacement re-emits the slice from the start as a normal counted stream.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cluster/resource_pool.hpp"
#include "core/config.hpp"
#include "core/drain.hpp"
#include "core/expansion_policy.hpp"
#include "core/failure_detector.hpp"
#include "core/messages.hpp"
#include "core/metrics.hpp"
#include "core/recovery.hpp"
#include "hash/partition_map.hpp"
#include "runtime/actor.hpp"

namespace ehja {

class SchedulerActor final : public Actor,
                             private ExpansionEnv,
                             private RecoveryHost {
 public:
  /// `spawn_join` instantiates a fresh join process on a given node and
  /// returns its actor id; `spawn_source` does the same for a replacement
  /// data source with a given source index (the driver wires both to the
  /// runtime).  `spawn_source` may be empty when source failover is off.
  SchedulerActor(std::shared_ptr<const EhjaConfig> config,
                 std::function<ActorId(NodeId)> spawn_join,
                 std::function<ActorId(NodeId, std::uint32_t)> spawn_source =
                     {});

  /// Driver wiring before run(): source actors, the initial join actors
  /// (already spawned), and the pool of potential join nodes.  Constructs
  /// the expansion policy for the configured algorithm.  `source_nodes` /
  /// `join_nodes` override the config-derived placement (node_of_
  /// bookkeeping) when the caller placed the actors itself -- the serve
  /// layer packs many queries onto one shared fleet, so a query's actors
  /// do not live on config.source_node(i)/pool_node(j); empty means the
  /// classic single-query layout.
  void wire(std::vector<ActorId> sources, std::vector<ActorId> initial_joins,
            ResourcePool pool, std::vector<NodeId> source_nodes = {},
            std::vector<NodeId> join_nodes = {});

  /// Completion hook: when set, a finished run invokes it *instead of*
  /// stopping the runtime -- a serving coordinator hosts many concurrent
  /// schedulers and must outlive each one.  Called from the scheduler's
  /// message context; the callee must not destroy this actor re-entrantly
  /// (defer retirement to outside the delivery).
  void set_on_done(std::function<void()> on_done) {
    on_done_ = std::move(on_done);
  }

  /// Driver wiring for the *standby* instance: it only watches `active` and
  /// keeps its snapshots; all run state arrives via checkpoints.
  void wire_standby(ActorId active);
  /// Tell the active instance where its standby lives (checkpoint target).
  void set_standby(ActorId standby) { standby_ = standby; }

  void on_start() override;
  void on_message(const Message& msg) override;
  std::string name() const override {
    return mode_ == Mode::kStandby ? "standby" : "sched";
  }

  const RunMetrics& metrics() const { return metrics_; }
  bool finished() const { return phase_ == Phase::kDone; }
  const PartitionMap& partition_map() const { return map_; }

 private:
  enum class Phase {
    kBuild,
    kBuildDrain,
    kReshuffle,
    kReshuffleDrain,
    kProbe,
    kProbeDrain,
    kRecovery,  // node death declared; RecoveryManager drives the protocol
    kReporting,
    kDone,
  };

  // --- ExpansionEnv (the policy's and recovery's view of the scheduler) ---
  PartitionMap& map() override { return map_; }
  RunMetrics& metrics() override { return metrics_; }
  ActorId spawn_join(NodeId node) override;
  void send_to(ActorId to, Message msg) override;
  void broadcast_map() override;
  bool expansion_starting() override;
  std::uint64_t observed_build_tuples() const override;
  SimTime now() const override { return Actor::now(); }
  void trace(TraceKind kind, std::int64_t a, std::int64_t b) override {
    trace_event(kind, a, b);
  }
  const std::vector<ActorId>& join_actors() const override { return joins_; }
  const std::vector<ActorId>& source_actors() const override {
    return sources_;
  }
  bool node_alive(NodeId node) const override { return rt().node_alive(node); }

  // --- RecoveryHost (recovery's scheduler-side services) ---
  std::optional<NodeId> recruit_node() override {
    return policy_->acquire_node();
  }
  void start_settle_drain() override;
  void recovery_complete(bool probe_recovery) override;
  PosRange coverage_of(ActorId actor) const override;
  void start_replacement_source(ActorId source, RelTag rel,
                                std::uint64_t epoch) override;

  void handle_memory_full(ActorId from, const MemoryFullPayload& payload);
  void handle_op_complete(const OpCompletePayload& done);
  void handle_source_done(ActorId from, const SourceDonePayload& done);
  void handle_source_progress(ActorId from,
                              const SourceProgressPayload& progress);
  void maybe_start_build_drain();
  void start_drain_round();
  void handle_drain_ack(ActorId from, const DrainAckPayload& ack);
  void on_drained();
  void build_complete();
  void start_reshuffle();
  void handle_histogram_reply(const HistogramReplyPayload& reply);
  void dispatch_reshuffle_moves();
  void handle_reshuffle_done(const ReshuffleDonePayload& done);
  void start_probe();
  void handle_result_chunk(ActorId from, const ResultChunkPayload& payload);
  void handle_node_report(ActorId from, const NodeReportPayload& report);
  std::uint64_t expected_source_chunks() const;
  // --- failure detection and recovery ---
  void handle_heartbeat_tick();
  void handle_replay_done(ActorId from, const ReplayDonePayload& done);
  void declare_dead(ActorId dead, double silence_sec);
  /// Replace a dead data source: subtract its counted contributions, recruit
  /// a pool node, spawn a fresh stream for the same slice.  Returns the
  /// replacement's actor id.
  ActorId replace_source(ActorId dead);
  // --- scheduler failover ---
  /// Checkpoint the full coordination state to the standby (no-op without
  /// one).  Called after every externally visible state transition.
  void checkpoint();
  void on_standby_message(const Message& msg);
  /// The active fell silent for `silence_sec`: adopt the latest snapshot
  /// and take over the run.
  void promote(double silence_sec);
  /// All sources acked the handoff: rebuild source bookkeeping from the
  /// acks, replay stashed messages, and wipe-recover (or re-request
  /// reports when the checkpoint says the probe already drained).
  void finish_promotion();
  void handle_handoff_ack(ActorId from, const SchedulerHandoffAckPayload& ack);
  /// A handoff with a higher generation reached a live active: it was
  /// falsely suspected and must abdicate (split-brain guard).
  void handle_handoff_at_active(const Message& msg);
  /// Fold the current map's ownership into the per-actor coverage hulls
  /// (RecoveryHost::coverage_of); called at every map change.
  void absorb_coverage();
  /// Drain balance over live nodes only: source chunks addressed to dead
  /// nodes can never be received (recovery-enabled runs).
  std::uint64_t expected_live_chunks() const;
  void trace_event(TraceKind kind, std::int64_t a = 0, std::int64_t b = 0,
                   std::string detail = {}) {
    if (config_->trace != nullptr) {
      config_->trace->emit(Actor::now(), kind, a, b, std::move(detail));
    }
  }

  std::shared_ptr<const EhjaConfig> config_;
  std::function<ActorId(NodeId)> spawn_join_;
  std::function<ActorId(NodeId, std::uint32_t)> spawn_source_;

  std::vector<ActorId> sources_;
  std::vector<ActorId> joins_;  // every join actor ever created

  Phase phase_ = Phase::kBuild;
  PartitionMap map_;
  std::uint64_t map_version_ = 0;
  std::unique_ptr<ExpansionPolicy> policy_;  // set by wire()
  DrainProtocol drain_;

  // source bookkeeping
  /// Cumulative build tuples per source, from kSourceProgress reports
  /// (kAdaptive only; the cost comparison's observed-rate input).
  std::map<ActorId, std::uint64_t> source_progress_;

  // hybrid reshuffle
  struct ReshuffleSet {
    std::vector<ActorId> members;
    std::optional<PositionHistogram> merged;
    std::uint32_t replies = 0;
  };
  std::map<std::uint64_t, ReshuffleSet> reshuffle_sets_;  // key: entry index
  std::uint32_t reshuffle_pending_replies_ = 0;
  std::uint32_t reshuffle_pending_done_ = 0;
  /// Reshuffle attempt number; a recovery aborts and re-runs the
  /// reshuffle, and the stamp lets stragglers of the old attempt be
  /// dropped (stays 0 in fault-free runs).
  std::uint32_t reshuffle_round_ = 0;

  // failure detection and recovery (recovery_enabled() runs only)
  FailureDetector detector_;
  std::unique_ptr<RecoveryManager> recovery_;  // set by wire()
  /// Envelope of every range each join actor ever owned (over-approximate
  /// lost data on its death; see RecoveryHost::coverage_of).
  std::map<ActorId, PosRange> coverage_;
  /// Latest per-destination cumulative data-chunk counts per source (from
  /// kSourceDone / kReplayDone), for the live-nodes-only drain balance.
  std::map<ActorId, std::map<ActorId, std::uint64_t>> source_chunks_to_;
  /// Cluster node hosting each actor (false-positive detection: a declared
  /// death whose node is still alive was a detector mistake, not a crash).
  std::map<ActorId, NodeId> node_of_;
  std::function<void()> on_done_;
  /// What each source reported at its kSourceDone, per relation.  The
  /// phase totals are sums over these records (source_totals), so erasing
  /// a dead source's record un-counts it and its replacement re-earns it.
  struct SourceDone {
    bool done = false;
    std::uint64_t chunks = 0;
    std::uint64_t tuples = 0;
  };
  struct SourceRecord {
    SourceDone build;
    SourceDone probe;
  };
  std::map<ActorId, SourceRecord> source_records_;
  /// One relation's totals over the sources that reported it done.
  struct SourceTotals {
    std::uint32_t done = 0;
    std::uint64_t chunks = 0;
    std::uint64_t tuples = 0;
  };
  SourceTotals source_totals(SourceDone SourceRecord::*rel) const;

  // --- scheduler failover (standby_scheduler runs only) ---
  enum class Mode {
    kActive,   // the coordinator of record
    kStandby,  // holds snapshots, watches the active, promotes on silence
    kDeposed,  // falsely suspected and superseded; stays silent forever
  };
  Mode mode_ = Mode::kActive;
  ActorId standby_ = kInvalidActor;  // active side: checkpoint target
  ActorId active_ = kInvalidActor;   // standby side: the watched coordinator
  std::uint64_t snapshot_generation_ = 0;  // active: checkpoints sent
  std::optional<SchedulerSnapshotPayload> snapshot_;  // standby: latest kept
  /// Generation of the handoff this instance last issued (promoted standby)
  /// or accepted defeat against (deposed active).  0 = never promoted.
  std::uint64_t handoff_generation_ = 0;
  bool promotion_pending_ = false;  // between promote() and the last ack
  bool promoted_probe_recovery_ = false;  // checkpointed kRecovery side
  std::set<ActorId> pending_handoff_acks_;
  std::map<ActorId, SchedulerHandoffAckPayload> handoff_acks_;
  /// Messages arriving mid-promotion are replayed after finish_promotion()
  /// so the ack-rebuilt bookkeeping cannot be clobbered.
  std::vector<Message> promotion_stash_;
  /// Messages processed by this instance (the kScheduler kill trigger).
  std::uint64_t messages_processed_ = 0;

  // completion
  std::uint32_t reports_pending_ = 0;
  /// Per-node captured output rows (capture_output runs only), accumulated
  /// from kResultChunk streams during kReporting, verified against each
  /// node's report, and flattened into metrics_.output_rows at completion.
  /// Wiped wholesale when a promoted scheduler re-requests reports.
  std::map<ActorId, std::vector<Tuple>> result_rows_;
  RunMetrics metrics_;
};

}  // namespace ehja
