// The join protocol's message vocabulary.
//
// Naming follows the paper where it names a message ("memory full message",
// "start probe message", ...).  Tag numbering is stable so protocol traces
// are readable.  See core/scheduler.hpp for the phase state machine.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/metrics.hpp"
#include "hash/partition_map.hpp"
#include "net/network.hpp"
#include "relation/chunk.hpp"
#include "runtime/message.hpp"
#include "util/histogram.hpp"

namespace ehja {

enum class Tag : int {
  // --- bootstrap ---
  kJoinInit = 1,       // scheduler -> join: your range and role
  kStartBuild = 2,     // scheduler -> source: initial map, begin relation R
  kGenSlice = 3,       // source -> self: generate the next quantum

  // --- data plane ---
  kDataChunk = 10,     // source/peer -> join: a chunk of R or S tuples
  kForwardEnd = 11,    // peer -> join: migration/handoff stream complete

  // --- expansion (build phase) ---
  kMemoryFull = 20,    // join -> scheduler (paper ss4.1.1)
  kSplitRequest = 21,  // scheduler -> join: ship `moved` range to new node
  kHandoffStart = 22,  // scheduler -> join: you are frozen; forward pending
  kOpComplete = 23,    // new join -> scheduler: expansion op done
  kRelief = 24,        // scheduler -> join: your request was serviced
  kSwitchToSpill = 25, // scheduler -> join: pool exhausted, spill locally
  kMapUpdate = 26,     // scheduler -> source: new partition map

  // --- phase barriers ---
  kSourceDone = 30,    // source -> scheduler: finished one relation
  kDrainProbe = 31,    // scheduler -> join: report your chunk counters
  kDrainAck = 32,      // join -> scheduler
  kBuildComplete = 33, // scheduler -> join: build phase over
  kStartProbe = 34,    // scheduler -> source: final map, begin relation S
  kSourceProgress = 35,// source -> scheduler: build tuples so far (adaptive)

  // --- hybrid reshuffle ---
  kHistogramRequest = 40,  // scheduler -> join (replica-set member)
  kHistogramReply = 41,    // join -> scheduler
  kReshuffleMove = 42,     // scheduler -> join: new sub-partitioning
  kReshuffleDone = 43,     // join -> scheduler: finished shipping

  // --- completion ---
  kReportRequest = 50,  // scheduler -> join: finish + report
  kNodeReport = 51,     // join -> scheduler
  kResultChunk = 52,    // join -> scheduler: captured output rows (pipeline)

  // --- failure detection and recovery (recovery_enabled() runs only) ---
  kPing = 60,           // scheduler -> join: are you alive?
  kPong = 61,           // join -> scheduler
  kHeartbeatTick = 62,  // scheduler -> self (timed): run the detector
  kRecoveryFence = 63,  // scheduler -> join: epoch bump + stale-range fence
  kRangeReset = 64,     // scheduler -> join: discard ranges, maybe regrow
  kRangeResetAck = 65,  // join -> scheduler: reset applied
  kReplayRequest = 66,  // scheduler -> source: regenerate lost ranges
  kReplayDone = 67,     // source -> scheduler: replay stream complete

  // --- scheduler failover (ft.standby_scheduler runs only) ---
  kSchedulerSnapshot = 70,    // active -> standby: state checkpoint
  kSchedulerHandoff = 71,     // promoted standby -> join/source/old active
  kSchedulerHandoffAck = 72,  // source -> promoted standby: local truth
};

/// Modes a join process can be initialized into.
enum class JoinRole : std::uint8_t {
  kInitial,     // one of the J initial working nodes
  kSplitChild,  // receives the upper half of a split bucket
  kReplica,     // fresh replica of an overflowed range
};

struct JoinInitPayload {
  JoinRole role = JoinRole::kInitial;
  PosRange range;
  std::uint32_t source_count = 0;
  std::uint64_t op_id = 0;  // expansion op this spawn belongs to (0 = none)
};

struct StartBuildPayload {
  PartitionMap map;
  /// Incarnation epoch the source must stamp outgoing chunks with from the
  /// start.  Nonzero only for a replacement source started mid-recovery:
  /// its tuples must pass the fences already installed at the joins.
  std::uint64_t epoch = 0;
};

struct ChunkPayload {
  Chunk chunk;
  bool forwarded = false;  // peer-to-peer (migration/handoff/stale-route)
  /// Recovery incarnation epoch of the sender at flush time (always 0 in
  /// fault-free runs).  Receivers drop tuples from epochs older than a
  /// fence covering their position -- the lost ranges are re-delivered by
  /// source replay instead.
  std::uint64_t epoch = 0;
};

struct ForwardEndPayload {
  std::uint64_t op_id = 0;  // 0 for ad-hoc stale-route streams
};

struct MemoryFullPayload {
  std::uint64_t footprint_bytes = 0;
  std::uint64_t budget_bytes = 0;
};

struct SplitRequestPayload {
  std::uint64_t op_id = 0;
  PosRange moved;     // upper half, leaves the owner
  ActorId target = kInvalidActor;
};

struct HandoffStartPayload {
  std::uint64_t op_id = 0;
  ActorId target = kInvalidActor;  // the fresh replica
};

struct OpCompletePayload {
  std::uint64_t op_id = 0;
  std::uint64_t tuples_received = 0;
};

struct MapUpdatePayload {
  std::uint64_t version = 0;
  PartitionMap map;
};

struct SourceDonePayload {
  RelTag rel = RelTag::kR;
  std::uint64_t chunks_sent = 0;
  std::uint64_t tuples_sent = 0;
  /// Per-destination cumulative data-chunk counts (normal + replay streams).
  /// Populated only when recovery is enabled: the scheduler needs them to
  /// exclude chunks sent to since-dead nodes from the drain balance.
  std::map<ActorId, std::uint64_t> chunks_to;
};

struct SourceProgressPayload {
  RelTag rel = RelTag::kR;
  std::uint64_t tuples_sent = 0;  // cumulative for this source
};

struct DrainProbePayload {
  std::uint64_t epoch = 0;
};

struct DrainAckPayload {
  std::uint64_t epoch = 0;
  std::uint64_t data_chunks_received = 0;
  std::uint64_t data_chunks_forwarded = 0;
  /// Per-sender / per-destination breakdowns of the two counters above.
  /// Populated only when recovery is enabled, so the scheduler can reduce
  /// the drain balance over live nodes only.
  std::map<ActorId, std::uint64_t> received_from;
  std::map<ActorId, std::uint64_t> forwarded_to;
};

struct StartProbePayload {
  PartitionMap map;
  /// See StartBuildPayload::epoch.
  std::uint64_t epoch = 0;
};

struct HistogramRequestPayload {
  std::uint64_t set_id = 0;
  /// Reshuffle attempt number.  A recovery can abort a reshuffle mid-flight
  /// and re-run it; the round stamp lets the scheduler drop stragglers from
  /// the aborted attempt (always 0 in fault-free runs).
  std::uint32_t round = 0;
};

struct HistogramReplyPayload {
  std::uint64_t set_id = 0;
  PositionHistogram histogram;
  std::uint32_t round = 0;
};

struct ReshuffleMovePayload {
  /// The replica set's range re-cut into disjoint sub-ranges, one per set
  /// member; every member receives the same plan and ships accordingly.
  std::vector<PartitionMap::Entry> plan;
  std::uint32_t round = 0;
};

struct ReshuffleDonePayload {
  std::uint32_t round = 0;
};

struct NodeReportPayload {
  NodeMetrics metrics;
  std::uint64_t checksum = 0;
  /// Output rows this node captured and shipped via kResultChunk before
  /// this report (capture_output runs only; 0 otherwise).  The scheduler
  /// cross-checks it against the chunk stream -- a mismatch means rows were
  /// lost in flight, which the per-pair FIFO contract forbids.
  std::uint64_t result_rows = 0;
};

/// One chunk of a join node's captured output rows (id = build row id,
/// key = probe row id), streamed to the scheduler ahead of the node report
/// (same FIFO pair, so all chunks precede the report).  A re-requested
/// report resends the full stream; `first` lets the scheduler reset that
/// node's accumulation instead of double-counting, and `total` is the
/// node's full captured count for incremental validation.
struct ResultChunkPayload {
  Chunk chunk;
  bool first = false;
  std::uint64_t total = 0;
};

// --- failure detection and recovery payloads ---

/// Epoch bump broadcast to every live join when nodes are declared dead.
/// Data chunks stamped with an epoch older than `epoch` must drop tuples
/// whose hash position falls in `lost` -- the authoritative copies are
/// re-delivered by source replay under the new epoch.
struct RecoveryFencePayload {
  std::uint64_t epoch = 0;
  std::vector<PosRange> lost;
};

/// Surgical state reset ordered before replay starts.  `discard` lists the
/// position ranges whose build (and spilled) tuples the node must drop;
/// `zero_probe_results` additionally clears accumulated matches (probe-phase
/// recovery re-derives them); `new_range` regrows the node's range when a
/// dead neighbour's orphaned entry was merged into it.
struct RangeResetPayload {
  std::uint64_t epoch = 0;
  std::vector<PosRange> discard;
  bool zero_probe_results = false;
  std::optional<PosRange> new_range;
  /// When set, the node is no longer an owner of any map entry (its replica
  /// set collapsed to a surviving peer); it keeps serving drain/report
  /// traffic but will receive no further data.
  bool retired = false;
};

struct RangeResetAckPayload {
  std::uint64_t epoch = 0;
};

/// Scheduler -> source: regenerate the deterministic slice of `rel` and
/// resend the tuples hashing into `ranges` that were already produced,
/// routed by the current partition map (the kMapUpdate broadcast by the
/// recovery surgery precedes this request on the FIFO scheduler->source
/// channel).  The source first flushes its buffers, then adopts `epoch`, so
/// every pre-replay tuple is either out the door under the old epoch (and
/// fence-dropped if lost) or re-sent by this replay.  `pause_after` holds
/// the normal stream paused once the replay completes (probe-phase
/// recovery: the settle drain needs quiescent sources); the next replay
/// request with `pause_after == false` releases it.
struct ReplayRequestPayload {
  std::uint64_t epoch = 0;
  RelTag rel = RelTag::kR;
  std::vector<PosRange> ranges;
  bool pause_after = false;
};

struct ReplayDonePayload {
  std::uint64_t epoch = 0;
  RelTag rel = RelTag::kR;
  /// Tuples re-sent by this replay job (not counted in tuples_sent).
  std::uint64_t tuples_replayed = 0;
  /// Cumulative per-destination data-chunk counts (normal + replay).
  std::map<ActorId, std::uint64_t> chunks_to;
  std::uint64_t chunks_sent_total = 0;
};

// --- scheduler failover payloads ---

/// Checkpoint of the active scheduler's authoritative state, streamed to
/// the standby after every state transition (phase change, map broadcast,
/// join spawn, epoch bump, source completion).  Deliberately small: node
/// reports, drain rounds and the join result are *not* carried -- the
/// promoted scheduler re-collects them from the workers, which stayed
/// alive and hold the authoritative copies.
struct SchedulerSnapshotPayload {
  std::uint64_t generation = 0;  // checkpoint sequence number
  std::uint8_t phase = 0;        // SchedulerActor phase at checkpoint time
  bool probe_recovery = false;   // phase == recovery: which flavour
  std::uint64_t epoch = 0;       // recovery incarnation epoch
  std::uint64_t map_version = 0;
  PartitionMap map;
  std::vector<ActorId> joins;    // live join actors, spawn order
  std::vector<ActorId> sources;  // source actors, source-index order
  std::vector<ActorId> dead;     // all-time dead actors (straggler fencing)
  std::vector<ActorId> spilled;  // joins degraded to local spilling
  std::vector<NodeId> pool_free; // unclaimed pool nodes
  std::uint32_t reshuffle_round = 0;
  std::uint64_t drain_epoch = 0; // drain-probe epoch floor (monotonicity)
  /// Per-source per-destination cumulative data-chunk accounting (the
  /// drain-balance input; superseded by handoff acks where sources are
  /// still alive to send them).
  std::map<ActorId, std::map<ActorId, std::uint64_t>> source_chunks_to;
  /// Scalar metrics accrued so far (phase timestamps, expansion and
  /// failure counters).  The codec carries only scheduler-accrued scalars;
  /// per-node vectors and the join result re-arrive with the reports.
  RunMetrics metrics;
};

/// Promoted standby -> every join, every source, and the (possibly falsely
/// declared dead) old active: `msg.from` is the scheduler now.  Guarded by
/// `generation` so a stale or re-delivered handoff never demotes a newer
/// scheduler; an old active that sees a generation above its own abdicates
/// instead of fighting (split-brain safety on a false positive).
struct SchedulerHandoffPayload {
  std::uint64_t generation = 0;
  std::uint64_t epoch = 0;  // promoted scheduler's pre-wipe epoch
};

/// Source -> promoted scheduler: the source's authoritative local truth.
/// The promoted scheduler rebuilds its per-source bookkeeping from these
/// acks rather than trusting the snapshot, which may trail the active's
/// death by a few transitions (completions lost with it in flight).
struct SchedulerHandoffAckPayload {
  std::uint64_t generation = 0;
  /// Bit 0: R finished; bit 1: S finished; bit 2: R stream started;
  /// bit 3: S stream started.  A clear started bit flags a replacement
  /// whose stream start was lost with the dead coordinator.
  std::uint8_t done_mask = 0;
  std::uint64_t build_tuples = 0;  // normal-stream tuples sent, relation R
  std::uint64_t probe_tuples = 0;
  std::uint64_t build_chunks = 0;
  std::uint64_t probe_chunks = 0;
  /// Cumulative per-destination data-chunk counts (normal + replay).
  std::map<ActorId, std::uint64_t> chunks_to;
};

}  // namespace ehja
