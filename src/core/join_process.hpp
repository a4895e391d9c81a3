// Join process actor (paper ss4.1.3).
//
// Builds and probes one contiguous slice of the hash table.  Behaviour on
// memory overflow depends on the configured algorithm:
//
//   split:      keeps inserting (tracking budget overshoot) and raises
//               `memory full`; the scheduler's split at the split pointer
//               may move a range away from *any* node.  When this node is
//               told to split (kSplitRequest) it migrates the upper half of
//               its range to the new node and remembers the giveaway in a
//               forward table, so chunks routed by stale sources are
//               re-routed hop by hop -- the mechanism behind the paper's
//               observation that extreme skew makes the split algorithm
//               "communicate the same tuple many times" (Fig. 11).
//
//   replicate / hybrid:  raises `memory full` once, is frozen by the
//               scheduler's kHandoffStart, and thereafter forwards every
//               arriving build chunk to the fresh replica; its own table is
//               kept for the probe phase.  Hybrid nodes are unfrozen when
//               the reshuffle begins (kHistogramRequest) and then exchange
//               sub-ranges per the scheduler's plan.
//
//   out-of-core: never expands; its store (join/grace_join.hpp) spills to
//               local disk from init.  Any EHJA node's store starts
//               spilling when the scheduler reports the pool exhausted.
//
// Under recovery-enabled runs (EhjaConfig::recovery_enabled) the actor
// additionally answers heartbeat pings, keeps per-peer chunk counters for
// the live-nodes-only drain balance, applies epoch fences (dropping stale
// tuples inside ranges being replayed; core/recovery.hpp has the protocol)
// and executes kRangeReset surgery: discard ranges, unfreeze, regrow or
// retire.  A node named in the run's FaultPlan kills its own cluster node
// as its K-th data chunk arrives (the deterministic build-phase trigger).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "join/grace_join.hpp"
#include "runtime/actor.hpp"
#include "storage/sim_disk.hpp"

namespace ehja {

class JoinProcessActor final : public Actor {
 public:
  JoinProcessActor(std::shared_ptr<const EhjaConfig> config, ActorId scheduler);

  void on_message(const Message& msg) override;
  std::string name() const override;
  std::optional<RemoteSpawnSpec> remote_spawn_spec() const override {
    return RemoteSpawnSpec{RemoteSpawnSpec::Kind::kJoinProcess, 0, scheduler_,
                           config_};
  }

  // --- post-run observability (driver/tests) ---
  const JoinResult& result() const { return result_; }
  std::uint64_t build_tuples_held() const;
  bool in_spill_mode() const { return store_ && store_->enforcing(); }
  bool frozen() const { return frozen_; }
  const PosRange& range() const { return store_->range(); }

 private:
  void handle_init(const JoinInitPayload& init);
  void handle_chunk(ActorId from, const ChunkPayload& payload);
  void handle_build_chunk(const Chunk& chunk, std::uint64_t epoch);
  void handle_probe_chunk(const Chunk& chunk);
  void handle_split_request(const SplitRequestPayload& req);
  void handle_handoff(const HandoffStartPayload& handoff);
  void handle_histogram_request(const HistogramRequestPayload& req);
  void handle_reshuffle(const ReshuffleMovePayload& move);
  void handle_report_request();
  /// Stream captured_ to the scheduler as kResultChunk frames (capture
  /// runs only); the first chunk is flagged so a re-requested report resets
  /// the scheduler's accumulation instead of double-counting.
  void send_result_rows();
  void handle_scheduler_handoff(const Message& msg);
  void handle_fence(const RecoveryFencePayload& fence);
  void handle_range_reset(const RangeResetPayload& reset);
  /// Whether a tuple at `pos` from a chunk stamped `chunk_epoch` falls
  /// behind an epoch fence (its range is being replayed; drop it).
  bool fence_drops(std::uint64_t chunk_epoch, std::uint64_t pos) const;
  void after_insert_overflow_check();
  /// Ship `batch` to `target` as chunks stamped `epoch`, cut into
  /// contiguous column slices of at most chunk_tuples rows; returns chunks
  /// sent.  Forwards of an incoming chunk preserve its epoch; shipments out
  /// of this node's own table carry the node's current epoch.
  std::uint64_t ship_batch(ActorId target, const TupleBatch& batch, RelTag rel,
                           const Schema& schema, std::uint64_t epoch);
  std::uint64_t budget() const;
  void note_overshoot();

  std::shared_ptr<const EhjaConfig> config_;
  ActorId scheduler_;
  SimDisk disk_;

  /// The node's rows, resident or spilling; empty only before kJoinInit.
  std::optional<HybridHashSpiller> store_;

  bool frozen_ = false;
  /// Cleared when the reshuffle begins: redistribution may overshoot the
  /// budget but must not trigger further expansion (the paper's reshuffle
  /// does not recurse).
  bool expansion_enabled_ = true;
  /// Data chunks that arrived before kJoinInit (possible under the thread
  /// runtime's arbitrary delivery delays); replayed at init.
  std::vector<std::pair<ActorId, ChunkPayload>> pre_init_chunks_;
  ActorId handoff_target_ = kInvalidActor;
  /// Ranges this node gave away in splits (disjoint), for stale re-routing.
  std::vector<std::pair<PosRange, ActorId>> forward_table_;
  bool memory_request_pending_ = false;
  bool reported_ = false;
  /// The report as first computed; a promoted scheduler's duplicate
  /// kReportRequest gets this verbatim (the store's finish pass is not
  /// idempotent, so it must run exactly once).
  NodeReportPayload last_report_;
  /// Generation of the scheduler currently obeyed (0 = the original).
  std::uint64_t scheduler_generation_ = 0;

  // --- recovery state (stays zero/empty in fault-free runs) ---
  /// Incarnation epoch: the highest epoch seen in a fence or reset.  Stamped
  /// on every chunk this node ships out of its own table.
  std::uint64_t epoch_ = 0;
  /// Every fence received; chunks from older epochs drop tuples inside a
  /// fence's lost ranges (re-delivered by source replay instead).
  std::vector<RecoveryFencePayload> fences_;
  /// This node's replica-set entry collapsed onto a surviving peer; it keeps
  /// answering control traffic but stores no further data.
  bool retired_ = false;
  /// Per-peer breakdowns of the chunk counters for the live-nodes-only
  /// drain balance (maintained only when recovery is enabled).
  std::map<ActorId, std::uint64_t> received_from_;
  std::map<ActorId, std::uint64_t> forwarded_to_;

  // counters
  std::uint64_t chunks_received_ = 0;
  std::uint64_t chunks_forwarded_ = 0;
  std::uint64_t probe_tuples_ = 0;
  std::uint64_t max_overshoot_bytes_ = 0;
  std::uint64_t fence_dropped_tuples_ = 0;
  JoinResult result_;
  /// Output pairs captured alongside result_ (capture_output runs only):
  /// every checksum contribution appends exactly one row here, so the
  /// multiset always equals the counted result -- across spill-mode
  /// transitions, store rebuilds and probe-phase range resets.
  std::vector<Tuple> captured_;
  /// &captured_ when the run asked for output capture, else nullptr.
  std::vector<Tuple>* capture_sink() {
    return config_->capture_output ? &captured_ : nullptr;
  }
};

}  // namespace ehja
