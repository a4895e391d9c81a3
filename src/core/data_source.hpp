// Data source actor (paper ss4.1.2).
//
// Generates its slice of relations R and S on the fly, keeps one buffer per
// join process, and flushes a buffer as a chunk when it fills.  Generation
// proceeds in slices via self-messages so scheduler broadcasts (new join
// node announcements) interleave with generation -- the paper's window in
// which sources keep sending to an already-full node is exactly the map
// staleness this models.
//
// Routing: a tuple goes to the *active* owner of its position's range
// during the build, and to *every* owner during the probe (the
// replication-based algorithm's probe broadcast).  Buffers are keyed by the
// destination actor, so a buffer partially filled before a map update still
// goes to the old owner, which forwards it -- matching the paper's pending-
// buffer semantics.
//
// Recovery (core/recovery.hpp): the source is the only authoritative copy
// of the data -- TupleStream is a pure function of (seed, slice) -- so a
// kReplayRequest regenerates the slice from the start and re-sends the
// tuples inside the lost ranges, routed by the current map and stamped with
// the new epoch.  The replay covers exactly the prefix already produced at
// the moment the request is processed (the full slice once the relation
// finished): later tuples flow through the normal stream, earlier ones were
// either delivered or are fence-dropped in flight.  Buffers are flushed
// under the old epoch *before* the epoch is adopted, so no tuple is ever
// stranded between the two incarnations.  `pause_after` holds the normal
// stream quiescent for the probe-phase settle drain.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "runtime/actor.hpp"
#include "workload/generator.hpp"

namespace ehja {

class DataSourceActor final : public Actor {
 public:
  DataSourceActor(std::shared_ptr<const EhjaConfig> config,
                  std::uint32_t source_index, ActorId scheduler);

  void on_message(const Message& msg) override;
  std::string name() const override;
  std::optional<RemoteSpawnSpec> remote_spawn_spec() const override {
    return RemoteSpawnSpec{RemoteSpawnSpec::Kind::kDataSource, source_index_,
                           scheduler_, config_};
  }

  std::uint64_t build_chunks_sent() const { return build_chunks_; }
  std::uint64_t probe_chunks_sent() const { return probe_chunks_; }

 private:
  enum class Phase { kIdle, kBuild, kProbe, kDone };

  /// One in-flight replay job; a folded recovery's new request overwrites it.
  struct ReplayJob {
    std::uint64_t epoch = 0;
    RelTag rel = RelTag::kR;
    std::vector<PosRange> ranges;
    std::optional<TupleStream> stream;  // fresh regeneration of the slice
    std::uint64_t cap = 0;              // tuples of the slice to re-examine
    std::uint64_t replayed = 0;         // tuples actually re-sent
  };

  void start_relation(RelTag rel, const PartitionMap& map);
  void handle_scheduler_handoff(const Message& msg);
  void generate_slice();
  void handle_replay(const ReplayRequestPayload& req);
  void replay_slice();
  /// Route a staged generation or replay batch: map the slice's
  /// destinations to dense slots, take one pass over the key column
  /// (destination entry per row from its key's position + rows per slot,
  /// used to size the buffers), then scatter in order so chunk boundaries
  /// match the tuple-at-a-time semantics exactly.
  void route_batch(const TupleBatch& batch, RelTag rel, bool probe_fanout);
  void flush(ActorId to);
  void flush_all();
  /// Queue a kGenSlice self-message unless one is already outstanding.
  void defer_slice();
  const RelationSpec& active_spec() const;
  const RelationSpec& spec_of(RelTag rel) const;

  std::shared_ptr<const EhjaConfig> config_;
  std::uint32_t source_index_;
  ActorId scheduler_;

  Phase phase_ = Phase::kIdle;
  PartitionMap map_;
  std::uint64_t map_version_ = 0;
  std::optional<TupleStream> stream_;
  std::map<ActorId, Chunk> buffers_;
  /// Reused staging area for one generation or replay slice.
  TupleBatch stage_;
  /// One destination of the slice being routed: its actor, its buffer in
  /// buffers_ (null until the slot's first row, and again after each
  /// flush, which erases the map node) and the slice's rows still bound
  /// for it.
  struct Slot {
    ActorId to = kInvalidActor;
    Chunk* buffer = nullptr;
    std::uint32_t rows = 0;
  };
  /// route_batch's scratch, reused across slices: entry e reaches the
  /// slots fan_[fan_begin_[e]] .. fan_[fan_begin_[e + 1] - 1].
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> fan_begin_;
  std::vector<std::uint32_t> fan_;
  std::vector<std::uint32_t> stage_entry_;
  std::vector<std::uint32_t> entry_counts_;

  std::uint64_t build_chunks_ = 0;
  std::uint64_t probe_chunks_ = 0;
  std::uint64_t tuples_sent_ = 0;
  /// Retained per-relation normal-stream totals (tuples_sent_ resets per
  /// relation; a promoted scheduler rebuilds its bookkeeping from these).
  std::uint64_t build_tuples_total_ = 0;
  std::uint64_t probe_tuples_total_ = 0;
  /// Bit 0: relation R stream finished; bit 1: relation S finished;
  /// bit 2: R stream started; bit 3: S stream started.  The started bits
  /// let a promoted scheduler spot a replacement whose kStartBuild died
  /// with the old coordinator (it must be re-started, not asked to replay).
  std::uint8_t done_mask_ = 0;
  /// Generation of the scheduler currently obeyed (0 = the original).
  std::uint64_t scheduler_generation_ = 0;
  /// Build slices since the last kSourceProgress report (kAdaptive only).
  std::uint32_t slices_since_report_ = 0;

  // --- recovery state (inert in fault-free runs) ---
  /// Incarnation epoch stamped on every flushed chunk (0 until a replay).
  std::uint64_t epoch_ = 0;
  std::optional<ReplayJob> replay_;
  /// Normal stream held quiescent (probe-recovery settle drain); released
  /// by the next replay request with pause_after == false.
  bool paused_ = false;
  /// A kGenSlice self-message is in flight (guards against doubling the
  /// generation cadence when a replay interleaves with normal generation).
  bool slice_pending_ = false;
  /// Cumulative data chunks per destination, normal + replay streams
  /// (maintained only when recovery is enabled; feeds the live-nodes-only
  /// drain balance via kSourceDone / kReplayDone).
  std::map<ActorId, std::uint64_t> chunks_to_;
};

}  // namespace ehja
