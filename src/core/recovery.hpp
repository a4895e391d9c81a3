// Replica-failover and source-replay recovery (the robustness extension).
//
// The paper's protocol assumes fail-free join nodes; this module makes any
// single (or multiple, including mid-recovery) join-node fail-stop crash
// survivable without changing the answer.  The key obstacle is that a
// replica set holds *disjoint temporal shards* -- a frozen member keeps the
// tuples it stored before the handoff, the fresh replica only receives
// later ones -- so no surviving member holds the dead member's data and
// plain promotion would silently lose tuples.  Instead recovery rebuilds
// from the only authoritative copy that still exists: the data sources'
// deterministic generators (TupleStream is a pure function of seed and
// stream position), which regenerate exactly the lost position ranges.
//
// Protocol, driven from the scheduler's phase machine (Phase::kRecovery):
//
//   death declared            (failure_detector.hpp, scheduler declare_dead)
//     -> incarnation epoch++  (every data chunk is stamped; see below)
//     -> map surgery          collapse affected entries to one live owner,
//                             recruit a pool node or merge into a neighbour
//                             when none survives
//     -> kRecoveryFence       to every live join: stale chunks (older
//                             epoch) drop tuples inside the lost ranges
//     -> kRangeReset          to affected owners: discard rebuilt ranges,
//                             unfreeze, maybe regrow or retire
//     -> all kRangeResetAck   (barrier: no replay before resets applied)
//     -> kReplayRequest(R)    sources resend lost build tuples
//     -> all kReplayDone(R)   build-phase recovery resumes the run here;
//                             probe-phase recovery continues:
//     -> settle drain         (sources hold paused; replayed build chunks
//                             must land before re-probing)
//     -> kReplayRequest(S)    re-probe every tuple of the affected ranges
//     -> all kReplayDone(S)   resume the probe.
//
// Epoch fences.  Chunks in flight at declaration time carry the old epoch;
// their tuples inside a lost range would duplicate the replay (or land in a
// discarded table), so receivers filter them out per-tuple.  Dropping is
// always safe because a fence covers exactly the ranges being replayed.
// A join spawned after a recovery gets an epoch-only fence (no lost
// ranges) at spawn, so the tuples it later ships out of its own table are
// not mistaken for pre-crash stragglers by its fenced peers.
//
// Probe-phase recovery widens every affected entry to full-range treatment
// (discard all, zero accumulated probe results, replay the whole entry for
// both relations): matches computed against the partial pre-crash table
// cannot be told apart from matches the replay will recompute, so the only
// duplicate-free accounting is to recompute the entry from scratch.
//
// A death during an active recovery *folds*: the epoch bumps again, surgery
// re-runs on the current map, fences/resets go out again and the replay
// restarts from scratch (sources treat a new request as an overwrite).  All
// stale acks and dones are rejected by epoch, making the fold idempotent.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/config.hpp"
#include "core/expansion_policy.hpp"
#include "core/messages.hpp"
#include "hash/hash_family.hpp"

namespace ehja {

/// Scheduler services recovery needs beyond the ExpansionEnv seam.
class RecoveryHost {
 public:
  virtual ~RecoveryHost() = default;

  /// Acquire a live pool node for a replacement join (policy-owned pool);
  /// nullopt when exhausted (recovery falls back to a neighbour merge).
  virtual std::optional<NodeId> recruit_node() = 0;
  /// Run a drain round train while phase == kRecovery; report the result
  /// back via on_settle_drained().
  virtual void start_settle_drain() = 0;
  /// Recovery finished: resume the interrupted phase (`probe_recovery`
  /// tells the scheduler which side of the run to resume).
  virtual void recovery_complete(bool probe_recovery) = 0;
  /// Position-range *hull* ever covered by `actor` (envelope over all maps
  /// it appeared in); empty range if never an owner.  An over-approximation
  /// is safe: extra discard is repaired by the matching extra replay.
  virtual PosRange coverage_of(ActorId actor) const = 0;
  /// Start a replacement data source's normal stream: kStartBuild (rel ==
  /// build) or kStartProbe (rel == probe) carrying the current map and
  /// `epoch`, so its chunks pass the fences already installed at the joins.
  virtual void start_replacement_source(ActorId source, RelTag rel,
                                        std::uint64_t epoch) = 0;
};

class RecoveryManager {
 public:
  RecoveryManager(std::shared_ptr<const EhjaConfig> config, ExpansionEnv& env,
                  RecoveryHost& host);

  bool active() const { return stage_ != Stage::kIdle; }
  /// Current incarnation epoch (0 until the first recovery).
  std::uint64_t epoch() const { return epoch_; }
  /// Whether the active recovery interrupted the probe phase.
  bool probe_recovery() const { return probe_; }
  /// Every actor (join or data source) ever declared dead.  The scheduler
  /// uses it to drop stragglers and to filter drain-ack bookkeeping.
  const std::set<ActorId>& dead_actors() const { return dead_; }

  /// `dead` was declared failed while the run was in a probe-side phase
  /// (`probe_phase`).  Starts a recovery, or folds into the active one.
  /// The scheduler has already pruned the actor from its live lists.
  void on_death(ActorId dead, bool probe_phase);

  /// Full-coverage wipe: discard and replay every position range.  Used
  /// when the lost state cannot be localized to a join node's hull -- a
  /// data-source death (the dead stream's tuples are interleaved across
  /// every range) or a scheduler failover (the promoted coordinator cannot
  /// know which deliveries its predecessor saw).  Starts a recovery, or
  /// folds into the active one, exactly like on_death.
  void on_wipe(bool probe_phase);

  /// Data source `dead` was declared failed: record it in the all-time dead
  /// set (its in-flight chunks and stale acks must be fenced like a join's)
  /// and run a full-coverage wipe -- the dead stream's tuples are
  /// interleaved across every position range, so no smaller hull is sound.
  void on_source_death(ActorId dead, bool probe_phase);

  /// Register `source` as a fresh replacement whose streams have not
  /// started.  It is excluded from replay waves (it has produced nothing to
  /// replay); instead its build stream starts as a *normal counted stream*
  /// at the reset barrier, and -- for probe-phase recoveries, where the
  /// scheduler's kStartProbe broadcast predates the spawn -- its probe
  /// stream starts at settle-drain completion, both through
  /// RecoveryHost::start_replacement_source.
  void add_fresh_source(ActorId source, bool probe_phase);

  /// A source whose build stream ran (or finished) but whose kStartProbe
  /// was lost with a dead coordinator: start only its probe stream fresh
  /// at settle-drain completion.
  void add_fresh_probe_source(ActorId source);

  /// Seed a promoted scheduler from its predecessor's snapshot: adopt the
  /// incarnation epoch and the all-time dead set (straggler fencing).
  /// Valid only while idle, before the promotion wipe.
  void restore(std::uint64_t epoch, std::set<ActorId> dead);

  void on_reset_ack(ActorId from, const RangeResetAckPayload& ack);
  void on_replay_done(ActorId from, const ReplayDonePayload& done);
  /// The settle drain requested via RecoveryHost::start_settle_drain ran to
  /// completion (two stable balanced rounds over the live nodes).
  void on_settle_drained();

 private:
  enum class Stage {
    kIdle,         // no recovery in flight
    kResetting,    // fences sent, awaiting every kRangeResetAck
    kBuildReplay,  // awaiting every source's kReplayDone for R
    kSettleDrain,  // probe recovery: draining replayed build chunks
    kProbeReplay,  // probe recovery: awaiting every kReplayDone for S
  };

  /// Rewrite the partition map around the dead set, queue the per-owner
  /// resets, broadcast fences, and enter kResetting.
  void run_surgery();
  void send_replay_requests(RelTag rel, bool pause_after);
  void start_build_replay();
  void finish();

  std::shared_ptr<const EhjaConfig> config_;
  ExpansionEnv& env_;
  RecoveryHost& host_;

  Stage stage_ = Stage::kIdle;
  std::uint64_t epoch_ = 0;
  bool probe_ = false;
  SimTime started_ = 0.0;
  std::uint32_t wave_deaths_ = 0;     // deaths folded into this recovery
  std::set<ActorId> dead_;            // all-time
  std::vector<PosRange> hulls_;       // lost coverage of this recovery
  std::vector<PosRange> replay_;      // normalized ranges being replayed
  std::set<ActorId> pending_resets_;
  std::set<ActorId> pending_replays_;
  /// Replacement sources whose build stream has not started yet (excluded
  /// from every replay wave until kStartBuild goes out at the barrier).
  std::set<ActorId> fresh_build_;
  /// Replacement sources awaiting their probe stream (probe recoveries
  /// only; excluded from relation-S replay waves until settle completion).
  std::set<ActorId> fresh_probe_;
};

}  // namespace ehja
