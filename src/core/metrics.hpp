// Run metrics -- everything the paper's figures plot.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "join/serial_join.hpp"
#include "sim/simulator.hpp"

namespace ehja {

/// Per-join-node observations gathered with the final report.
struct NodeMetrics {
  std::int32_t actor = -1;
  std::int32_t node = -1;
  /// Build tuples this node ended up responsible for (in-memory + spilled);
  /// "load" in Figures 12-13 when expressed in chunks.
  std::uint64_t build_tuples = 0;
  std::uint64_t probe_tuples = 0;
  std::uint64_t matches = 0;
  /// Data chunks received (from sources and from peers).
  std::uint64_t chunks_received = 0;
  /// Data chunks this node forwarded/migrated to peers (build-phase extra
  /// communication, Figures 4 and 11).
  std::uint64_t chunks_forwarded = 0;
  /// Peak bytes above the memory budget (split-mode overshoot and reshuffle
  /// imbalance show up here).
  std::uint64_t max_overshoot_bytes = 0;
  std::uint64_t spilled_build_tuples = 0;
  std::uint64_t spilled_probe_tuples = 0;
  std::uint64_t spilled_partitions = 0;
  /// Tuples discarded because they arrived from a dead incarnation (their
  /// authoritative copies came via source replay).
  std::uint64_t fence_dropped_tuples = 0;
};

struct RunMetrics {
  // --- timeline: virtual s on sim, wall s since start on thread/socket ---
  SimTime t_start = 0.0;
  SimTime t_build_end = 0.0;      // build phase complete at the scheduler
  SimTime t_reshuffle_end = 0.0;  // == t_build_end unless hybrid expanded
  SimTime t_probe_end = 0.0;      // last probe chunk drained
  SimTime t_complete = 0.0;       // last node report (incl. OOC disk joins)

  double total_time() const { return t_complete - t_start; }
  double build_time() const { return t_build_end - t_start; }
  double reshuffle_time() const { return t_reshuffle_end - t_build_end; }
  double probe_time() const { return t_probe_end - t_reshuffle_end; }
  /// Probe-to-completion tail: the OOC algorithm's phase-3 disk joins.
  double finish_time() const { return t_complete - t_probe_end; }

  /// Cumulative time spent inside split operations (Fig. 5 "split time").
  double split_time = 0.0;
  /// Expansion (replication handoff) operation time, cumulative.
  double expand_time = 0.0;

  // --- expansion trace ---
  std::uint32_t initial_join_nodes = 0;
  std::uint32_t expansions = 0;       // nodes recruited during the build
  std::uint32_t final_join_nodes = 0;
  bool pool_exhausted = false;
  /// kAdaptive only: how each overflow was resolved (sums to expansions).
  std::uint32_t adaptive_splits = 0;
  std::uint32_t adaptive_replicas = 0;

  // --- communication (chunks of the configured size) ---
  std::uint64_t source_build_chunks = 0;  // sources -> nodes, relation R
  std::uint64_t source_probe_chunks = 0;  // sources -> nodes, relation S
  /// Node-to-node data chunks during build + reshuffle: the "extra
  /// communication volume" series of Figures 4 and 11.
  std::uint64_t extra_build_chunks = 0;

  // --- failures and recovery (all zero in fault-free runs) ---
  std::uint32_t failures_injected = 0;   // kills that actually fired
  std::uint32_t failures_detected = 0;   // deaths the detector declared
  /// Sum over detected failures of (declaration time - last heartbeat),
  /// virtual seconds; divide by failures_detected for the mean latency.
  double detection_latency_total = 0.0;
  /// Worst single detection latency (the phi detector's selling point).
  double detection_latency_max = 0.0;
  /// Deaths declared while the node was in fact still alive.  The join is
  /// still correct (stale traffic is fenced, state rebuilt elsewhere), but
  /// every false positive is a wasted replay -- the busy-rebuilder cascade
  /// of DESIGN.md §7 shows up here.
  std::uint32_t false_positive_deaths = 0;
  /// Detected deaths by role (join_failures + source_failures ==
  /// failures_detected at the scheduler; scheduler deaths are counted by
  /// the standby as promotions).
  std::uint32_t join_failures = 0;
  std::uint32_t source_failures = 0;
  std::uint32_t scheduler_failovers = 0;  // standby promotions
  std::uint32_t recoveries = 0;          // recovery passes completed
  /// Wall (virtual) time from first death of a pass to protocol resumption.
  double recovery_time_total = 0.0;
  std::uint64_t replayed_build_tuples = 0;
  std::uint64_t replayed_probe_tuples = 0;

  // --- join output ---
  JoinResult join;
  std::uint64_t build_tuples_total = 0;
  std::uint64_t probe_tuples_total = 0;

  /// Captured output pairs (id = build row id, key = probe row id), present
  /// only when EhjaConfig::capture_output asked for them.  Arrival order is
  /// per-node report order, so treat as a multiset; the pipeline driver
  /// canonicalizes it before handing to the next stage.  Deliberately NOT
  /// carried by the scheduler-snapshot codec: a promoted scheduler re-runs
  /// the report collection, which re-delivers every node's chunk stream.
  std::vector<Tuple> output_rows;

  std::vector<NodeMetrics> nodes;

  /// Build-tuple load per node, in chunks (Figures 12-13).
  std::vector<double> load_chunks(std::uint32_t chunk_tuples) const;

  std::string summary() const;
};

}  // namespace ehja
