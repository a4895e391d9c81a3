#include "core/config.hpp"

#include <sstream>

#include "net/wire_format.hpp"
#include "util/assert.hpp"

namespace ehja {

const char* split_variant_name(SplitVariant variant) {
  switch (variant) {
    case SplitVariant::kRequesterMidpoint: return "requester-midpoint";
    case SplitVariant::kLinearPointer: return "linear-pointer";
  }
  return "?";
}

const char* kill_role_name(KillRole role) {
  switch (role) {
    case KillRole::kJoin: return "join";
    case KillRole::kSource: return "source";
    case KillRole::kScheduler: return "scheduler";
  }
  return "?";
}

const char* detector_kind_name(DetectorKind kind) {
  switch (kind) {
    case DetectorKind::kTimeout: return "timeout";
    case DetectorKind::kPhiAccrual: return "phi-accrual";
  }
  return "?";
}

const char* algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kSplit: return "split";
    case Algorithm::kReplicate: return "replicated";
    case Algorithm::kHybrid: return "hybrid";
    case Algorithm::kOutOfCore: return "out-of-core";
    case Algorithm::kAdaptive: return "adaptive";
  }
  return "?";
}

std::optional<std::string> EhjaConfig::validate_or_error() const {
  if (initial_join_nodes < 1) return "initial join nodes must be >= 1";
  if (initial_join_nodes > join_pool_nodes) {
    return "initial join nodes exceed the pool";
  }
  if (data_sources < 1) return "data sources must be >= 1";
  if (chunk_tuples < 1) return "transport chunk must hold >= 1 tuple";
  // Every data, forwarded and result chunk is cut at chunk_tuples rows and
  // crosses the socket runtime as one frame, whose body is capped.
  if (chunk_tuples > wire::kMaxFrameRows) {
    return "transport chunk too large to ship in one frame";
  }
  if (generation_slice_tuples < 1) return "generation slice must be >= 1";
  // A data source stages a whole slice in one reservation of the same
  // rows a chunk carries; an unbounded one kills the process hosting it.
  if (generation_slice_tuples > wire::kMaxFrameRows) {
    return "generation slice too large to stage";
  }
  if (build_rel.tuple_count < 1) return "build relation must hold >= 1 tuple";
  if (build_rel.schema.tuple_bytes < 16 || probe_rel.schema.tuple_bytes < 16) {
    return "tuples must be >= 16 bytes (id + key header)";
  }
  for (const RelationSpec* rel : {&build_rel, &probe_rel}) {
    if (!rel->data) continue;
    if (rel->data->rows.size() != rel->tuple_count) {
      return "materialized relation row count disagrees with tuple_count";
    }
    // A materialized relation rides inside the config's wire frame; reject
    // it before a socket run dies mid-handshake on an oversized frame.
    if (rel->data->rows.size() > wire::kMaxFrameRows) {
      return "materialized relation too large to ship in one config frame";
    }
  }
  if (node_hash_memory_bytes < tuple_footprint(build_rel.schema)) {
    return "per-node hash memory smaller than a single tuple footprint";
  }
  if (algorithm == Algorithm::kSplit &&
      split_variant == SplitVariant::kLinearPointer &&
      balanced_initial_partition) {
    return "linear-pointer split needs equal initial ranges";
  }
  if (spill_fanout < 1) return "spill fanout must be >= 1";
  if (intra_threads < 1) return "intra threads must be >= 1";
  if (intra_threads > 64) return "intra threads capped at 64 per process";
  for (const KillSpec& kill : faults.kills) {
    switch (kill.role) {
      case KillRole::kJoin:
        if (kill.pool_index >= join_pool_nodes) {
          return "FaultPlan kill targets a node outside the join pool";
        }
        break;
      case KillRole::kSource:
        if (kill.pool_index >= data_sources) {
          return "FaultPlan kill targets a nonexistent data source";
        }
        break;
      case KillRole::kScheduler:
        if (!ft.standby_scheduler) {
          return "a scheduler kill needs ft.standby_scheduler (nobody else "
                 "can finish the run)";
        }
        break;
    }
    const bool time_trigger = kill.at_time >= 0.0;
    const bool chunk_trigger = kill.after_chunks > 0;
    if (time_trigger == chunk_trigger) {
      return "KillSpec needs exactly one of at_time / after_chunks";
    }
  }
  // The phi knobs are checked whenever the phi detector is *selected*, not
  // only when recovery is armed: `--detector=phi --phi-window=0` must be a
  // usage error up front, not undefined behaviour the first time a fault
  // plan arms the detector.
  if (ft.detector == DetectorKind::kPhiAccrual) {
    if (ft.phi_threshold <= 0.0) {
      return "phi detector needs a positive suspicion threshold";
    }
    if (ft.phi_window < 1) {
      return "phi detector needs an inter-arrival window of >= 1 sample";
    }
  }
  if (recovery_enabled()) {
    if (ft.heartbeat_interval_sec <= 0.0) {
      return "heartbeat interval must be > 0";
    }
    if (ft.heartbeat_timeout_sec <= ft.heartbeat_interval_sec) {
      return "heartbeat timeout must exceed the heartbeat interval";
    }
  }
  if (ft.standby_scheduler && !recovery_enabled()) {
    return "a standby scheduler without recovery machinery is dead weight; "
           "set ft.force_enabled or inject a fault";
  }
  return std::nullopt;
}

void EhjaConfig::validate() const {
  if (const std::optional<std::string> err = validate_or_error()) {
    EHJA_CHECK_MSG(false, err->c_str());
  }
}

NodeId EhjaConfig::kill_node_of(const KillSpec& kill) const {
  switch (kill.role) {
    case KillRole::kJoin: return pool_node(kill.pool_index);
    case KillRole::kSource: return source_node(kill.pool_index);
    case KillRole::kScheduler: return scheduler_node();
  }
  return scheduler_node();
}

const KillSpec* EhjaConfig::kill_for_node(NodeId node) const {
  for (const KillSpec& kill : faults.kills) {
    if (kill_node_of(kill) == node) return &kill;
  }
  return nullptr;
}

std::string EhjaConfig::to_string() const {
  std::ostringstream os;
  os << algorithm_name(algorithm) << " J=" << initial_join_nodes
     << " pool=" << join_pool_nodes << " sources=" << data_sources
     << " |R|=" << build_rel.tuple_count << " |S|=" << probe_rel.tuple_count
     << " tuple=" << build_rel.schema.tuple_bytes << "B"
     << " mem=" << node_hash_memory_bytes / kMiB << "MiB"
     << " dist=" << build_rel.dist.to_string();
  if (intra_threads > 1) os << " intra=" << intra_threads;
  if (capture_output) os << " capture=on stage=" << pipeline_stage;
  if (recovery_enabled()) {
    os << " ft=on kills=" << faults.kills.size()
       << " detector=" << detector_kind_name(ft.detector);
    if (ft.standby_scheduler) os << " standby=on";
  }
  if (link.fault_drop_prob > 0.0 || link.fault_jitter_sec > 0.0) {
    os << " net-drop=" << link.fault_drop_prob
       << " net-jitter=" << link.fault_jitter_sec;
  }
  return os.str();
}

ClusterSpec make_cluster(const EhjaConfig& config) {
  config.validate();
  ClusterSpec spec = make_uniform_cluster(config.total_nodes(),
                                          config.node_hash_memory_bytes);
  spec.link = config.link;
  // Tie the network fault stream to the run seed so the same seed reproduces
  // the same jitter/drop pattern (no-op unless fault knobs are set).
  spec.link.fault_seed ^= config.seed;
  spec.cost = config.cost;
  spec.disk = config.disk;
  return spec;
}

}  // namespace ehja
