// Run configuration for the Expanding Hash-based Join Algorithms.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "cluster/resource_pool.hpp"
#include "hash/hash_family.hpp"
#include "trace/trace.hpp"
#include "workload/generator.hpp"

namespace ehja {

/// The four algorithms of the paper's evaluation (ss5): the three EHJAs plus
/// the non-expanding out-of-core baseline -- and kAdaptive, an extension
/// answering ss6's "which strategy when" question per overflow: the
/// scheduler compares the cost model's estimate of a split's one-time
/// build migration against a replica's recurring probe broadcast and picks
/// the cheaper expansion each time (core/expansion_policy.hpp).
enum class Algorithm : std::uint8_t {
  kSplit,      // ss4.2.1, linear hashing across nodes
  kReplicate,  // ss4.2.2, replicate the overflowed range
  kHybrid,     // ss4.2.3, replicate then reshuffle
  kOutOfCore,  // baseline: spill to local disk, never expand
  kAdaptive,   // extension: cost-model split-vs-replicate per overflow
};

const char* algorithm_name(Algorithm algorithm);

/// Which bucket the split-based algorithm splits on overflow.  The paper
/// describes both: ss1 says the algorithm "partitions the hash table range
/// assigned to the node, on which memory is full", while ss4.2.1's Litwin
/// linear-hashing machinery splits the bucket at the *split pointer*
/// regardless of who overflowed.  Only the requester-directed variant
/// reproduces the paper's measured skew behaviour (repeated migration of
/// the hot range, Fig. 11's communication blow-up, Fig. 13's imbalance);
/// the pointer variant is kept for the ablation bench.
enum class SplitVariant : std::uint8_t {
  kRequesterMidpoint,  // split the overflowing node's range at its midpoint
  kLinearPointer,      // classic Litwin: split the bucket at the pointer
};

const char* split_variant_name(SplitVariant variant);

/// Which process a KillSpec targets.  Join kills take out a pool node,
/// source kills a data-source node (the deterministic TupleStream slice is
/// reassigned to a pool recruit), scheduler kills the coordinator node (the
/// standby scheduler promotes itself -- requires ft.standby_scheduler).
enum class KillRole : std::uint8_t {
  kJoin,       // a join pool node (index = pool_index)
  kSource,     // a data-source node (index = source index)
  kScheduler,  // the active scheduler's node (index ignored)
};

const char* kill_role_name(KillRole role);

/// One injected fail-stop crash.  Exactly one trigger must be set: a time
/// trigger (`at_time` >= 0, virtual seconds under SimRuntime, wall seconds
/// after run() under ThreadRuntime) or a progress trigger (`after_chunks` >
/// 0).  The progress trigger is role-specific so kill points are
/// deterministic on every runtime: a join dies as its K-th data chunk
/// arrives, a source dies as it is about to emit its K-th data chunk, and
/// the scheduler dies as it processes its K-th protocol message.
struct KillSpec {
  KillRole role = KillRole::kJoin;
  std::uint32_t pool_index = 0;   // pool index (kJoin) / source index (kSource)
  double at_time = -1.0;          // < 0 = disabled
  std::uint64_t after_chunks = 0; // 0 = disabled
};

/// Injected failures for one run.  Any single process of a run -- join
/// node, data source, or the scheduler itself -- may be killed.
struct FaultPlan {
  std::vector<KillSpec> kills;
  bool empty() const { return kills.empty(); }
};

/// Failure-detection flavour (core/failure_detector).
enum class DetectorKind : std::uint8_t {
  /// Fixed silence threshold: dead after heartbeat_timeout_sec of silence.
  kTimeout,
  /// Phi-accrual (Hayashibara et al.): per-node pong inter-arrival
  /// distributions produce a continuous suspicion level; a node is declared
  /// dead when phi exceeds ft.phi_threshold.  Fast on quiet links, and the
  /// threshold is raised while a recovery pass is active so busy rebuilders
  /// are not re-declared dead (the DESIGN.md §7 cascade).
  kPhiAccrual,
};

const char* detector_kind_name(DetectorKind kind);

/// Failure-detection knobs.  The heartbeat machinery (pings, pongs,
/// per-message bookkeeping bytes) only runs when recovery is enabled, so
/// fault-free runs keep bit-identical event timelines with older builds.
struct FaultToleranceConfig {
  /// Arm detection/recovery even with an empty FaultPlan (e.g. to measure
  /// heartbeat overhead, or when only network faults are injected).
  bool force_enabled = false;
  /// Scheduler ping cadence.
  double heartbeat_interval_sec = 0.5;
  /// Silence after which a join node is declared dead.  Must comfortably
  /// exceed worst-case ping+pong queueing delay: a timeout that fires on a
  /// merely-busy node is safe (stale traffic is fenced) but wasteful, and a
  /// node rebuilding a collapsed range during recovery is busy for a long
  /// time (the full paper workload re-inserts ~2.5M tuples = ~0.6s of CPU,
  /// more if it spills).  Declaring *that* node dead folds the recovery
  /// onto the next owner and can cascade through the whole pool, so the
  /// default is sized for the paper-scale workload; small test workloads
  /// override both knobs downward for tighter detection latency.  Under
  /// kPhiAccrual this is the hard silence cap (phi can only *accelerate*
  /// detection below it) and the fallback rule until enough samples exist.
  double heartbeat_timeout_sec = 5.0;
  /// Which failure detector the scheduler runs.
  DetectorKind detector = DetectorKind::kTimeout;
  /// kPhiAccrual: suspicion threshold.  phi = -log10 P(a pong this silent
  /// is still in flight), so 8 means a one-in-10^8 event.  Doubled while a
  /// recovery pass is rebuilding partitions (busy-rebuilder guard).
  double phi_threshold = 8.0;
  /// kPhiAccrual: sliding inter-arrival window (samples kept per watched
  /// actor).  Small windows adapt fast but overreact to one slow pong;
  /// must be >= 1 (validated -- a zero window would leave phi undefined).
  std::uint32_t phi_window = 32;
  /// Run a standby scheduler that mirrors the active scheduler's state via
  /// snapshot messages and promotes itself when the active one dies.  Off
  /// by default (adds one node and snapshot traffic to the timeline).
  /// Required for KillRole::kScheduler faults.
  bool standby_scheduler = false;
};

struct EhjaConfig {
  Algorithm algorithm = Algorithm::kHybrid;

  /// Initial working join nodes (paper sweeps 1..16; default 4).
  std::uint32_t initial_join_nodes = 4;
  /// Join-node pool size, initial nodes included (OSUMed: 24 compute nodes).
  std::uint32_t join_pool_nodes = 24;
  /// Data source processes, each on its own node.
  std::uint32_t data_sources = 4;
  /// Per-node hash-table memory budget.  80 MiB makes 16 nodes exactly
  /// sufficient for the paper's base 10 M x 100 B workload (DESIGN.md ss4).
  std::uint64_t node_hash_memory_bytes = 80 * kMiB;

  /// Relations.  build_rel is hashed (paper: usually the smaller); probe_rel
  /// streams against it.
  RelationSpec build_rel{RelTag::kR, 10'000'000, Schema{100},
                         DistributionSpec::Uniform(), nullptr};
  RelationSpec probe_rel{RelTag::kS, 10'000'000, Schema{100},
                         DistributionSpec::Uniform(), nullptr};

  /// Transport chunk capacity (paper: 10 000 tuples); at most
  /// wire::kMaxFrameRows, so that a chunk fits in one socket frame.
  std::uint32_t chunk_tuples = 10'000;
  /// Tuples a data source generates per scheduling quantum; bounds how stale
  /// a source's partition map can get.  At most wire::kMaxFrameRows.
  std::uint32_t generation_slice_tuples = 10'000;

  std::uint64_t seed = 20040607;  // HPDC'04 conference date

  /// Sub-partitions per node for out-of-core spilling.
  std::size_t spill_fanout = 16;

  NodePickPolicy pick_policy = NodePickPolicy::kLargestFreeMemory;
  SplitVariant split_variant = SplitVariant::kRequesterMidpoint;

  /// Worker threads *inside* each join process driving its partition table
  /// (DESIGN.md §11).  1 = the historical single-threaded data plane; >1
  /// fans each large TupleBatch across an intra-node pool whose lanes share
  /// the node's one LocalHashTable.  The table, and so the join result, is
  /// identical at any setting on every runtime.
  std::uint32_t intra_threads = 1;

  /// Histogram-balanced initial partitioning (extension; the ss3 related
  /// work's frequency-based redistribution idea applied *up front*): the
  /// scheduler samples the build distribution and cuts the initial ranges
  /// with the reshuffle planner (core/reshuffle.hpp) over the sample's
  /// per-position histogram instead of equal widths, so skewed
  /// workloads start closer to balance and expand less.  The paper's own
  /// algorithms always start from equal ranges (the default).
  bool balanced_initial_partition = false;
  /// Sample size for the initial-partition histogram (the paper's intro
  /// notes sampling costs real work; it is charged to the scheduler node).
  std::uint64_t partition_sample = 100'000;

  /// Capture the join's output rows: every join node ships its matched
  /// (build_row_id, probe_row_id) pairs to the scheduler via kResultChunk
  /// ahead of its node report, and they land in RunMetrics::output_rows.
  /// The pipeline driver turns these into the next stage's build relation;
  /// one-shot runs leave it off (the checksum already proves the result).
  bool capture_output = false;
  /// Which pipeline stage this run executes (0-based; 0 also = standalone).
  /// Purely diagnostic on the execution path -- it tags traces, wire frames
  /// and error messages so a multi-stage failure names its stage.
  std::uint32_t pipeline_stage = 0;

  /// Optional run tracing (non-owning; must outlive the run).  When set,
  /// the scheduler and join processes emit phase transitions, expansions,
  /// memory samples and spill events -- see trace/trace.hpp.
  TraceSink* trace = nullptr;

  /// Hardware model knobs (ablation benches sweep these).
  LinkConfig link;
  CostModel cost;
  DiskConfig disk;

  /// Injected node failures and the detection knobs that go with them.
  FaultPlan faults;
  FaultToleranceConfig ft;

  /// Whether this run carries the failure-detection/recovery machinery
  /// (heartbeats, incarnation epochs, per-pair chunk accounting on the
  /// wire).  Off by default so fault-free runs reproduce the pre-recovery
  /// event timeline bit for bit.
  bool recovery_enabled() const {
    // A standby implies recovery: without heartbeats the active would never
    // ping it and the standby's own detector would falsely promote.
    return ft.force_enabled || ft.standby_scheduler || !faults.empty();
  }

  /// Schema of captured output rows: a join row carries both inputs'
  /// payloads side by side, so result chunks are costed at the combined
  /// width (capture_output runs only).
  Schema result_schema() const {
    return Schema{build_rel.schema.tuple_bytes + probe_rel.schema.tuple_bytes};
  }

  /// First kill spec targeting cluster node `node`, or nullptr.
  const KillSpec* kill_for_node(NodeId node) const;
  /// The cluster node a kill spec resolves to under the derived layout.
  NodeId kill_node_of(const KillSpec& kill) const;

  // --- derived layout: node 0 = scheduler/front-end, then sources, then
  // the join pool, then (optionally) the standby scheduler's node ---
  std::size_t total_nodes() const {
    return 1 + data_sources + join_pool_nodes +
           (ft.standby_scheduler ? 1 : 0);
  }
  NodeId scheduler_node() const { return 0; }
  NodeId source_node(std::uint32_t i) const {
    return static_cast<NodeId>(1 + i);
  }
  NodeId pool_node(std::uint32_t i) const {
    return static_cast<NodeId>(1 + data_sources + i);
  }
  /// Node hosting the standby scheduler (ft.standby_scheduler only).  On
  /// the socket runtime the driver overrides this to node 0: the
  /// coordinator process cannot be killed, so the standby shares it.
  NodeId standby_node() const {
    return static_cast<NodeId>(1 + data_sources + join_pool_nodes);
  }

  /// Sanity-check the configuration; aborts on nonsense (zero sources,
  /// initial nodes exceeding the pool, chunk of zero tuples, ...).
  void validate() const;

  /// Same checks as validate(), but returns the first problem as a
  /// human-readable message instead of aborting -- the front ends (CLI
  /// flags, the serve layer's client-submitted configs) turn this into a
  /// usage error / protocol reject rather than killing the process.
  /// nullopt means the configuration is sound.
  std::optional<std::string> validate_or_error() const;

  std::string to_string() const;
};

/// The ClusterSpec this configuration induces.
ClusterSpec make_cluster(const EhjaConfig& config);

}  // namespace ehja
