// One join query as a reusable, re-entrant unit.
//
// Historically core/driver.cpp wired scheduler + sources + joins straight
// into a runtime, ran it to completion, and exited -- run-once semantics
// baked into the only entry point.  The serving layer (src/serve/) needs
// the same wiring as an object: a persistent coordinator hosts *many*
// concurrent QueryRuns over one warm worker fleet, each with its own
// scheduler instance, its own RunMetrics, and its own placement on the
// shared pool.  run_ehja() is now a thin wrapper over one QueryRun.
//
// Differences from the classic single-query layout, all opt-in:
//   * placement is explicit (QueryPlacement) instead of derived from the
//     config's node-numbering scheme, so many queries can pack onto one
//     fleet;
//   * completion is a callback (scheduler set_on_done) instead of stopping
//     the runtime;
//   * the per-query ResourcePool can be backed by PoolHooks, so expansion
//     ("give me one more node") becomes a negotiation with the admission
//     controller rather than a free grant.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "cluster/resource_pool.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "runtime/actor.hpp"

namespace ehja {

class SchedulerActor;

/// Where one query's processes live.  `pool_nodes` are the *unclaimed*
/// expansion candidates (the classic layout puts config.join_pool_nodes -
/// initial_join_nodes of them); they seed the query's ResourcePool.
struct QueryPlacement {
  NodeId scheduler_node = 0;
  std::vector<NodeId> source_nodes;          // size == config.data_sources
  std::vector<NodeId> join_nodes;            // size == config.initial_join_nodes
  std::vector<NodeId> pool_nodes;            // unclaimed expansion candidates
  std::optional<NodeId> standby_node;        // ft.standby_scheduler only

  /// The classic config-derived layout (node 0 scheduler, then sources,
  /// then pool).  `standby_on_scheduler_node` reproduces the socket-runtime
  /// rule that the standby shares the coordinator process.
  static QueryPlacement from_config(const EhjaConfig& config,
                                    bool standby_on_scheduler_node);
};

/// One join run: spawns and wires the actors on construction via start(),
/// then hands control to the runtime.  The QueryRun must outlive the
/// runtime's use of it only in the sense that metrics are read from the
/// scheduler actor; collect_metrics() must be called before the actors are
/// retired.
class QueryRun {
 public:
  QueryRun(Runtime& rt, std::shared_ptr<const EhjaConfig> config);
  ~QueryRun();

  QueryRun(const QueryRun&) = delete;
  QueryRun& operator=(const QueryRun&) = delete;

  /// Completion hook, forwarded to the scheduler(s); install before
  /// start().  Without one, run completion stops the whole runtime (the
  /// one-shot driver behaviour).
  void set_on_done(std::function<void()> on_done) {
    on_done_ = std::move(on_done);
  }
  /// Back this query's expansion pool with an external provider (the
  /// admission controller); install before start().
  void set_pool_hooks(PoolHooks hooks) { hooks_ = std::move(hooks); }

  /// Spawn scheduler (+ standby), sources and initial joins per
  /// `placement`, build the ResourcePool from placement.pool_nodes, and
  /// wire everything.  Call exactly once, before Runtime::run() (or, in a
  /// serving coordinator, from the runtime's idle hook).
  void start(const QueryPlacement& placement);

  /// Metrics from whichever coordinator finished (aborts if none did).
  /// `kills_executed` is runtime-global, so the driver (not this class)
  /// stamps failures_injected.
  RunMetrics collect_metrics() const;

  ActorId scheduler_id() const { return *scheduler_id_; }

  /// Every actor this query ever spawned (initial wiring plus expansion
  /// recruits and replacement sources) -- the retirement list a serving
  /// coordinator hands to Runtime::retire_actor once results are read.
  std::vector<ActorId> spawned_actors() const;

 private:
  ActorId record(ActorId id);

  Runtime& rt_;
  std::shared_ptr<const EhjaConfig> config_;
  std::function<void()> on_done_;
  PoolHooks hooks_;
  std::shared_ptr<ActorId> scheduler_id_;
  SchedulerActor* scheduler_raw_ = nullptr;
  SchedulerActor* standby_raw_ = nullptr;
  bool started_ = false;
  /// Expansion recruits are spawned from scheduler message handling, which
  /// on ThreadRuntime is another thread than the one reading
  /// spawned_actors(); a mutex keeps the ledger sound everywhere.
  mutable std::mutex spawned_mutex_;
  std::vector<ActorId> spawned_;
};

}  // namespace ehja
