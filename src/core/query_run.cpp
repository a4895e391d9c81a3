#include "core/query_run.hpp"

#include <utility>

#include "core/data_source.hpp"
#include "core/join_process.hpp"
#include "core/scheduler.hpp"
#include "util/assert.hpp"

namespace ehja {

QueryPlacement QueryPlacement::from_config(const EhjaConfig& config,
                                           bool standby_on_scheduler_node) {
  QueryPlacement p;
  p.scheduler_node = config.scheduler_node();
  p.source_nodes.reserve(config.data_sources);
  for (std::uint32_t i = 0; i < config.data_sources; ++i) {
    p.source_nodes.push_back(config.source_node(i));
  }
  p.join_nodes.reserve(config.initial_join_nodes);
  for (std::uint32_t j = 0; j < config.initial_join_nodes; ++j) {
    p.join_nodes.push_back(config.pool_node(j));
  }
  p.pool_nodes.reserve(config.join_pool_nodes - config.initial_join_nodes);
  for (std::uint32_t j = config.initial_join_nodes;
       j < config.join_pool_nodes; ++j) {
    p.pool_nodes.push_back(config.pool_node(j));
  }
  if (config.ft.standby_scheduler) {
    p.standby_node = standby_on_scheduler_node ? config.scheduler_node()
                                               : config.standby_node();
  }
  return p;
}

QueryRun::QueryRun(Runtime& rt, std::shared_ptr<const EhjaConfig> config)
    : rt_(rt),
      config_(std::move(config)),
      scheduler_id_(std::make_shared<ActorId>(kInvalidActor)) {}

QueryRun::~QueryRun() = default;

ActorId QueryRun::record(ActorId id) {
  std::lock_guard<std::mutex> lock(spawned_mutex_);
  spawned_.push_back(id);
  return id;
}

std::vector<ActorId> QueryRun::spawned_actors() const {
  std::lock_guard<std::mutex> lock(spawned_mutex_);
  return spawned_;
}

void QueryRun::start(const QueryPlacement& placement) {
  EHJA_CHECK(!started_);
  started_ = true;
  EHJA_CHECK(placement.source_nodes.size() == config_->data_sources);
  EHJA_CHECK(placement.join_nodes.size() == config_->initial_join_nodes);

  Runtime* rt = &rt_;
  const auto cfg = config_;

  // The scheduler instantiates join processes on demand through this hook
  // ("a join process on node w is instantiated", paper ss4.1.1);
  // replacement data sources come through the sibling hook.  Each scheduler
  // instance (active and standby) gets closures bound to its own id cell,
  // so a recruit obeys whichever coordinator spawned it.  Everything the
  // hooks spawn lands in the retirement ledger.
  auto make_spawn_join = [this, rt, cfg](std::shared_ptr<ActorId> sched) {
    return [this, rt, cfg, sched](NodeId node) {
      return record(
          rt->spawn(node, std::make_unique<JoinProcessActor>(cfg, *sched)));
    };
  };
  auto make_spawn_source = [this, rt, cfg](std::shared_ptr<ActorId> sched) {
    return [this, rt, cfg, sched](NodeId node, std::uint32_t index) {
      return record(rt->spawn(
          node, std::make_unique<DataSourceActor>(cfg, index, *sched)));
    };
  };
  auto spawn_join = make_spawn_join(scheduler_id_);

  auto scheduler = std::make_unique<SchedulerActor>(
      cfg, spawn_join, make_spawn_source(scheduler_id_));
  scheduler_raw_ = scheduler.get();
  if (on_done_) scheduler_raw_->set_on_done(on_done_);
  *scheduler_id_ =
      record(rt->spawn(placement.scheduler_node, std::move(scheduler)));

  if (cfg->ft.standby_scheduler) {
    EHJA_CHECK(placement.standby_node.has_value());
    auto standby_id = std::make_shared<ActorId>(kInvalidActor);
    auto standby = std::make_unique<SchedulerActor>(
        cfg, make_spawn_join(standby_id), make_spawn_source(standby_id));
    standby_raw_ = standby.get();
    if (on_done_) standby_raw_->set_on_done(on_done_);
    *standby_id = record(rt->spawn(*placement.standby_node,
                                   std::move(standby)));
    standby_raw_->wire_standby(*scheduler_id_);
    scheduler_raw_->set_standby(*standby_id);
  }

  std::vector<ActorId> sources;
  sources.reserve(cfg->data_sources);
  for (std::uint32_t i = 0; i < cfg->data_sources; ++i) {
    sources.push_back(record(rt->spawn(
        placement.source_nodes[i],
        std::make_unique<DataSourceActor>(cfg, i, *scheduler_id_))));
  }

  std::vector<ActorId> initial_joins;
  initial_joins.reserve(cfg->initial_join_nodes);
  for (std::uint32_t j = 0; j < cfg->initial_join_nodes; ++j) {
    initial_joins.push_back(spawn_join(placement.join_nodes[j]));
  }

  ResourcePool pool(rt->cluster(), placement.pool_nodes, cfg->pick_policy);
  if (hooks_.acquire) pool.set_hooks(hooks_);

  scheduler_raw_->wire(std::move(sources), std::move(initial_joins),
                       std::move(pool), placement.source_nodes,
                       placement.join_nodes);
}

RunMetrics QueryRun::collect_metrics() const {
  const SchedulerActor* finished =
      scheduler_raw_ != nullptr && scheduler_raw_->finished()
          ? scheduler_raw_
          : standby_raw_ != nullptr && standby_raw_->finished() ? standby_raw_
                                                                : nullptr;
  EHJA_CHECK_MSG(finished != nullptr,
                 "runtime stopped before the join completed");
  return finished->metrics();
}

}  // namespace ehja
