#include "runtime/sim_runtime.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/log.hpp"

namespace ehja {

SimRuntime::SimRuntime(ClusterSpec spec)
    : spec_(std::move(spec)),
      network_(spec_.node_count(), spec_.link),
      node_busy_until_(spec_.node_count(), 0.0),
      node_dead_(spec_.node_count(), 0) {}

ActorId SimRuntime::spawn(NodeId node, std::unique_ptr<Actor> actor) {
  EHJA_CHECK(node >= 0 && static_cast<std::size_t>(node) < spec_.node_count());
  const ActorId id = static_cast<ActorId>(actors_.size());
  actor->bind(this, id, node);
  actors_.push_back(std::move(actor));
  Actor* raw = actors_.back().get();
  // Spawned from inside a handler: the new process starts after a setup
  // latency relative to the spawner's effective clock.  Spawned from the
  // driver before run(): starts at time zero.
  const SimTime start_at =
      executing_ != nullptr ? exec_time_ + kSpawnLatencySec : sim_.now();
  sim_.schedule_at(start_at, [this, raw, start_at] {
    execute(*raw, start_at, [raw] { raw->on_start(); });
  });
  return id;
}

void SimRuntime::send(Actor& from, ActorId to, Message msg) {
  EHJA_CHECK(to >= 0 && static_cast<std::size_t>(to) < actors_.size());
  EHJA_CHECK_MSG(&from == executing_ || executing_ == nullptr,
                 "send() outside the sender's own handler");
  const SimTime ready = executing_ != nullptr ? exec_time_ : sim_.now();
  const NodeId src = from.node();
  const NodeId dst = actors_[static_cast<std::size_t>(to)]->node();
  const NetworkModel::Delivery plan =
      network_.plan(src, dst, msg.wire_bytes, ready);
  // Blocking (synchronous) send semantics: the sender's handler resumes when
  // the NIC has taken the message.  This is both how the 2004 TCP stack
  // behaved under a full send window and the flow control that keeps a fast
  // generator from queueing its entire relation as in-flight events.
  if (executing_ == &from) {
    exec_time_ = std::max(exec_time_, plan.tx_done);
  }
  deliver(to, std::move(msg), plan.arrival, src);
}

void SimRuntime::defer(Actor& from, Message msg) {
  const SimTime ready = executing_ != nullptr ? exec_time_ : sim_.now();
  deliver(from.id(), std::move(msg), ready, from.node());
}

void SimRuntime::defer_after(Actor& from, Message msg, double delay_sec) {
  EHJA_CHECK(delay_sec >= 0.0);
  const SimTime ready = executing_ != nullptr ? exec_time_ : sim_.now();
  msg.from = from.id();
  deliver(from.id(), std::move(msg), ready + delay_sec, from.node());
}

void SimRuntime::deliver(ActorId to, Message msg, SimTime arrival,
                         NodeId src_node) {
  Actor* target = actors_[static_cast<std::size_t>(to)].get();
  auto shared = std::make_shared<Message>(std::move(msg));
  sim_.schedule_at(arrival, [this, target, shared, arrival, src_node] {
    // Fail-stop check at delivery time: a message in flight when either
    // endpoint died is lost with the machine.
    if (node_dead_[static_cast<std::size_t>(target->node())]) return;
    if (src_node >= 0 && node_dead_[static_cast<std::size_t>(src_node)]) {
      return;
    }
    execute(*target, arrival,
            [target, shared] { target->on_message(*shared); });
  });
}

void SimRuntime::kill_node(NodeId node) {
  EHJA_CHECK(node >= 0 && static_cast<std::size_t>(node) < spec_.node_count());
  char& dead = node_dead_[static_cast<std::size_t>(node)];
  if (dead) return;
  dead = 1;
  ++kills_executed_;
}

void SimRuntime::schedule_kill(NodeId node, double at) {
  EHJA_CHECK(node >= 0 && static_cast<std::size_t>(node) < spec_.node_count());
  EHJA_CHECK(at >= sim_.now());
  sim_.schedule_at(at, [this, node] { kill_node(node); });
}

bool SimRuntime::node_alive(NodeId node) const {
  EHJA_CHECK(node >= 0 && static_cast<std::size_t>(node) < spec_.node_count());
  return !node_dead_[static_cast<std::size_t>(node)];
}

void SimRuntime::execute(Actor& target, SimTime ready,
                         const std::function<void()>& body) {
  if (stopped_) return;
  if (node_dead_[static_cast<std::size_t>(target.node())]) return;
  EHJA_CHECK_MSG(executing_ == nullptr, "re-entrant handler execution");
  SimTime& busy = node_busy_until_[static_cast<std::size_t>(target.node())];
  executing_ = &target;
  exec_time_ = std::max(ready, busy);
  body();
  busy = exec_time_;
  executing_ = nullptr;
  // Consumer-paced admission: while this node was busy it was not draining
  // its receive buffers, so its RX side stays occupied until now and
  // senders targeting it block -- the backpressure that makes a disk-bound
  // node throttle its producers.
  network_.stall_rx(target.node(), busy);
}

void SimRuntime::charge(Actor& from, double cpu_seconds) {
  EHJA_CHECK_MSG(&from == executing_, "charge() outside the actor's handler");
  EHJA_CHECK(cpu_seconds >= 0.0);
  const double scale = spec_.node(from.node()).cpu_scale * spec_.cost.cpu_scale;
  exec_time_ += cpu_seconds / scale;
}

SimTime SimRuntime::actor_now(const Actor& actor) const {
  return &actor == executing_ ? exec_time_ : sim_.now();
}

void SimRuntime::run() {
  sim_.run();
}

void SimRuntime::request_stop() {
  stopped_ = true;
  sim_.clear();
}

}  // namespace ehja
