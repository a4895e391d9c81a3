// Deterministic discrete-event runtime.
//
// Executes actors in virtual time.  Each node processes one handler at a
// time: a message arriving at time T starts executing at max(T, node busy
// time); charge() advances the handler's effective clock; sends leave at the
// effective clock and acquire NIC time from the NetworkModel.  Handlers run
// atomically at their arrival event, with busy-time bookkeeping keeping the
// logical timeline consistent (see the runtime tests for the ordering
// properties this guarantees).
//
// Determinism: single-threaded, tie-broken event queue, no wall-clock or
// entropy inputs => every run is bit-identical, which is what lets the
// benches regenerate the paper's figures exactly.
#pragma once

#include <memory>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "net/network.hpp"
#include "runtime/actor.hpp"
#include "sim/simulator.hpp"

namespace ehja {

class SimRuntime final : public Runtime {
 public:
  explicit SimRuntime(ClusterSpec spec);

  ActorId spawn(NodeId node, std::unique_ptr<Actor> actor) override;
  void send(Actor& from, ActorId to, Message msg) override;
  void defer(Actor& from, Message msg) override;
  void charge(Actor& from, double cpu_seconds) override;
  SimTime actor_now(const Actor& actor) const override;
  void defer_after(Actor& from, Message msg, double delay_sec) override;
  void kill_node(NodeId node) override;
  void schedule_kill(NodeId node, double at) override;
  bool node_alive(NodeId node) const override;
  std::uint32_t kills_executed() const override { return kills_executed_; }
  void run() override;
  void request_stop() override;
  const ClusterSpec& cluster() const override { return spec_; }

  /// Virtual time at which the last processed event's handler finished.
  SimTime now() const { return sim_.now(); }
  const NetworkModel& network() const { return network_; }
  Simulator& simulator() { return sim_; }

  /// Fixed cost of instantiating a join process on a new node (process
  /// startup + connection setup); the scheduler pays it on each expansion.
  static constexpr double kSpawnLatencySec = 5e-3;

 private:
  void deliver(ActorId to, Message msg, SimTime arrival, NodeId src_node);
  void execute(Actor& target, SimTime ready,
               const std::function<void()>& body);

  ClusterSpec spec_;
  Simulator sim_;
  NetworkModel network_;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<SimTime> node_busy_until_;
  /// Fail-stop flags: a dead node executes no handlers, and messages whose
  /// sender or receiver node is dead vanish at delivery time (the wire and
  /// kernel buffers died with the machine).
  std::vector<char> node_dead_;
  std::uint32_t kills_executed_ = 0;
  Actor* executing_ = nullptr;
  SimTime exec_time_ = 0.0;
  bool stopped_ = false;
};

}  // namespace ehja
