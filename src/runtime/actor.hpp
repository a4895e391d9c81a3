// Actor programming model.
//
// The paper's three components -- scheduler, data sources, join processes
// (ss4.1) -- are actors: event handlers driven by message delivery.  Actors
// are written once against the abstract Runtime and run unchanged on either
// the deterministic discrete-event runtime (SimRuntime, virtual time, used
// for all figures) or the thread runtime (ThreadRuntime, real concurrency,
// used to shake out protocol races).
//
// Handler contract:
//   * on_start() runs once when the actor is spawned.
//   * on_message() runs once per delivered message, serialized per node.
//   * charge(sec) accounts CPU work at the actor's node; under the DES it
//     advances the node's busy time, under threads it is a no-op.
//   * send() transfers a message with network cost; defer() re-enqueues a
//     message to self with no cost (used to slice long local work so that
//     control messages interleave, e.g. a data source pausing generation
//     when the scheduler announces a new join node).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "cluster/cluster_spec.hpp"
#include "net/network.hpp"
#include "runtime/message.hpp"
#include "sim/simulator.hpp"

namespace ehja {

class Runtime;
struct EhjaConfig;

/// Recipe for re-instantiating an actor in another OS process (the socket
/// runtime forks one worker per cluster node).  Actors cannot be shipped as
/// objects, but the two kinds the driver and scheduler place on worker nodes
/// -- join processes and data sources -- are fully determined by the shared
/// EhjaConfig plus these few fields, so a worker-side factory rebuilds them.
struct RemoteSpawnSpec {
  enum class Kind : std::uint8_t { kJoinProcess = 0, kDataSource = 1 };
  Kind kind = Kind::kJoinProcess;
  std::uint32_t source_index = 0;  // kDataSource only
  ActorId scheduler = kInvalidActor;
  /// The config the actor was built against.  Classic runs ship one config
  /// in the handshake and this matches it; a serving fleet multiplexes many
  /// queries with *different* configs onto one worker, so the socket
  /// runtime ships this one (deduplicated) before the SPAWN that needs it.
  std::shared_ptr<const EhjaConfig> config;
};

class Actor {
 public:
  virtual ~Actor() = default;

  virtual void on_start() {}
  virtual void on_message(const Message& msg) = 0;
  /// Short tag for log lines.
  virtual std::string name() const { return "actor"; }

  /// How to rebuild this actor in a worker process, or nullopt for actor
  /// kinds that only run where they were constructed (the socket runtime
  /// refuses to place those on a remote node).
  virtual std::optional<RemoteSpawnSpec> remote_spawn_spec() const {
    return std::nullopt;
  }

  ActorId id() const { return id_; }
  NodeId node() const { return node_; }

 protected:
  Runtime& rt() const {
    EHJA_CHECK_MSG(rt_ != nullptr, "actor not yet spawned");
    return *rt_;
  }
  void send(ActorId to, Message msg);
  void defer(Message msg);
  void defer_after(Message msg, double delay_sec);
  void charge(double cpu_seconds);
  SimTime now() const;

 private:
  friend class SimRuntime;
  friend class ThreadRuntime;
  friend class SocketLoop;
  friend class HarnessRuntime;  // tests/actor_harness.hpp
  void bind(Runtime* rt, ActorId id, NodeId node) {
    rt_ = rt;
    id_ = id;
    node_ = node;
  }

  Runtime* rt_ = nullptr;
  ActorId id_ = kInvalidActor;
  NodeId node_ = -1;
};

/// Abstract execution environment shared by both runtimes.
class Runtime {
 public:
  virtual ~Runtime() = default;

  /// Register an actor on `node`.  Legal before run() and from inside a
  /// running handler (the scheduler spawns join processes dynamically).
  virtual ActorId spawn(NodeId node, std::unique_ptr<Actor> actor) = 0;

  virtual void send(Actor& from, ActorId to, Message msg) = 0;
  virtual void defer(Actor& from, Message msg) = 0;
  virtual void charge(Actor& from, double cpu_seconds) = 0;
  virtual SimTime actor_now(const Actor& actor) const = 0;

  /// Deliver `msg` back to `from` after `delay_sec` (heartbeat and other
  /// self-timers).  The base default degrades to an immediate defer(), which
  /// is only acceptable for runtimes that never host timed protocols.
  virtual void defer_after(Actor& from, Message msg, double /*delay_sec*/) {
    defer(from, std::move(msg));
  }

  /// --- fault injection (fail-stop node crashes) ---
  /// Crash every actor on `node` now: their handlers stop running and all
  /// messages to or from the node are silently discarded from this point on.
  virtual void kill_node(NodeId /*node*/) {}
  /// Crash `node` at time `at` (virtual seconds under the DES, wall seconds
  /// after run() under threads).  Legal before run().
  virtual void schedule_kill(NodeId /*node*/, double /*at*/) {}
  virtual bool node_alive(NodeId /*node*/) const { return true; }
  /// Kills that actually fired (a kill scheduled after the run drained the
  /// event queue never executes).
  virtual std::uint32_t kills_executed() const { return 0; }

  /// Drive to completion: the DES runs the event queue dry; the thread
  /// runtime blocks until request_stop().
  virtual void run() = 0;
  virtual void request_stop() = 0;

  virtual const ClusterSpec& cluster() const = 0;

  /// Forget a finished actor: free its instance and discard any straggler
  /// traffic addressed to it.  Optional -- one-shot runtimes tear everything
  /// down at exit and need not implement it; a long-lived serving runtime
  /// must, or it leaks one actor per completed query.
  virtual void retire_actor(ActorId /*id*/) {}
};

inline void Actor::send(ActorId to, Message msg) {
  msg.from = id_;
  rt().send(*this, to, std::move(msg));
}

inline void Actor::defer(Message msg) {
  msg.from = id_;
  rt().defer(*this, std::move(msg));
}

inline void Actor::defer_after(Message msg, double delay_sec) {
  msg.from = id_;
  rt().defer_after(*this, std::move(msg), delay_sec);
}

inline void Actor::charge(double cpu_seconds) { rt().charge(*this, cpu_seconds); }

inline SimTime Actor::now() const { return rt().actor_now(*this); }

}  // namespace ehja
