// Multi-process TCP runtime (the third Runtime backend).
//
// SimRuntime models the paper's cluster; ThreadRuntime shakes out protocol
// races; SocketRuntime *is* a cluster: every NodeId runs as a separate OS
// process (runtime/launcher.hpp forks this binary in worker mode) and every
// message crosses a real TCP connection in the net/wire.hpp format.
//
// Topology.  The coordinator process (the one that called run_ehja) hosts
// node 0 -- by the driver's layout the scheduler -- and spawns one worker
// process per remaining node.  Startup handshake, all over loopback TCP:
//
//   1. worker -> coordinator   HELLO    (node id, mesh listen port,
//                                        incarnation epoch)
//   2. coordinator -> worker   WELCOME  (the full EhjaConfig, serialized;
//                                        wire-version mismatches fail here)
//   3. coordinator -> worker   PEERS    (every other worker's listen port)
//   4. worker <-> worker       PEER_HELLO on direct connections: the
//                              higher-numbered node dials the lower, so each
//                              unordered pair gets exactly one socket
//   5. worker -> coordinator   READY once its mesh is complete
//
// After READY the cluster is a full mesh: worker<->worker traffic (chunk
// forwarding, splits, reshuffle) never relays through the coordinator.
//
// Actor placement.  All spawns happen on the coordinator (the scheduler and
// driver run there), which assigns ActorIds sequentially and ships a SPAWN
// frame (an Actor::remote_spawn_spec recipe) to the owning worker plus
// ANNOUNCE frames (id -> node routes) to everyone else.  Because the
// coordinator announces an id before any message naming it can be sent,
// routes are almost always known on arrival; the rare cross-connection race
// is absorbed by pending queues on both the send and receive side.
//
// Delivery contract.  One TCP connection per node pair plus a per-connection
// sequence number on every actor-message frame gives per-pair FIFO -- the
// same ordering NetworkModel guarantees and the drain protocol relies on --
// and the receiver EHJA_CHECKs the sequence to prove it.  Worker death
// (SIGKILL from the FaultPlan, or any real crash) is observed by the
// launcher's reap and folded into the same fail-stop state as
// SimRuntime::kill_node: the node is marked dead, peers get NODE_DEAD and
// drop traffic to/from it, and the scheduler's heartbeat detector + recovery
// protocol take it from there, unchanged.
//
// One loop.  Coordinator and worker are two roles of one SocketLoop: the
// local queue, the timer heap, the poll pump over the peer links, the
// actor-message send and receive paths and the hosted/route/retired tables
// exist once, and a role adds only its side of the handshake plus a few
// hooks.  Control-frame bodies are net/wire.hpp field lists.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "core/config.hpp"
#include "runtime/actor.hpp"
#include "runtime/launcher.hpp"

namespace ehja {

namespace netio {
struct Conn;
}
namespace wire {
struct Frame;
enum class FrameKind : std::uint8_t;
}

/// Worker-mode entry point.  If argv requests worker mode
/// (`--ehja-worker=<node> --ehja-coordinator-port=<port>`), runs the worker
/// to completion and returns its exit code; otherwise returns nullopt.
/// Every binary that can host a socket run must call this first thing in
/// main() -- the launcher re-executes the binary itself.
std::optional<int> maybe_run_socket_worker(int argc, char** argv);

/// Per-pair FIFO acceptance: frame sequence numbers on one connection must
/// arrive exactly in send order.  Exposed for the ordering tests; the
/// runtimes EHJA_CHECK this on every received actor-message frame.
inline bool fifo_accept(std::uint64_t& expected_next, std::uint64_t seq) {
  if (seq != expected_next) return false;
  ++expected_next;
  return true;
}

/// The event loop every socket-runtime process runs, coordinator and worker
/// alike.  One turn: start freshly hosted actors, deliver up to a batch of
/// local messages, fire due timers, run the role's idle work, then one
/// poll() over every peer link plus the watched fds.  Actor messages are
/// routed, received and delivered here; roles plug in through the virtual
/// hooks below and never re-implement any of it.
class SocketLoop : public Runtime {
 public:
  ~SocketLoop() override;

  void send(Actor& from, ActorId to, Message msg) override;
  void defer(Actor& from, Message msg) override;
  void defer_after(Actor& from, Message msg, double delay_sec) override;
  /// Wall-clock runtime: CPU cost is whatever the hardware does.
  void charge(Actor& /*from*/, double /*cpu_seconds*/) override {}
  SimTime actor_now(const Actor& actor) const override;
  bool node_alive(NodeId node) const override;
  /// Turn the loop until request_stop() (or a role hook) sets stop_.
  void run() override;
  void request_stop() override { stop_ = true; }
  const ClusterSpec& cluster() const override { return spec_; }

 protected:
  struct Inbound {
    ActorId to = kInvalidActor;
    NodeId from_node = -1;
    Message msg;
  };

  /// `local_batch` caps the local messages delivered per turn.
  SocketLoop(NodeId self, std::size_t local_batch);

  // --- role hooks ---

  /// After timers fire, before the poll (the serving coordinator's idle
  /// hook).
  virtual void after_timers() {}
  /// Before the poll set is built (the coordinator reaps dead workers).
  virtual void before_poll() {}
  /// Any frame but kActorMsg.
  virtual void on_control_frame(const wire::Frame& f) = 0;
  /// send() to an id with no route (the coordinator knows every route).
  virtual void on_unrouted_send(ActorId to, Message msg) = 0;
  /// An actor message for an id this process does not host.
  virtual void on_unhosted_receive(NodeId from, ActorId to, Message msg) = 0;
  /// A link hit EOF or broke.  A worker's death is the coordinator's reap,
  /// not this; the coordinator's death is a worker's cue to exit.
  virtual void on_connection_lost(const netio::Conn& /*conn*/) {}

  /// Size the per-node tables for `spec`.
  void set_cluster(ClusterSpec spec);
  /// Bind and keep a local actor; it starts at the top of the next turn.
  void host(ActorId id, std::unique_ptr<Actor> actor);
  /// Forget `id` here: free its instance and void its traffic.
  void forget(ActorId id);
  /// Fail-stop `node`: close its link, drop its traffic from now on.  False
  /// if it was dead (or unknown) already.
  bool mark_dead(NodeId node);
  /// Queue `msg` for `to` on node `dst`: locally, or as one frame on the
  /// peer link (dropped once the peer is dead).
  void route_to(NodeId dst, ActorId to, NodeId from_node, Message msg);
  /// Run `fn` after `delay_sec`; before run() the delay counts from run().
  void enqueue_timer(double delay_sec, std::function<void()> fn);
  /// Take in every complete frame buffered on `conn`: actor messages are
  /// decoded in place and queued for their actor, the rest go to
  /// on_control_frame.
  void handle_frames(netio::Conn& conn);

  const NodeId self_;
  ClusterSpec spec_;
  /// Indexed by peer NodeId; a worker's coordinator link is entry 0.
  std::vector<std::unique_ptr<netio::Conn>> conns_;
  std::map<ActorId, std::unique_ptr<Actor>> hosted_;
  std::map<ActorId, NodeId> route_;  // ActorId -> hosting node
  std::deque<Inbound> local_q_;
  /// External fds polled with the peer links (the serve front end).
  std::map<int, std::function<void()>> watched_fds_;
  bool stop_ = false;

 private:
  struct Timer {
    double due = 0.0;  // seconds on the run clock
    std::uint64_t seq = 0;
    std::function<void()> fn;
    /// Heap order: the earliest due timer, FIFO among equals, on top.
    static bool later(const Timer& a, const Timer& b) {
      return a.due > b.due || (a.due == b.due && a.seq > b.seq);
    }
  };

  double now_sec() const;
  void drain_local();
  void fire_due_timers();
  void pump(int timeout_ms);

  const std::size_t local_batch_;
  std::vector<char> node_dead_;
  std::set<ActorId> retired_;  // ids whose traffic is void
  std::vector<ActorId> start_q_;
  std::vector<Timer> timer_heap_;
  std::uint64_t timer_seq_ = 0;
  /// Timers set before run() park here until the clock exists.
  std::vector<std::pair<double, std::function<void()>>> pre_run_timers_;
  bool running_ = false;
  std::chrono::steady_clock::time_point epoch_;
};

/// The coordinator-side Runtime.  Constructing it launches and handshakes
/// the whole worker fleet; run() drives the scheduler plus all socket I/O
/// on the calling thread until request_stop(), then shuts the fleet down.
class SocketRuntime final : public SocketLoop {
 public:
  /// `config` is shipped to every worker in the WELCOME frame (minus the
  /// trace sink -- tracing only observes coordinator-side actors).
  SocketRuntime(ClusterSpec spec, const EhjaConfig& config);
  ~SocketRuntime() override;

  ActorId spawn(NodeId node, std::unique_ptr<Actor> actor) override;
  void kill_node(NodeId node) override;
  void schedule_kill(NodeId node, double at) override;
  std::uint32_t kills_executed() const override { return kills_executed_; }
  void run() override;

  // --- serving-layer extensions (see src/serve/) -----------------------

  /// Forget a finished actor cluster-wide: the coordinator drops its local
  /// instance (or tells the owning worker to), tombstones the id so
  /// straggler traffic is silently discarded, and broadcasts kRetire.  A
  /// long-lived coordinator would otherwise leak one Actor per query
  /// forever.  Must not be called from inside the actor's own handler.
  void retire_actor(ActorId id) override;

  /// Hook invoked once per event-loop iteration, after local delivery and
  /// timers, before blocking on sockets.  The serving coordinator does its
  /// admission/finalization work here, on the runtime thread, so it never
  /// races actor delivery.
  void set_idle_hook(std::function<void()> hook) { idle_hook_ = std::move(hook); }

  /// Poll an external fd alongside the fleet sockets; `on_event` fires on
  /// readability (or error/EOF -- the callee inspects the fd).  This is how
  /// the serve front end multiplexes its client listener and client
  /// connections into the runtime's single event loop.
  void watch_fd(int fd, std::function<void()> on_event);
  void unwatch_fd(int fd);

 private:
  void after_timers() override;
  void before_poll() override;
  void on_control_frame(const wire::Frame& f) override;
  void on_unrouted_send(ActorId to, Message msg) override;
  void on_unhosted_receive(NodeId from, ActorId to, Message msg) override;

  void handshake();
  /// Queue one frame to every live worker except `except` (0 = none).
  void broadcast(wire::FrameKind kind, const std::vector<std::uint8_t>& body,
                 NodeId except = 0);
  void shutdown_cluster();
  /// Ship `config` (if it differs from the handshake config) to `node`
  /// exactly once; returns the config id to stamp into the SPAWN frame
  /// (0 = the handshake config).
  std::uint32_t ship_config(NodeId node,
                            const std::shared_ptr<const EhjaConfig>& config);

  EhjaConfig config_;
  Launcher launcher_;
  int listen_fd_ = -1;
  ActorId next_id_ = 0;
  std::uint32_t kills_executed_ = 0;
  bool stopping_ = false;  // shutdown begun: exits are no longer failures
  bool shutdown_done_ = false;

  // Serving-layer state: per-query config shipping and the idle hook
  // (empty and inert for classic one-shot runs).
  struct ShippedConfig {
    /// Pinned so the pointer key in config_ids_ can never be recycled by a
    /// later allocation (a few hundred bytes per distinct query config).
    std::shared_ptr<const EhjaConfig> config;
    std::vector<std::uint8_t> body;  // encoded once
    std::set<NodeId> holders;        // nodes that already received it
  };
  std::map<const EhjaConfig*, std::uint32_t> config_ids_;
  std::map<std::uint32_t, ShippedConfig> shipped_configs_;
  std::uint32_t next_config_id_ = 1;
  std::function<void()> idle_hook_;
};

}  // namespace ehja
