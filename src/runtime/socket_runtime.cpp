#include "runtime/socket_runtime.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>

#include "core/data_source.hpp"
#include "core/join_process.hpp"
#include "net/framed_conn.hpp"
#include "net/wire.hpp"
#include "util/assert.hpp"
#include "util/log.hpp"

namespace ehja {

// The connection plumbing (Conn, listeners, frame cutting) lives in
// net/framed_conn.{hpp,cpp} now, shared with the serve layer's client links.
using netio::adopt_fd;
using netio::Conn;
using netio::connect_loopback;
using netio::flush_out;
using netio::make_listener;
using netio::must_flush;
using netio::must_recv_frame;
using netio::next_frame;
using netio::queue_frame;
using netio::read_available;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kCoordinatorBatch = 64;
// A worker's local batch stays small so a self-deferring actor (a data
// source generating slices) cannot starve inbound control traffic.
constexpr std::size_t kWorkerBatch = 32;
// A link starts sending inside a handler once this many bytes wait in its
// output buffer (about two full data frames of 10k rows), instead of after
// the handler returns and the loop has worked through its batch.  A turn's
// control frames stay far below it, so they still go out once per turn.
constexpr std::size_t kEarlyFlushBytes = 256u << 10;
constexpr int kIdlePollMs = 50;
constexpr double kHandshakeTimeoutSec = 60.0;
constexpr std::uint64_t kFirstIncarnation = 1;

wire::HelloFrame parse_hello(const wire::Frame& f, const char* what) {
  wire::HelloFrame h;
  EHJA_CHECK_MSG(wire::decode_body(f.body, h) && h.port <= 0xffff,
                 (std::string("corrupt ") + what).c_str());
  return h;
}

}  // namespace

// ---------------------------------------------------------------------------
// The shared loop
// ---------------------------------------------------------------------------

SocketLoop::SocketLoop(NodeId self, std::size_t local_batch)
    : self_(self), local_batch_(local_batch) {}

SocketLoop::~SocketLoop() = default;

void SocketLoop::set_cluster(ClusterSpec spec) {
  spec_ = std::move(spec);
  node_dead_.assign(spec_.node_count(), 0);
  conns_.resize(spec_.node_count());
}

void SocketLoop::host(ActorId id, std::unique_ptr<Actor> actor) {
  actor->bind(this, id, self_);
  route_[id] = self_;
  hosted_.emplace(id, std::move(actor));
  // Always via the start queue: a mid-run spawn (the serving layer starts
  // whole queries from the idle hook) must not run on_start() before its
  // query finishes wiring -- the scheduler's on_start needs its pool.
  start_q_.push_back(id);
}

void SocketLoop::forget(ActorId id) {
  retired_.insert(id);
  hosted_.erase(id);
  route_.erase(id);
}

bool SocketLoop::mark_dead(NodeId node) {
  if (!node_alive(node)) return false;
  node_dead_[node] = 1;
  conns_[node].reset();  // unread input and unsent output die with the node
  return true;
}

void SocketLoop::send(Actor& from, ActorId to, Message msg) {
  if (retired_.count(to) != 0) return;  // finished query; traffic is void
  const auto it = route_.find(to);
  if (it == route_.end()) {
    on_unrouted_send(to, std::move(msg));
    return;
  }
  if (!node_alive(from.node())) return;
  route_to(it->second, to, from.node(), std::move(msg));
}

void SocketLoop::route_to(NodeId dst, ActorId to, NodeId from_node,
                          Message msg) {
  if (dst == self_) {
    local_q_.push_back(Inbound{to, from_node, std::move(msg)});
    return;
  }
  // Fail-stop: traffic to a dead peer is dropped silently.
  if (!node_alive(dst) || conns_[dst] == nullptr || !conns_[dst]->usable()) {
    return;
  }
  // The actor-message frame: destination id and per-link sequence number,
  // then the message itself, encoded straight into the link's output.
  Conn& c = *conns_[dst];
  const std::size_t frame = wire::begin_frame(c.out);
  wire::Writer w(std::move(c.out));
  w.zigzag(to);
  w.varint(c.next_send_seq++);
  wire::encode_message(msg, w);
  c.out = w.take();
  wire::end_frame(c.out, frame, wire::FrameKind::kActorMsg);
  if (c.out.size() - c.out_off >= kEarlyFlushBytes) {
    flush_out(c);
    // pump() polls usable links only, so a break found here is reported
    // here or never.
    if (c.broken) on_connection_lost(c);
  }
}

void SocketLoop::defer(Actor& from, Message msg) {
  local_q_.push_back(Inbound{from.id(), from.node(), std::move(msg)});
}

void SocketLoop::defer_after(Actor& from, Message msg, double delay_sec) {
  enqueue_timer(delay_sec, [this, id = from.id(), node = from.node(),
                            msg = std::move(msg)] {
    local_q_.push_back(Inbound{id, node, msg});
  });
}

SimTime SocketLoop::actor_now(const Actor& /*actor*/) const {
  return now_sec();
}

bool SocketLoop::node_alive(NodeId node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= node_dead_.size()) {
    return false;
  }
  return !node_dead_[node];
}

double SocketLoop::now_sec() const {
  if (!running_) return 0.0;
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

void SocketLoop::enqueue_timer(double delay_sec, std::function<void()> fn) {
  if (!running_) {
    pre_run_timers_.emplace_back(delay_sec, std::move(fn));
    return;
  }
  Timer t;
  t.due = now_sec() + std::max(0.0, delay_sec);
  t.seq = timer_seq_++;
  t.fn = std::move(fn);
  timer_heap_.push_back(std::move(t));
  std::push_heap(timer_heap_.begin(), timer_heap_.end(), Timer::later);
}

void SocketLoop::fire_due_timers() {
  while (!timer_heap_.empty() && timer_heap_.front().due <= now_sec()) {
    std::pop_heap(timer_heap_.begin(), timer_heap_.end(), Timer::later);
    Timer t = std::move(timer_heap_.back());
    timer_heap_.pop_back();
    t.fn();
  }
}

void SocketLoop::drain_local() {
  for (std::size_t n = 0; n < local_batch_ && !local_q_.empty() && !stop_;
       ++n) {
    const Inbound in = std::move(local_q_.front());
    local_q_.pop_front();
    if (!node_alive(in.from_node)) continue;   // sender died; message lost
    if (retired_.count(in.to) != 0) continue;  // retired mid-queue; drop
    const auto it = hosted_.find(in.to);
    EHJA_CHECK_MSG(it != hosted_.end(), "local queue names unknown actor");
    it->second->on_message(in.msg);
  }
}

void SocketLoop::handle_frames(Conn& conn) {
  // Actor messages decode from the frame where it lies in conn.in; nothing
  // here reads from conn, so the view outlives each decode.
  wire::FrameView f;
  while (conn.usable() && next_frame(conn, f)) {
    if (f.kind != wire::FrameKind::kActorMsg) {
      on_control_frame(wire::Frame{f.kind, {f.body.begin(), f.body.end()}});
      continue;
    }
    wire::Reader r(f.body.data(), f.body.size());
    const auto to = static_cast<ActorId>(r.zigzag());
    const std::uint64_t seq = r.varint();
    Message msg;
    EHJA_CHECK_MSG(
        wire::decode_message(r, msg) && r.ok() && r.remaining() == 0,
        "corrupt actor-message frame");
    EHJA_CHECK_MSG(fifo_accept(conn.next_recv_seq, seq),
                   "per-pair FIFO violation");
    if (retired_.count(to) != 0) continue;  // straggler past retirement
    if (hosted_.count(to) != 0) {
      local_q_.push_back(Inbound{to, conn.peer, std::move(msg)});
    } else {
      on_unhosted_receive(conn.peer, to, std::move(msg));
    }
  }
}

void SocketLoop::pump(int timeout_ms) {
  before_poll();
  std::vector<pollfd> pfds;
  std::vector<NodeId> which;
  for (std::size_t n = 0; n < conns_.size(); ++n) {
    const Conn* c = conns_[n].get();
    if (c == nullptr || !c->usable()) continue;
    short ev = POLLIN;
    if (c->wants_write()) ev |= POLLOUT;
    pfds.push_back({c->fd, ev, 0});
    which.push_back(static_cast<NodeId>(n));
  }
  // External fds (the serve layer's client sockets) ride the same poll.
  const std::size_t link_count = pfds.size();
  std::vector<int> ext;
  for (const auto& [fd, cb] : watched_fds_) {
    pfds.push_back({fd, POLLIN, 0});
    ext.push_back(fd);
  }
  const int pr =
      ::poll(pfds.empty() ? nullptr : pfds.data(), pfds.size(), timeout_ms);
  if (pr < 0 && errno != EINTR) {
    EHJA_CHECK_MSG(false, "poll() failed");
  }
  for (std::size_t i = 0; i < link_count; ++i) {
    const std::unique_ptr<Conn>& slot = conns_[which[i]];
    if (!slot) continue;  // closed while handling an earlier link's frames
    Conn& c = *slot;
    if (pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) read_available(c);
    handle_frames(c);
    flush_out(c);
    if (c.eof || c.broken) on_connection_lost(c);
  }
  for (std::size_t i = 0; i < ext.size(); ++i) {
    if ((pfds[link_count + i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
      continue;
    }
    // The callback may watch_fd/unwatch_fd (accepting a client does both);
    // re-check membership so we never invoke a stale entry.
    const auto it = watched_fds_.find(ext[i]);
    if (it != watched_fds_.end()) it->second();
  }
}

void SocketLoop::run() {
  EHJA_CHECK_MSG(!running_, "run() called twice");
  running_ = true;
  epoch_ = Clock::now();
  for (auto& [delay, fn] : pre_run_timers_) enqueue_timer(delay, std::move(fn));
  pre_run_timers_.clear();

  while (!stop_) {
    // Start freshly hosted actors (index loop: an on_start may spawn more).
    // Pre-run spawns start here on the first turn.
    for (std::size_t i = 0; i < start_q_.size(); ++i) {
      const auto it = hosted_.find(start_q_[i]);
      if (it != hosted_.end()) it->second->on_start();
    }
    start_q_.clear();
    drain_local();
    fire_due_timers();
    after_timers();
    if (stop_) break;
    int timeout = 0;
    if (local_q_.empty()) {
      timeout = kIdlePollMs;
      if (!timer_heap_.empty()) {
        const double dt = timer_heap_.front().due - now_sec();
        const int ms = static_cast<int>(std::ceil(std::max(0.0, dt) * 1000.0));
        timeout = std::clamp(ms, 0, kIdlePollMs);
      }
    }
    pump(timeout);
  }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

SocketRuntime::SocketRuntime(ClusterSpec spec, const EhjaConfig& config)
    : SocketLoop(0, kCoordinatorBatch), config_(config) {
  ::signal(SIGPIPE, SIG_IGN);
  EHJA_CHECK_MSG(spec.node_count() >= 1,
                 "socket runtime needs at least one node");
  set_cluster(std::move(spec));

  std::uint16_t port = 0;
  listen_fd_ = make_listener(port);
  for (std::size_t n = 1; n < spec_.node_count(); ++n) {
    launcher_.spawn_worker(static_cast<NodeId>(n), port);
  }
  handshake();
}

SocketRuntime::~SocketRuntime() {
  shutdown_cluster();
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void SocketRuntime::handshake() {
  const std::size_t total = spec_.node_count();
  const std::size_t workers = total - 1;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kHandshakeTimeoutSec));
  auto check_progress = [&] {
    const auto exits = launcher_.reap();
    EHJA_CHECK_MSG(exits.empty(), "worker process died during handshake");
    EHJA_CHECK_MSG(Clock::now() < deadline, "cluster handshake timed out");
  };

  // Phase 1: collect one HELLO per worker (arrival order is arbitrary).
  std::vector<std::uint32_t> mesh_port(total, 0);
  std::vector<std::unique_ptr<Conn>> unnamed;
  std::size_t identified = 0;
  while (identified < workers) {
    check_progress();
    std::vector<pollfd> pfds;
    pfds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& c : unnamed) pfds.push_back({c->fd, POLLIN, 0});
    ::poll(pfds.data(), pfds.size(), 100);
    for (;;) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) break;
      unnamed.push_back(adopt_fd(fd));
    }
    for (auto& c : unnamed) {
      if (!c) continue;
      read_available(*c);
      EHJA_CHECK_MSG(!c->eof && !c->broken, "worker hung up during handshake");
      wire::Frame f;
      if (!next_frame(*c, f)) continue;
      EHJA_CHECK_MSG(f.kind == wire::FrameKind::kHello,
                     "expected HELLO from worker");
      const wire::HelloFrame h = parse_hello(f, "HELLO");
      EHJA_CHECK_MSG(h.node >= 1 && static_cast<std::size_t>(h.node) < total,
                     "HELLO from unknown node");
      EHJA_CHECK_MSG(conns_[h.node] == nullptr, "duplicate HELLO for node");
      EHJA_CHECK_MSG(h.incarnation == kFirstIncarnation,
                     "HELLO carries unexpected incarnation epoch");
      c->peer = h.node;
      mesh_port[h.node] = h.port;
      conns_[h.node] = std::move(c);
      ++identified;
    }
    unnamed.erase(std::remove(unnamed.begin(), unnamed.end(), nullptr),
                  unnamed.end());
  }

  // Phase 2: WELCOME (the run config) + PEERS (the mesh table) to everyone.
  const std::vector<std::uint8_t> config_body = wire::encode_body(config_);
  for (std::size_t n = 1; n < total; ++n) {
    std::vector<wire::PeerEntry> peers;
    for (std::size_t m = 1; m < total; ++m) {
      if (m != n) peers.push_back({static_cast<NodeId>(m), mesh_port[m]});
    }
    queue_frame(*conns_[n], wire::FrameKind::kWelcome, config_body);
    queue_frame(*conns_[n], wire::FrameKind::kPeers, wire::encode_body(peers));
  }

  // Phase 3: wait for every worker's READY (mesh established).
  std::size_t ready = 0;
  while (ready < workers) {
    check_progress();
    std::vector<pollfd> pfds;
    for (std::size_t n = 1; n < total; ++n) {
      Conn& c = *conns_[n];
      short ev = POLLIN;
      if (c.wants_write()) ev |= POLLOUT;
      pfds.push_back({c.fd, ev, 0});
    }
    ::poll(pfds.data(), pfds.size(), 100);
    for (std::size_t n = 1; n < total; ++n) {
      Conn& c = *conns_[n];
      flush_out(c);
      read_available(c);
      EHJA_CHECK_MSG(!c.eof && !c.broken, "worker hung up during handshake");
      wire::Frame f;
      while (next_frame(c, f)) {
        EHJA_CHECK_MSG(f.kind == wire::FrameKind::kReady,
                       "expected READY from worker");
        EHJA_CHECK_MSG(f.body.empty(), "corrupt READY");
        ++ready;
      }
    }
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
  EHJA_DEBUG("socket", "cluster up: ", workers, " worker processes");
}

ActorId SocketRuntime::spawn(NodeId node, std::unique_ptr<Actor> actor) {
  EHJA_CHECK_MSG(node >= 0 && static_cast<std::size_t>(node) < spec_.node_count(),
                 "spawn: node out of range");
  EHJA_CHECK_MSG(node_alive(node), "spawn on a dead node");
  const ActorId id = next_id_++;
  if (node == 0) {
    host(id, std::move(actor));
  } else {
    // The live instance runs in the worker, rebuilt from this recipe.
    const std::optional<RemoteSpawnSpec> spec = actor->remote_spawn_spec();
    EHJA_CHECK_MSG(spec.has_value(),
                   "actor kind cannot be re-instantiated in a worker process");
    route_[id] = node;
    const wire::SpawnFrame frame{id, spec->kind, spec->source_index,
                                 spec->scheduler,
                                 ship_config(node, spec->config)};
    queue_frame(*conns_[node], wire::FrameKind::kSpawn,
                wire::encode_body(frame));
  }
  broadcast(wire::FrameKind::kAnnounce,
            wire::encode_body(wire::AnnounceFrame{id, node}), node);
  return id;
}

std::uint32_t SocketRuntime::ship_config(
    NodeId node, const std::shared_ptr<const EhjaConfig>& config) {
  // Id 0 is the handshake config every worker already holds.  Classic runs
  // always land here: the driver builds all actors from the one config it
  // passed to the runtime constructor.
  if (config == nullptr || config.get() == &config_) return 0;
  std::uint32_t id;
  const auto it = config_ids_.find(config.get());
  if (it != config_ids_.end()) {
    id = it->second;
  } else {
    id = next_config_id_++;
    config_ids_.emplace(config.get(), id);
    ShippedConfig shipped;
    shipped.config = config;
    shipped.body = wire::encode_body(wire::QueryConfigFrame{id, *config});
    shipped_configs_.emplace(id, std::move(shipped));
  }
  ShippedConfig& shipped = shipped_configs_.at(id);
  if (shipped.holders.insert(node).second && conns_[node]) {
    queue_frame(*conns_[node], wire::FrameKind::kQueryConfig, shipped.body);
  }
  return id;
}

void SocketRuntime::retire_actor(ActorId id) {
  if (route_.count(id) == 0) return;  // unknown, or retired already
  forget(id);
  // Everyone (owner included) forgets the actor; stragglers in flight are
  // dropped at whichever hop sees the tombstone first.
  broadcast(wire::FrameKind::kRetire, wire::encode_body(id));
}

void SocketRuntime::watch_fd(int fd, std::function<void()> on_event) {
  EHJA_CHECK(fd >= 0 && on_event != nullptr);
  watched_fds_[fd] = std::move(on_event);
}

void SocketRuntime::unwatch_fd(int fd) { watched_fds_.erase(fd); }

void SocketRuntime::broadcast(wire::FrameKind kind,
                              const std::vector<std::uint8_t>& body,
                              NodeId except) {
  for (std::size_t n = 1; n < conns_.size(); ++n) {
    const NodeId node = static_cast<NodeId>(n);
    if (node == except || !node_alive(node) || !conns_[n]) continue;
    queue_frame(*conns_[n], kind, body);
  }
}

void SocketRuntime::kill_node(NodeId node) {
  EHJA_CHECK_MSG(node != 0, "cannot kill the coordinator node");
  if (!node_alive(node)) return;
  launcher_.kill_worker(node);  // death surfaces through reap()
}

void SocketRuntime::schedule_kill(NodeId node, double at) {
  EHJA_CHECK_MSG(node != 0, "cannot kill the coordinator node");
  enqueue_timer(at, [this, node] {
    if (node_alive(node)) launcher_.kill_worker(node);
  });
}

void SocketRuntime::after_timers() {
  // The serving coordinator's admission/finalization work runs here, on
  // the runtime thread, between actor deliveries.
  if (idle_hook_) idle_hook_();
}

void SocketRuntime::before_poll() {
  // Surface worker deaths first so a dead node's socket is already closed
  // when we poll.
  for (const Launcher::Exit& e : launcher_.reap()) {
    if (stopping_) continue;
    if (e.sigkilled) {
      ++kills_executed_;
      EHJA_INFO("socket", "node ", e.node, " fail-stopped (SIGKILL)");
    } else {
      EHJA_CHECK_MSG(false, ("worker for node " + std::to_string(e.node) +
                             " exited unexpectedly (status " +
                             std::to_string(e.status) + ")")
                                .c_str());
    }
    if (mark_dead(e.node)) {
      broadcast(wire::FrameKind::kNodeDead, wire::encode_body(e.node));
    }
  }
}

void SocketRuntime::on_control_frame(const wire::Frame& /*f*/) {
  EHJA_CHECK_MSG(false, "unexpected control frame from worker");
}

void SocketRuntime::on_unrouted_send(ActorId /*to*/, Message /*msg*/) {
  EHJA_CHECK_MSG(false, "send to unknown actor");
}

void SocketRuntime::on_unhosted_receive(NodeId /*from*/, ActorId to,
                                        Message /*msg*/) {
  EHJA_CHECK_MSG(route_.count(to) != 0, "worker sent to unknown actor");
  EHJA_CHECK_MSG(false, "worker misrouted a message");
}

void SocketRuntime::run() {
  SocketLoop::run();
  shutdown_cluster();
}

void SocketRuntime::shutdown_cluster() {
  if (shutdown_done_) return;
  shutdown_done_ = true;
  stopping_ = true;
  broadcast(wire::FrameKind::kShutdown, {});
  // Push the SHUTDOWN frames (and any tail of queued traffic) out, bounded.
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  for (;;) {
    bool pending = false;
    for (auto& c : conns_) {
      if (!c || !c->usable()) continue;
      flush_out(*c);
      if (c->wants_write()) pending = true;
    }
    if (!pending || Clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  launcher_.shutdown_all(10.0);
  for (auto& c : conns_) c.reset();
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// The Runtime a worker process offers its locally hosted actors.  It never
/// originates spawns (all placement decisions happen on the coordinator);
/// it instantiates actors when SPAWN frames arrive, learns id->node routes
/// from ANNOUNCE frames, and fail-stops its whole process on kill_node.
class SocketWorkerRuntime final : public SocketLoop {
 public:
  SocketWorkerRuntime(NodeId node, std::uint16_t coordinator_port)
      : SocketLoop(node, kWorkerBatch), coordinator_port_(coordinator_port) {}

  int run_worker();

  ActorId spawn(NodeId /*node*/, std::unique_ptr<Actor> /*actor*/) override {
    EHJA_CHECK_MSG(false, "worker processes do not originate spawns");
    return kInvalidActor;
  }

  void kill_node(NodeId node) override {
    // Fail-stop for real: the FaultPlan's chunk-triggered self-kill takes
    // down the whole OS process, mid-handler, no goodbye.  The coordinator
    // observes the SIGKILL via waitpid and folds it into the fault model.
    EHJA_CHECK_MSG(node == self_, "a worker can only kill its own node");
    ::raise(SIGKILL);
  }

  void schedule_kill(NodeId /*node*/, double /*at*/) override {
    EHJA_CHECK_MSG(false, "schedule_kill is coordinator-side");
  }

 private:
  void on_control_frame(const wire::Frame& f) override;

  void on_unrouted_send(ActorId to, Message msg) override {
    // Route not announced yet (the cross-connection spawn race); park the
    // message until the ANNOUNCE arrives.
    pending_out_[to].push_back(std::move(msg));
  }

  void on_unhosted_receive(NodeId from, ActorId to, Message msg) override {
    // SPAWN not processed yet (frame races across connections).
    const auto rit = route_.find(to);
    EHJA_CHECK_MSG(rit == route_.end() || rit->second == self_,
                   "peer misrouted a message");
    pending_in_[to].push_back(Inbound{to, from, std::move(msg)});
  }

  void on_connection_lost(const Conn& conn) override {
    if (conn.peer == 0 && !stop_) {
      coord_lost_ = true;  // coordinator vanished without SHUTDOWN
      stop_ = true;
    }
  }

  void handshake();
  void handle_spawn(const wire::Frame& f);
  void handle_announce(const wire::Frame& f);

  const std::uint16_t coordinator_port_;

  std::shared_ptr<const EhjaConfig> config_;
  /// Per-query configs shipped by kQueryConfig (serve fleet); id 0 is the
  /// handshake config_.
  std::map<std::uint32_t, std::shared_ptr<const EhjaConfig>> query_configs_;
  /// Messages that arrived for a local actor whose SPAWN frame has not been
  /// processed yet (possible: a peer learned the id from its ANNOUNCE and
  /// raced us).  Replayed, in arrival order, at spawn.
  std::map<ActorId, std::vector<Inbound>> pending_in_;
  /// Messages a local actor sent to an id with no ANNOUNCEd route yet.
  /// Replayed, in send order, when the route arrives.
  std::map<ActorId, std::vector<Message>> pending_out_;
  bool coord_lost_ = false;
};

void SocketWorkerRuntime::handle_spawn(const wire::Frame& f) {
  wire::SpawnFrame s;
  EHJA_CHECK_MSG(wire::decode_body(f.body, s), "corrupt SPAWN");
  EHJA_CHECK_MSG(hosted_.count(s.id) == 0, "SPAWN for an existing actor");

  std::shared_ptr<const EhjaConfig> cfg = config_;
  if (s.config_id != 0) {
    // Per-pair FIFO guarantees the kQueryConfig frame landed first.
    const auto it = query_configs_.find(s.config_id);
    EHJA_CHECK_MSG(it != query_configs_.end(),
                   "SPAWN names an unshipped query config");
    cfg = it->second;
  }
  if (s.kind == RemoteSpawnSpec::Kind::kJoinProcess) {
    host(s.id, std::make_unique<JoinProcessActor>(cfg, s.scheduler));
  } else {
    host(s.id,
         std::make_unique<DataSourceActor>(cfg, s.source_index, s.scheduler));
  }

  const auto in_it = pending_in_.find(s.id);
  if (in_it != pending_in_.end()) {
    for (Inbound& in : in_it->second) local_q_.push_back(std::move(in));
    pending_in_.erase(in_it);
  }
  const auto out_it = pending_out_.find(s.id);
  if (out_it != pending_out_.end()) {
    for (Message& m : out_it->second) {
      local_q_.push_back(Inbound{s.id, self_, std::move(m)});
    }
    pending_out_.erase(out_it);
  }
}

void SocketWorkerRuntime::handle_announce(const wire::Frame& f) {
  wire::AnnounceFrame a;
  EHJA_CHECK_MSG(wire::decode_body(f.body, a), "corrupt ANNOUNCE");
  EHJA_CHECK_MSG(a.owner != self_, "ANNOUNCE for own node without SPAWN");
  route_[a.id] = a.owner;
  const auto it = pending_out_.find(a.id);
  if (it != pending_out_.end()) {
    for (Message& m : it->second) route_to(a.owner, a.id, self_, std::move(m));
    pending_out_.erase(it);
  }
}

void SocketWorkerRuntime::on_control_frame(const wire::Frame& f) {
  switch (f.kind) {
    case wire::FrameKind::kSpawn:
      handle_spawn(f);
      break;
    case wire::FrameKind::kAnnounce:
      handle_announce(f);
      break;
    case wire::FrameKind::kQueryConfig: {
      wire::QueryConfigFrame q;
      EHJA_CHECK_MSG(wire::decode_body(f.body, q), "corrupt QUERY_CONFIG");
      EHJA_CHECK_MSG(q.id != 0,
                     "query config id 0 is reserved for the handshake");
      query_configs_[q.id] =
          std::make_shared<const EhjaConfig>(std::move(q.config));
      break;
    }
    case wire::FrameKind::kRetire: {
      ActorId id = kInvalidActor;
      EHJA_CHECK_MSG(wire::decode_body(f.body, id), "corrupt RETIRE");
      forget(id);
      pending_in_.erase(id);
      pending_out_.erase(id);
      break;
    }
    case wire::FrameKind::kNodeDead: {
      // Node 0 would be this very link: the coordinator never declares
      // itself dead.
      NodeId dead = -1;
      EHJA_CHECK_MSG(wire::decode_body(f.body, dead) && dead != 0,
                     "corrupt NODE_DEAD");
      mark_dead(dead);
      break;
    }
    case wire::FrameKind::kShutdown:
      stop_ = true;
      break;
    default:
      EHJA_CHECK_MSG(false, "unexpected frame kind on worker");
  }
}

void SocketWorkerRuntime::handshake() {
  // Step 1: dial the coordinator, stand up the mesh listener, introduce
  // ourselves.
  std::unique_ptr<Conn> coord = adopt_fd(connect_loopback(coordinator_port_));
  coord->peer = 0;
  std::uint16_t my_port = 0;
  const int listen_fd = make_listener(my_port);
  const wire::HelloFrame hello{self_, my_port, kFirstIncarnation};
  queue_frame(*coord, wire::FrameKind::kHello, wire::encode_body(hello));
  must_flush(*coord, kHandshakeTimeoutSec, "HELLO");

  // Step 2: WELCOME carries the run config; rebuild the cluster view.
  wire::Frame f = must_recv_frame(*coord, kHandshakeTimeoutSec, "WELCOME");
  EHJA_CHECK_MSG(f.kind == wire::FrameKind::kWelcome, "expected WELCOME");
  EhjaConfig cfg;
  EHJA_CHECK_MSG(wire::decode_body(f.body, cfg), "corrupt WELCOME config");
  config_ = std::make_shared<const EhjaConfig>(std::move(cfg));
  set_cluster(make_cluster(*config_));
  const std::size_t total = spec_.node_count();
  EHJA_CHECK_MSG(self_ >= 1 && static_cast<std::size_t>(self_) < total,
                 "worker node id outside the configured cluster");
  conns_[0] = std::move(coord);
  Conn& coordinator = *conns_[0];

  // Step 3: PEERS, then build the mesh -- dial lower-numbered workers,
  // accept the higher-numbered ones.
  f = must_recv_frame(coordinator, kHandshakeTimeoutSec, "PEERS");
  EHJA_CHECK_MSG(f.kind == wire::FrameKind::kPeers, "expected PEERS");
  std::vector<wire::PeerEntry> peers;
  EHJA_CHECK_MSG(wire::decode_body(f.body, peers) && peers.size() == total - 2,
                 "corrupt PEERS");
  std::size_t expect_accepts = 0;
  for (const wire::PeerEntry& p : peers) {
    EHJA_CHECK_MSG(p.node >= 1 && p.node != self_ &&
                       static_cast<std::size_t>(p.node) < total &&
                       p.port <= 0xffff,
                   "corrupt PEERS entry");
    if (p.node > self_) {
      ++expect_accepts;
      continue;
    }
    auto c = adopt_fd(connect_loopback(static_cast<std::uint16_t>(p.port)));
    c->peer = p.node;
    const wire::HelloFrame hello{self_, 0, kFirstIncarnation};
    queue_frame(*c, wire::FrameKind::kPeerHello, wire::encode_body(hello));
    must_flush(*c, kHandshakeTimeoutSec, "PEER_HELLO");
    conns_[p.node] = std::move(c);
  }
  std::size_t accepted = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kHandshakeTimeoutSec));
  while (accepted < expect_accepts) {
    EHJA_CHECK_MSG(Clock::now() < deadline, "mesh handshake timed out");
    pollfd p{listen_fd, POLLIN, 0};
    if (::poll(&p, 1, 100) <= 0) continue;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) continue;
    auto c = adopt_fd(fd);
    const wire::Frame hello =
        must_recv_frame(*c, kHandshakeTimeoutSec, "PEER_HELLO");
    EHJA_CHECK_MSG(hello.kind == wire::FrameKind::kPeerHello,
                   "expected PEER_HELLO");
    const wire::HelloFrame h = parse_hello(hello, "PEER_HELLO");
    EHJA_CHECK_MSG(h.node > self_ && static_cast<std::size_t>(h.node) < total,
                   "PEER_HELLO from unexpected node");
    EHJA_CHECK_MSG(conns_[h.node] == nullptr, "duplicate peer connection");
    EHJA_CHECK_MSG(h.incarnation == kFirstIncarnation,
                   "PEER_HELLO carries unexpected incarnation epoch");
    c->peer = h.node;
    conns_[h.node] = std::move(c);
    ++accepted;
  }
  ::close(listen_fd);

  // Step 4: READY -- the coordinator may start placing actors.
  queue_frame(coordinator, wire::FrameKind::kReady, {});
  must_flush(coordinator, kHandshakeTimeoutSec, "READY");
}

int SocketWorkerRuntime::run_worker() {
  ::signal(SIGPIPE, SIG_IGN);
  handshake();
  run();
  if (coord_lost_) {
    EHJA_WARN("socket", "worker ", self_,
              ": coordinator vanished without SHUTDOWN");
    return 1;
  }
  // Push any tail of queued output (last reports) before exiting.
  Conn& coordinator = *conns_[0];
  const auto flush_deadline = Clock::now() + std::chrono::seconds(2);
  while (coordinator.wants_write() && Clock::now() < flush_deadline) {
    flush_out(coordinator);
    if (!coordinator.wants_write()) break;
    pollfd p{coordinator.fd, POLLOUT, 0};
    ::poll(&p, 1, 50);
  }
  return 0;
}

std::optional<int> maybe_run_socket_worker(int argc, char** argv) {
  long node = -1;
  long port = -1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--ehja-worker=", 14) == 0) {
      node = std::atol(a + 14);
    } else if (std::strncmp(a, "--ehja-coordinator-port=", 24) == 0) {
      port = std::atol(a + 24);
    }
  }
  if (node < 0) return std::nullopt;
  EHJA_CHECK_MSG(port > 0 && port <= 0xffff,
                 "worker mode requires --ehja-coordinator-port");
  SocketWorkerRuntime rt(static_cast<NodeId>(node),
                         static_cast<std::uint16_t>(port));
  return rt.run_worker();
}

}  // namespace ehja
