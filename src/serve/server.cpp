#include "serve/server.hpp"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "util/assert.hpp"

namespace ehja::serve {

namespace {

constexpr std::size_t kFinishedCap = 65536;

/// A client's config describes *what to join*, not *where*: placement is
/// the admission controller's call, faults and tracing are server-side
/// concerns, and a standby scheduler per query would put a second
/// coordinator on the serving node.  Strip everything operational.
void sanitize(EhjaConfig& config) {
  config.trace = nullptr;
  config.faults.kills.clear();
  config.ft.force_enabled = false;
  config.ft.standby_scheduler = false;
}

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

EhjaConfig JoinService::fleet_config(const ServeOptions& opts) {
  // The fleet trick: a SocketRuntime's process layout is derived from an
  // EhjaConfig's node numbering, so a minimal config whose total_nodes() is
  // 1 + fleet_workers gives us node 0 (this process) plus one warm worker
  // per fleet node.  No query actors are ever placed by *this* config; it
  // exists to shape the cluster and ride the handshake.
  EhjaConfig fleet;
  fleet.data_sources = 1;
  fleet.initial_join_nodes = 1;
  fleet.join_pool_nodes = opts.fleet_workers - 1;
  fleet.node_hash_memory_bytes = opts.worker_memory_bytes;
  fleet.trace = nullptr;
  return fleet;
}

JoinService::JoinService(ServeOptions opts)
    : opts_(std::move(opts)),
      fleet_config_(fleet_config(opts_)),
      admission_(
          [&] {
            std::vector<NodeId> nodes;
            for (std::uint32_t n = 1; n <= opts_.fleet_workers; ++n) {
              nodes.push_back(static_cast<NodeId>(n));
            }
            return nodes;
          }(),
          opts_.worker_memory_bytes, opts_.max_queue) {
  EHJA_CHECK_MSG(opts_.fleet_workers >= 2,
                 "the serve fleet needs at least two workers");
  EHJA_CHECK_MSG(!opts_.tenants.empty(), "the serve layer needs tenants");
  for (const TenantSpec& t : opts_.tenants) admission_.add_tenant(t);

  rt_ = std::make_unique<SocketRuntime>(make_cluster(fleet_config_),
                                        fleet_config_);
  listen_fd_ = netio::make_listener(port_, opts_.requested_port);
  rt_->watch_fd(listen_fd_, [this] { on_listener_event(); });
  rt_->set_idle_hook([this] { service_tick(); });
}

JoinService::~JoinService() {
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void JoinService::run() {
  rt_->run();
  // The runtime loop is done (drain complete or deadline).  Close the front
  // door before the fleet teardown in ~SocketRuntime.
  rt_->unwatch_fd(listen_fd_);
  for (auto& [id, client] : clients_) {
    if (client.conn) rt_->unwatch_fd(client.conn->fd);
  }
  clients_.clear();
  fd_to_client_.clear();
}

// --- client connection plumbing -------------------------------------------

void JoinService::on_listener_event() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failure; the listener stays up
    }
    netio::set_nonblocking(fd);
    netio::set_nodelay(fd);
    const std::uint64_t client_id = next_client_id_++;
    ClientConn client;
    client.conn = netio::adopt_fd(fd);
    clients_.emplace(client_id, std::move(client));
    fd_to_client_[fd] = client_id;
    rt_->watch_fd(fd, [this, client_id] { on_client_event(client_id); });
  }
}

void JoinService::drop_client(std::uint64_t client_id) {
  const auto it = clients_.find(client_id);
  if (it == clients_.end()) return;
  if (it->second.conn) {
    rt_->unwatch_fd(it->second.conn->fd);
    fd_to_client_.erase(it->second.conn->fd);
  }
  clients_.erase(it);  // ~Conn closes the fd
}

void JoinService::on_client_event(std::uint64_t client_id) {
  const auto it = clients_.find(client_id);
  if (it == clients_.end()) return;
  ClientConn& client = it->second;
  netio::read_available(*client.conn);
  wire::Frame f;
  std::string error;
  while (client.conn->usable() && !client.drop) {
    const netio::FrameResult res =
        netio::try_next_frame(*client.conn, f, &error);
    if (res == netio::FrameResult::kNone) break;
    if (res == netio::FrameResult::kError) {
      // Unknown kind, newer wire version, bad CRC, oversized body: tell the
      // client why (best effort) and cut the connection.  The stream cannot
      // be resynchronized after a framing error.
      client.broken_reply = true;
      break;
    }
    dispatch(client_id, f);
    if (clients_.count(client_id) == 0) return;  // dispatch dropped us
  }
  if (client.broken_reply) {
    client.conn->broken = false;  // allow one farewell frame
    send_reject(client_id, 0, RejectCode::kBadFrame, 0, error);
    ++queries_rejected_;
    client.drop = true;
  }
  netio::flush_out(*client.conn);
  if (client.conn->eof || client.conn->broken ||
      (client.drop && !client.conn->wants_write())) {
    drop_client(client_id);
  }
}

template <typename Payload>
void JoinService::send_payload(std::uint64_t client_id, wire::FrameKind kind,
                               const Payload& payload) {
  const auto it = clients_.find(client_id);
  if (it == clients_.end() || !it->second.conn->usable()) return;
  netio::queue_frame(*it->second.conn, kind, wire::encode_body(payload));
  netio::flush_out(*it->second.conn);
}

void JoinService::send_reject(std::uint64_t client_id, std::uint64_t client_seq,
                              RejectCode reason, std::uint32_t retry_after_ms,
                              std::string message) {
  QueryRejectedPayload rej;
  rej.client_seq = client_seq;
  rej.reason = reason;
  rej.retry_after_ms = retry_after_ms;
  rej.message = std::move(message);
  send_payload(client_id, wire::FrameKind::kQueryRejected, rej);
}

// --- protocol dispatch ----------------------------------------------------

void JoinService::dispatch(std::uint64_t client_id, const wire::Frame& f) {
  ClientConn& client = clients_.at(client_id);
  switch (f.kind) {
    case wire::FrameKind::kClientHello: {
      ClientHelloPayload hello;
      if (!wire::decode_body(f.body, hello)) {
        send_reject(client_id, 0, RejectCode::kBadFrame, 0, "corrupt hello");
        client.drop = true;
        return;
      }
      ServerHelloPayload reply;
      reply.ok = admission_.has_tenant(hello.tenant);
      reply.draining = draining_;
      if (reply.ok) {
        client.tenant = hello.tenant;
        client.hello_done = true;
      } else {
        reply.message = "unknown tenant '" + hello.tenant + "'";
      }
      send_payload(client_id, wire::FrameKind::kServerHello, reply);
      return;
    }
    case wire::FrameKind::kSubmitQuery:
      handle_submit(client_id, f);
      return;
    case wire::FrameKind::kQueryStatusReq:
      handle_status(client_id, f);
      return;
    case wire::FrameKind::kCancelQuery:
      handle_cancel(client_id, f);
      return;
    default:
      // A kind this build knows but never expects from a client (fleet
      // frames, server->client kinds).  Reject, keep the connection: the
      // stream itself is still well-framed.
      send_reject(client_id, 0, RejectCode::kBadFrame, 0,
                  "unexpected frame kind from client");
      ++queries_rejected_;
      return;
  }
}

void JoinService::handle_submit(std::uint64_t client_id, const wire::Frame& f) {
  ClientConn& client = clients_.at(client_id);
  SubmitQueryPayload submit;
  if (!wire::decode_body(f.body, submit)) {
    ++queries_rejected_;
    send_reject(client_id, 0, RejectCode::kBadFrame, 0, "corrupt submit");
    return;
  }
  if (!client.hello_done) {
    ++queries_rejected_;
    send_reject(client_id, submit.client_seq, RejectCode::kNoHello, 0,
                "submit before hello");
    return;
  }
  if (draining_) {
    ++queries_rejected_;
    send_reject(client_id, submit.client_seq, RejectCode::kDraining, 0,
                "server is draining");
    return;
  }
  sanitize(submit.config);
  if (const auto err = submit.config.validate_or_error()) {
    ++queries_rejected_;
    send_reject(client_id, submit.client_seq, RejectCode::kBadConfig, 0, *err);
    return;
  }

  QueryDemand demand;
  demand.sources = submit.config.data_sources;
  demand.join_nodes = submit.config.initial_join_nodes;
  demand.join_memory_bytes = submit.config.node_hash_memory_bytes;

  const QueryId id = next_query_id_++;
  const SubmitOutcome outcome = admission_.submit(id, client.tenant, demand);
  if (!outcome.accepted) {
    ++queries_rejected_;
    send_reject(client_id, submit.client_seq, reject_code(outcome.reason),
                outcome.retry_after_ms, outcome.message);
    return;
  }

  QueuedQuery q;
  q.client_id = client_id;
  q.client_seq = submit.client_seq;
  q.config = std::make_shared<const EhjaConfig>(std::move(submit.config));
  q.submitted = Clock::now();
  queued_.emplace(id, std::move(q));

  QueryAcceptedPayload acc;
  acc.client_seq = submit.client_seq;
  acc.query_id = id;
  acc.queue_position = outcome.queue_position;
  send_payload(client_id, wire::FrameKind::kQueryAccepted, acc);

  // Admit immediately if the fleet has room -- no reason to wait for the
  // next idle tick.
  pump_admission();
}

QueryState JoinService::state_of(QueryId id,
                                 std::uint32_t& queue_position) const {
  queue_position = 0;
  if (queued_.count(id) != 0) {
    if (const auto pos = admission_.queue_position(id)) queue_position = *pos;
    return QueryState::kQueued;
  }
  if (running_.count(id) != 0) return QueryState::kRunning;
  const auto fit = finished_.find(id);
  if (fit != finished_.end()) return fit->second;
  return QueryState::kUnknown;
}

void JoinService::handle_status(std::uint64_t client_id, const wire::Frame& f) {
  QueryStatusReqPayload req;
  if (!wire::decode_body(f.body, req)) {
    send_reject(client_id, 0, RejectCode::kBadFrame, 0, "corrupt status");
    return;
  }
  QueryStatusPayload reply;
  reply.query_id = req.query_id;
  reply.state = state_of(req.query_id, reply.queue_position);
  send_payload(client_id, wire::FrameKind::kQueryStatus, reply);
}

void JoinService::handle_cancel(std::uint64_t client_id, const wire::Frame& f) {
  CancelQueryPayload req;
  if (!wire::decode_body(f.body, req)) {
    send_reject(client_id, 0, RejectCode::kBadFrame, 0, "corrupt cancel");
    return;
  }
  QueryStatusPayload reply;
  reply.query_id = req.query_id;
  if (queued_.count(req.query_id) != 0 &&
      admission_.cancel_queued(req.query_id)) {
    queued_.erase(req.query_id);
    record_finished(req.query_id, QueryState::kCancelled);
    reply.state = QueryState::kCancelled;
  } else {
    // Running queries drain (cancelling mid-protocol would orphan worker
    // state); done/unknown report as such.
    reply.state = state_of(req.query_id, reply.queue_position);
  }
  send_payload(client_id, wire::FrameKind::kQueryStatus, reply);
}

// --- query lifecycle ------------------------------------------------------

void JoinService::pump_admission() {
  while (auto adm = admission_.take_ready()) start_query(std::move(*adm));
}

void JoinService::start_query(Admitted adm) {
  const auto qit = queued_.find(adm.id);
  EHJA_CHECK_MSG(qit != queued_.end(), "admitted query not in queued set");
  ActiveQuery active;
  active.client_id = qit->second.client_id;
  active.tenant = adm.tenant;
  active.config = qit->second.config;
  active.submitted = qit->second.submitted;
  active.started = Clock::now();
  queued_.erase(qit);

  const QueryId id = adm.id;
  active.run = std::make_unique<QueryRun>(*rt_, active.config);
  active.run->set_on_done([this, id] { completed_.push_back(id); });
  active.run->set_pool_hooks(PoolHooks{
      [this, id]() -> std::optional<NodeId> {
        return admission_.grant_expansion(id);
      },
      [this, id](NodeId node) { admission_.release_expansion(id, node); }});

  QueryPlacement placement;
  placement.scheduler_node = 0;  // every query's scheduler lives here
  placement.source_nodes = adm.placement.source_nodes;
  placement.join_nodes = adm.placement.join_nodes;
  // pool_nodes stays empty: expansion goes through the admission hooks.

  ActiveQuery& slot =
      running_.emplace(id, std::move(active)).first->second;
  slot.run->start(placement);
}

void JoinService::finalize_query(QueryId id) {
  const auto it = running_.find(id);
  EHJA_CHECK_MSG(it != running_.end(), "finalize for a query not running");
  ActiveQuery& q = it->second;
  const RunMetrics metrics = q.run->collect_metrics();

  QueryResultPayload result;
  result.query_id = id;
  result.matches = metrics.join.matches;
  result.checksum = metrics.join.checksum;
  result.build_tuples = metrics.build_tuples_total;
  result.probe_tuples = metrics.probe_tuples_total;
  result.expansions = metrics.expansions;
  result.queue_sec = seconds_between(q.submitted, q.started);
  result.run_sec = seconds_between(q.started, Clock::now());
  send_payload(q.client_id, wire::FrameKind::kQueryResult, result);

  // Forget the query's actors fleet-wide; without this a long-lived server
  // leaks every scheduler, source and join process it ever ran.
  for (const ActorId actor : q.run->spawned_actors()) {
    rt_->retire_actor(actor);
  }
  admission_.on_complete(id);
  record_finished(id, QueryState::kDone);
  running_.erase(it);
  ++queries_completed_;
}

void JoinService::record_finished(QueryId id, QueryState state) {
  if (finished_.emplace(id, state).second) {
    finished_order_.push_back(id);
    while (finished_order_.size() > kFinishedCap) {
      finished_.erase(finished_order_.front());
      finished_order_.pop_front();
    }
  }
}

// --- the per-iteration service work ---------------------------------------

void JoinService::service_tick() {
  if (shutdown_flag_ != nullptr && shutdown_flag_->load() && !draining_) {
    begin_shutdown();
  }

  if (!completed_.empty()) {
    std::vector<QueryId> done;
    done.swap(completed_);
    for (const QueryId id : done) finalize_query(id);
  }

  if (!draining_) {
    pump_admission();
  } else if (running_.empty() || Clock::now() >= drain_deadline_) {
    rt_->request_stop();
  }

  // Flush laggard client buffers and reap dead connections.  Collect ids
  // first: drop_client mutates clients_.
  std::vector<std::uint64_t> dead;
  for (auto& [id, client] : clients_) {
    if (client.conn->wants_write()) netio::flush_out(*client.conn);
    if (client.conn->eof || client.conn->broken ||
        (client.drop && !client.conn->wants_write())) {
      dead.push_back(id);
    }
  }
  for (const std::uint64_t id : dead) drop_client(id);
}

void JoinService::begin_shutdown() {
  if (draining_) return;
  draining_ = true;
  drain_deadline_ =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts_.drain_deadline_sec));
  admission_.begin_drain();

  // Bounce the queued backlog -- it will never be admitted now.
  for (auto& [id, q] : queued_) {
    EHJA_CHECK(admission_.cancel_queued(id));
    send_reject(q.client_id, q.client_seq, RejectCode::kDraining, 0,
                "server is draining");
    record_finished(id, QueryState::kCancelled);
  }
  queued_.clear();

  ShutdownNoticePayload notice;
  notice.message = "server draining; in-flight queries will complete";
  for (auto& [id, client] : clients_) {
    (void)client;
    send_payload(id, wire::FrameKind::kShutdownNotice, notice);
  }
}

}  // namespace ehja::serve
