#include "serve/client.hpp"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "core/driver.hpp"

namespace ehja::serve {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
}  // namespace

ServeClient::~ServeClient() { close(); }

void ServeClient::close() { conn_.reset(); }

bool ServeClient::connected() const {
  return conn_ != nullptr && conn_->usable() && !conn_->eof;
}

bool ServeClient::connect(std::uint16_t port, const std::string& tenant,
                          std::string* error) {
  const int fd = netio::try_connect_loopback(port);
  if (fd < 0) {
    if (error != nullptr) *error = "connect to 127.0.0.1 failed";
    return false;
  }
  conn_ = netio::adopt_fd(fd);

  ClientHelloPayload hello;
  hello.tenant = tenant;
  if (!send_frame(wire::FrameKind::kClientHello, wire::encode_body(hello))) {
    if (error != nullptr) *error = "connection lost during hello";
    close();
    return false;
  }
  bool got_hello = false;
  const bool ok = pump_until(10.0, [&] {
    if (hello_.ok || !hello_.message.empty()) got_hello = true;
    return got_hello;
  });
  if (!ok || !hello_.ok) {
    if (error != nullptr) {
      *error = hello_.message.empty() ? "no hello reply" : hello_.message;
    }
    close();
    return false;
  }
  return true;
}

bool ServeClient::send_frame(wire::FrameKind kind,
                             const std::vector<std::uint8_t>& body) {
  if (!connected()) return false;
  netio::queue_frame(*conn_, kind, body);
  netio::flush_out(*conn_);
  return conn_->usable();
}

void ServeClient::handle(const wire::Frame& f) {
  switch (f.kind) {
    case wire::FrameKind::kServerHello: {
      ServerHelloPayload hello;
      if (wire::decode_body(f.body, hello)) {
        hello_ = hello;
        if (hello_.message.empty()) hello_.message = hello_.ok ? "" : "denied";
      }
      return;
    }
    case wire::FrameKind::kQueryAccepted: {
      QueryAcceptedPayload acc;
      if (!wire::decode_body(f.body, acc)) return;
      SubmitReply reply;
      reply.accepted = true;
      reply.query_id = acc.query_id;
      reply.queue_position = acc.queue_position;
      submit_replies_[acc.client_seq] = std::move(reply);
      return;
    }
    case wire::FrameKind::kQueryRejected: {
      QueryRejectedPayload rej;
      if (!wire::decode_body(f.body, rej)) return;
      SubmitReply reply;
      reply.accepted = false;
      reply.reason = rej.reason;
      reply.retry_after_ms = rej.retry_after_ms;
      reply.message = rej.message;
      submit_replies_[rej.client_seq] = std::move(reply);
      return;
    }
    case wire::FrameKind::kQueryResult: {
      QueryResultPayload result;
      if (wire::decode_body(f.body, result)) results_[result.query_id] = result;
      return;
    }
    case wire::FrameKind::kQueryStatus: {
      QueryStatusPayload status;
      if (wire::decode_body(f.body, status)) {
        statuses_[status.query_id] = status;
      }
      return;
    }
    case wire::FrameKind::kShutdownNotice:
      shutdown_noticed_ = true;
      return;
    default:
      return;  // not addressed to a client; ignore
  }
}

template <typename Stop>
bool ServeClient::pump_until(double timeout_sec, Stop stop) {
  if (conn_ == nullptr) return false;
  const Clock::time_point start = Clock::now();
  wire::Frame f;
  while (true) {
    if (stop()) return true;
    if (!conn_->usable() || conn_->eof) return false;
    // Drain whatever is already buffered before blocking.
    const netio::FrameResult res = netio::try_next_frame(*conn_, f);
    if (res == netio::FrameResult::kError) return false;
    if (res == netio::FrameResult::kFrame) {
      handle(f);
      continue;
    }
    const double left = timeout_sec - seconds_since(start);
    if (left <= 0) return false;
    pollfd pfd{conn_->fd, POLLIN, 0};
    if (conn_->wants_write()) pfd.events |= POLLOUT;
    const int timeout_ms =
        std::max(1, static_cast<int>(std::min(left * 1000.0, 100.0)));
    ::poll(&pfd, 1, timeout_ms);
    if (pfd.revents & POLLOUT) netio::flush_out(*conn_);
    if (pfd.revents & (POLLIN | POLLERR | POLLHUP)) {
      netio::read_available(*conn_);
    }
  }
}

std::optional<SubmitReply> ServeClient::submit(const EhjaConfig& config,
                                               double timeout_sec) {
  const std::uint64_t seq = next_seq_++;
  SubmitQueryPayload payload;
  payload.client_seq = seq;
  payload.config = config;
  if (!send_frame(wire::FrameKind::kSubmitQuery, wire::encode_body(payload))) {
    return std::nullopt;
  }
  const bool got = pump_until(
      timeout_sec, [&] { return submit_replies_.count(seq) != 0; });
  if (!got) return std::nullopt;
  SubmitReply reply = std::move(submit_replies_.at(seq));
  submit_replies_.erase(seq);
  return reply;
}

std::optional<SubmitReply> ServeClient::submit_with_retry(
    const EhjaConfig& config, int max_retries, double timeout_sec) {
  for (int attempt = 0; attempt <= max_retries; ++attempt) {
    auto reply = submit(config, timeout_sec);
    if (!reply.has_value()) return std::nullopt;
    if (reply->accepted || reply->reason != RejectCode::kQueueFull) {
      return reply;
    }
    const std::uint32_t wait_ms =
        reply->retry_after_ms > 0 ? reply->retry_after_ms : 50;
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
  }
  return std::nullopt;
}

std::optional<QueryResultPayload> ServeClient::wait_result(
    std::uint64_t query_id, double timeout_sec) {
  const bool got = pump_until(
      timeout_sec, [&] { return results_.count(query_id) != 0; });
  if (!got) return std::nullopt;
  QueryResultPayload result = results_.at(query_id);
  results_.erase(query_id);
  return result;
}

std::optional<QueryStatusPayload> ServeClient::status(std::uint64_t query_id,
                                                      double timeout_sec) {
  QueryStatusReqPayload req;
  req.query_id = query_id;
  statuses_.erase(query_id);
  if (!send_frame(wire::FrameKind::kQueryStatusReq, wire::encode_body(req))) {
    return std::nullopt;
  }
  const bool got = pump_until(
      timeout_sec, [&] { return statuses_.count(query_id) != 0; });
  if (!got) return std::nullopt;
  return statuses_.at(query_id);
}

std::optional<QueryStatusPayload> ServeClient::cancel(std::uint64_t query_id,
                                                      double timeout_sec) {
  CancelQueryPayload req;
  req.query_id = query_id;
  statuses_.erase(query_id);
  if (!send_frame(wire::FrameKind::kCancelQuery, wire::encode_body(req))) {
    return std::nullopt;
  }
  const bool got = pump_until(
      timeout_sec, [&] { return statuses_.count(query_id) != 0; });
  if (!got) return std::nullopt;
  return statuses_.at(query_id);
}

// --- workload replay ------------------------------------------------------

double ReplayStats::latency_percentile_ms(double q) const {
  if (latency_ms.empty()) return 0.0;
  std::vector<double> sorted = latency_ms;
  std::sort(sorted.begin(), sorted.end());
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t idx =
      static_cast<std::size_t>(std::lround(std::max(0.0, rank)));
  return sorted[std::min(idx, sorted.size() - 1)];
}

ReplayStats replay_workload(std::uint16_t port,
                            const std::vector<WorkloadQuery>& queries,
                            int concurrency, bool verify, int max_retries) {
  concurrency = std::max(1, concurrency);
  std::vector<ReplayStats> per_thread(
      static_cast<std::size_t>(concurrency));
  const Clock::time_point start = Clock::now();

  auto worker = [&](int t) {
    ReplayStats& stats = per_thread[static_cast<std::size_t>(t)];
    // One connection per distinct tenant this thread serves.
    std::map<std::string, std::unique_ptr<ServeClient>> conns;
    auto client_for = [&](const std::string& tenant) -> ServeClient* {
      auto it = conns.find(tenant);
      if (it == conns.end()) {
        auto client = std::make_unique<ServeClient>();
        if (!client->connect(port, tenant)) return nullptr;
        it = conns.emplace(tenant, std::move(client)).first;
      }
      return it->second.get();
    };

    for (std::size_t i = static_cast<std::size_t>(t); i < queries.size();
         i += static_cast<std::size_t>(concurrency)) {
      const WorkloadQuery& q = queries[i];
      ServeClient* client = client_for(q.tenant);
      if (client == nullptr) {
        ++stats.errors;
        continue;
      }
      ++stats.submitted;
      const Clock::time_point submit_at = Clock::now();
      auto reply = client->submit_with_retry(q.config, max_retries);
      if (!reply.has_value()) {
        ++stats.errors;
        conns.erase(q.tenant);  // reconnect next time
        continue;
      }
      if (!reply->accepted) {
        ++stats.rejected;
        continue;
      }
      ++stats.accepted;
      auto result = client->wait_result(reply->query_id);
      if (!result.has_value()) {
        ++stats.errors;
        conns.erase(q.tenant);
        continue;
      }
      ++stats.completed;
      stats.latency_ms.push_back(seconds_since(submit_at) * 1000.0);
      if (verify) {
        const JoinResult oracle = reference_join(q.config);
        if (oracle.matches != result->matches ||
            oracle.checksum != result->checksum) {
          ++stats.verify_failures;
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(concurrency));
  for (int t = 0; t < concurrency; ++t) threads.emplace_back(worker, t);
  for (std::thread& th : threads) th.join();

  ReplayStats total;
  for (const ReplayStats& s : per_thread) {
    total.submitted += s.submitted;
    total.accepted += s.accepted;
    total.rejected += s.rejected;
    total.completed += s.completed;
    total.retries += s.retries;
    total.verify_failures += s.verify_failures;
    total.errors += s.errors;
    total.latency_ms.insert(total.latency_ms.end(), s.latency_ms.begin(),
                            s.latency_ms.end());
  }
  total.wall_sec = seconds_since(start);
  return total;
}

}  // namespace ehja::serve
