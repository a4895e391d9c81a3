// Serving-layer integration tests (ctest label: serve).
//
// Every test here runs a real JoinService: coordinator event loop on a
// thread (or a forked child for the SIGTERM test), warm worker processes
// forked from this binary -- hence the custom main() dispatching to
// maybe_run_socket_worker() -- and real ServeClient connections over
// loopback TCP.  The gold standard is unchanged from the batch suites:
// every result a client receives must equal reference_join(config), no
// matter how many queries and tenants were in flight around it.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/units.hpp"

namespace ehja {
namespace {

serve::TenantSpec tenant_spec(const std::string& name, std::uint32_t priority,
                              std::uint32_t max_slots = 16,
                              std::uint64_t max_memory = 512 * kMiB) {
  serve::TenantSpec t;
  t.name = name;
  t.priority = priority;
  t.max_slots = max_slots;
  t.max_memory_bytes = max_memory;
  return t;
}

/// A sub-second query; distinct seeds make distinct oracles, so result
/// cross-wiring between concurrent queries cannot cancel out.
EhjaConfig small_query(std::uint64_t seed, std::uint64_t tuples = 8'000) {
  EhjaConfig config;
  config.data_sources = 1;
  config.initial_join_nodes = 1;
  config.join_pool_nodes = 2;
  config.node_hash_memory_bytes = 256 * kKiB;
  config.build_rel.tuple_count = tuples;
  config.probe_rel.tuple_count = tuples;
  config.chunk_tuples = 1'000;
  config.generation_slice_tuples = 1'000;
  config.seed = seed;
  return config;
}

/// JoinService on its own thread, stopped through the same polled-flag path
/// tools/ehja_serve.cpp uses for SIGTERM.
class ServiceHarness {
 public:
  explicit ServiceHarness(serve::ServeOptions opts) : service_(std::move(opts)) {
    service_.set_shutdown_flag(&stop_);
    thread_ = std::thread([this] { service_.run(); });
  }
  ~ServiceHarness() { stop(); }

  void stop() {
    if (thread_.joinable()) {
      stop_.store(true);
      thread_.join();
    }
  }
  std::uint16_t port() const { return service_.port(); }
  serve::JoinService& service() { return service_; }

 private:
  serve::JoinService service_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Graceful shutdown (registered first: this test forks the whole service
// into a child process, which must happen before any test has started
// threads in this process).

std::atomic<bool> g_child_shutdown{false};
void child_on_sigterm(int /*sig*/) { g_child_shutdown.store(true); }

TEST(ServeShutdown, SigtermDrainsInFlightAndExitsZero) {
  int pipefd[2];
  ASSERT_EQ(::pipe(pipefd), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // --- child: the server process, exactly as tools/ehja_serve.cpp runs it.
    ::close(pipefd[0]);
    ::signal(SIGTERM, child_on_sigterm);
    serve::ServeOptions opts;
    opts.fleet_workers = 2;
    opts.drain_deadline_sec = 60.0;
    opts.tenants.push_back(tenant_spec("alpha", 1));
    serve::JoinService service(std::move(opts));
    service.set_shutdown_flag(&g_child_shutdown);
    const std::uint16_t port = service.port();
    if (::write(pipefd[1], &port, sizeof(port)) != sizeof(port)) std::_Exit(9);
    ::close(pipefd[1]);
    service.run();
    std::_Exit(0);
  }
  ::close(pipefd[1]);
  std::uint16_t port = 0;
  ASSERT_EQ(::read(pipefd[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  ::close(pipefd[0]);

  serve::ServeClient client;
  std::string error;
  ASSERT_TRUE(client.connect(port, "alpha", &error)) << error;

  // A first round served to completion proves the server is healthy...
  std::vector<std::uint64_t> done_ids;
  for (int i = 0; i < 3; ++i) {
    const auto reply = client.submit_with_retry(small_query(100 + i));
    ASSERT_TRUE(reply.has_value() && reply->accepted);
    done_ids.push_back(reply->query_id);
  }
  for (const std::uint64_t id : done_ids) {
    ASSERT_TRUE(client.wait_result(id).has_value());
  }

  // ...then SIGTERM lands with fresh queries still in flight.  Running
  // queries drain; queued ones are bounced; either way the process must
  // exit 0 well inside the drain deadline.
  for (int i = 0; i < 3; ++i) {
    const auto reply = client.submit(small_query(200 + i));
    ASSERT_TRUE(reply.has_value() && reply->accepted);
  }
  ASSERT_EQ(::kill(child, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "server did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

// ---------------------------------------------------------------------------
// Oracle equality under heavy concurrency: >= 64 queries, two tenants,
// every result byte-checked against the serial oracle.

TEST(ServeConcurrency, SixtyFourQueriesTwoTenantsMatchOracle) {
  serve::ServeOptions opts;
  opts.fleet_workers = 3;
  opts.tenants.push_back(tenant_spec("alpha", 1));
  opts.tenants.push_back(tenant_spec("beta", 0));
  ServiceHarness harness(std::move(opts));

  std::vector<serve::WorkloadQuery> queries;
  for (int i = 0; i < 64; ++i) {
    serve::WorkloadQuery q;
    q.tenant = (i % 2 == 0) ? "alpha" : "beta";
    q.config = small_query(1000 + i);
    queries.push_back(std::move(q));
  }
  const serve::ReplayStats stats =
      serve::replay_workload(harness.port(), queries, /*concurrency=*/16,
                             /*verify=*/true);
  EXPECT_EQ(stats.submitted, 64u);
  EXPECT_EQ(stats.accepted, 64u);
  EXPECT_EQ(stats.completed, 64u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.verify_failures, 0u);

  harness.stop();
  EXPECT_EQ(harness.service().queries_completed(), 64u);
}

// ---------------------------------------------------------------------------
// Budgets arbitrate, never starve: a tenant capped at one query at a time
// shares the fleet with an unconstrained one; everything completes and
// verifies.

TEST(ServeBudgets, OverBudgetTenantQueuesWithoutStarvingOthers) {
  serve::ServeOptions opts;
  opts.fleet_workers = 3;
  // greedy outranks modest but may hold only 2 slots (= one 1-source,
  // 1-join query); its backlog must not block modest's flow.
  opts.tenants.push_back(tenant_spec("greedy", 5, /*max_slots=*/2));
  opts.tenants.push_back(tenant_spec("modest", 0));
  ServiceHarness harness(std::move(opts));

  std::vector<serve::WorkloadQuery> queries;
  for (int i = 0; i < 12; ++i) {
    serve::WorkloadQuery q;
    q.tenant = (i % 2 == 0) ? "greedy" : "modest";
    q.config = small_query(2000 + i);
    queries.push_back(std::move(q));
  }
  const serve::ReplayStats stats =
      serve::replay_workload(harness.port(), queries, /*concurrency=*/6,
                             /*verify=*/true);
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.verify_failures, 0u);
}

// ---------------------------------------------------------------------------
// Backpressure: a full queue bounces with a retry hint instead of buffering
// without bound, and the bounced client can retry its way in.

TEST(ServeBackpressure, QueueFullRejectsWithRetryHint) {
  serve::ServeOptions opts;
  opts.fleet_workers = 2;
  opts.max_queue = 2;
  // One query at a time: every later submission queues behind it.
  opts.tenants.push_back(tenant_spec("alpha", 0, /*max_slots=*/2));
  ServiceHarness harness(std::move(opts));

  serve::ServeClient client;
  std::string error;
  ASSERT_TRUE(client.connect(harness.port(), "alpha", &error)) << error;

  // q1, sized to still be running while the rest of the test happens.
  const auto q1 = client.submit(small_query(31, /*tuples=*/200'000));
  ASSERT_TRUE(q1.has_value() && q1->accepted);
  // Wait until q1 has left the queue (admitted), so the queue is empty.
  for (int spin = 0;; ++spin) {
    const auto st = client.status(q1->query_id);
    ASSERT_TRUE(st.has_value());
    if (st->state != serve::QueryState::kQueued) break;
    ASSERT_LT(spin, 500) << "q1 never admitted";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Two more fill the queue (budget-blocked behind q1)...
  const auto q2 = client.submit(small_query(32));
  ASSERT_TRUE(q2.has_value() && q2->accepted);
  const auto q3 = client.submit(small_query(33));
  ASSERT_TRUE(q3.has_value() && q3->accepted);

  // ...and the next submission must bounce with a transient, hinted reject.
  const auto q4 = client.submit(small_query(34));
  ASSERT_TRUE(q4.has_value());
  EXPECT_FALSE(q4->accepted);
  EXPECT_EQ(q4->reason, serve::RejectCode::kQueueFull);
  EXPECT_GT(q4->retry_after_ms, 0u);

  // The backlog still drains to correct results.
  const auto big_result = client.wait_result(q1->query_id, 180.0);
  ASSERT_TRUE(big_result.has_value());
  const JoinResult big_oracle = reference_join(small_query(31, 200'000));
  EXPECT_EQ(big_result->matches, big_oracle.matches);
  EXPECT_EQ(big_result->checksum, big_oracle.checksum);
  const std::uint64_t queued_ids[] = {q2->query_id, q3->query_id};
  const std::uint64_t queued_seeds[] = {32, 33};
  for (int i = 0; i < 2; ++i) {
    const auto result = client.wait_result(queued_ids[i]);
    ASSERT_TRUE(result.has_value());
    const JoinResult oracle = reference_join(small_query(queued_seeds[i]));
    EXPECT_EQ(result->matches, oracle.matches);
    EXPECT_EQ(result->checksum, oracle.checksum);
  }
}

// ---------------------------------------------------------------------------
// Forward compatibility at the front door: garbage (or a newer build's
// framing) gets one polite kQueryRejected farewell and a dropped
// connection; the server keeps serving everyone else.

TEST(ServeForwardCompat, BadFrameGetsRejectAndServerSurvives) {
  serve::ServeOptions opts;
  opts.fleet_workers = 2;
  opts.tenants.push_back(tenant_spec("alpha", 0));
  ServiceHarness harness(std::move(opts));

  // Raw garbage at the framing layer (bad magic from byte 0).
  const int fd = netio::try_connect_loopback(harness.port());
  ASSERT_GE(fd, 0);
  {
    auto conn = netio::adopt_fd(fd);
    std::vector<std::uint8_t> junk(64, 0xAB);
    conn->out.assign(junk.begin(), junk.end());
    netio::must_flush(*conn, 5.0, "junk");
    const wire::Frame farewell =
        netio::must_recv_frame(*conn, 10.0, "farewell reject");
    ASSERT_EQ(farewell.kind, wire::FrameKind::kQueryRejected);
    serve::QueryRejectedPayload reject;
    ASSERT_TRUE(wire::decode_body(farewell.body, reject));
    EXPECT_EQ(reject.reason, serve::RejectCode::kBadFrame);
  }

  // A well-formed client still gets served afterwards.
  serve::ServeClient client;
  std::string error;
  ASSERT_TRUE(client.connect(harness.port(), "alpha", &error)) << error;
  const auto reply = client.submit_with_retry(small_query(77));
  ASSERT_TRUE(reply.has_value() && reply->accepted);
  const auto result = client.wait_result(reply->query_id);
  ASSERT_TRUE(result.has_value());
  const JoinResult oracle = reference_join(small_query(77));
  EXPECT_EQ(result->matches, oracle.matches);
  EXPECT_EQ(result->checksum, oracle.checksum);
}

// A client-submitted chunk size whose frame could pass the body cap, or a
// generation slice too large to stage, is a kBadConfig reject at submit
// time: admitted, it would make a fleet worker abort (on the oversized
// frame, or out of memory) and take the server down with it.
TEST(ServeForwardCompat, OversizedChunkGetsBadConfigAndServerSurvives) {
  serve::ServeOptions opts;
  opts.fleet_workers = 2;
  opts.tenants.push_back(tenant_spec("alpha", 0));
  ServiceHarness harness(std::move(opts));

  serve::ServeClient client;
  std::string error;
  ASSERT_TRUE(client.connect(harness.port(), "alpha", &error)) << error;
  EhjaConfig oversized = small_query(78);
  oversized.chunk_tuples = static_cast<std::uint32_t>(wire::kMaxFrameRows) + 1;
  const auto reject = client.submit(oversized);
  ASSERT_TRUE(reject.has_value());
  EXPECT_FALSE(reject->accepted);
  EXPECT_EQ(reject->reason, serve::RejectCode::kBadConfig);

  EhjaConfig huge_slice = small_query(80);
  huge_slice.generation_slice_tuples =
      static_cast<std::uint32_t>(wire::kMaxFrameRows) + 1;
  const auto slice_reject = client.submit(huge_slice);
  ASSERT_TRUE(slice_reject.has_value());
  EXPECT_FALSE(slice_reject->accepted);
  EXPECT_EQ(slice_reject->reason, serve::RejectCode::kBadConfig);

  // The same connection is still served afterwards.
  const auto reply = client.submit_with_retry(small_query(79));
  ASSERT_TRUE(reply.has_value() && reply->accepted);
  const auto result = client.wait_result(reply->query_id);
  ASSERT_TRUE(result.has_value());
  const JoinResult oracle = reference_join(small_query(79));
  EXPECT_EQ(result->matches, oracle.matches);
  EXPECT_EQ(result->checksum, oracle.checksum);
}

// ---------------------------------------------------------------------------
// Expansion through admission: the same overflowing query expands when its
// tenant has slot headroom and degrades to spilling (still correct) when
// the budget says no.

EhjaConfig overflowing_query(std::uint64_t seed) {
  EhjaConfig config;
  config.data_sources = 1;
  config.initial_join_nodes = 1;
  config.join_pool_nodes = 4;
  config.build_rel.tuple_count = 30'000;
  config.probe_rel.tuple_count = 30'000;
  config.build_rel.dist = DistributionSpec::SmallDomain(2048);
  config.probe_rel.dist = DistributionSpec::SmallDomain(2048);
  config.chunk_tuples = 500;
  config.generation_slice_tuples = 500;
  // ~4000 of 30000 build tuples fit per node: guaranteed overflow.
  config.node_hash_memory_bytes = 4000 * tuple_footprint(config.build_rel.schema);
  config.seed = seed;
  return config;
}

TEST(ServeExpansion, GrantedWithinBudgetDeniedBeyondIt) {
  serve::ServeOptions opts;
  opts.fleet_workers = 4;
  // roomy can recruit; tight is capped at exactly its initial demand
  // (1 source + 1 join = 2 slots), so every expansion request is denied.
  opts.tenants.push_back(tenant_spec("roomy", 0, /*max_slots=*/8));
  opts.tenants.push_back(tenant_spec("tight", 0, /*max_slots=*/2));
  ServiceHarness harness(std::move(opts));

  serve::ServeClient roomy;
  serve::ServeClient tight;
  ASSERT_TRUE(roomy.connect(harness.port(), "roomy"));
  ASSERT_TRUE(tight.connect(harness.port(), "tight"));

  const EhjaConfig config = overflowing_query(55);
  const JoinResult oracle = reference_join(config);

  const auto roomy_reply = roomy.submit_with_retry(config);
  ASSERT_TRUE(roomy_reply.has_value() && roomy_reply->accepted);
  const auto roomy_result = roomy.wait_result(roomy_reply->query_id, 180.0);
  ASSERT_TRUE(roomy_result.has_value());
  EXPECT_EQ(roomy_result->matches, oracle.matches);
  EXPECT_EQ(roomy_result->checksum, oracle.checksum);
  EXPECT_GT(roomy_result->expansions, 0u)
      << "an overflowing build with slot headroom should have expanded";

  const auto tight_reply = tight.submit_with_retry(config);
  ASSERT_TRUE(tight_reply.has_value() && tight_reply->accepted);
  const auto tight_result = tight.wait_result(tight_reply->query_id, 180.0);
  ASSERT_TRUE(tight_result.has_value());
  EXPECT_EQ(tight_result->matches, oracle.matches);
  EXPECT_EQ(tight_result->checksum, oracle.checksum);
  EXPECT_EQ(tight_result->expansions, 0u)
      << "a tenant at its slot budget must be denied and spill instead";
}

}  // namespace
}  // namespace ehja

// Custom main: the service's forked workers re-execute this binary with
// --ehja-worker=N; they must become runtime workers, not gtest runs.
int main(int argc, char** argv) {
  if (const auto worker_exit = ehja::maybe_run_socket_worker(argc, argv)) {
    return *worker_exit;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
