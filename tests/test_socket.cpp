// SocketRuntime integration tests (ctest label: socket).
//
// Every test here runs the join across *real processes*: the coordinator
// (this test binary) forks one worker per non-coordinator node, re-executing
// itself in worker mode -- which is why this file has a custom main() that
// dispatches to maybe_run_socket_worker() before gtest ever sees argv.
//
// The gold standard is the same as the sim suites': run_ehja() must produce
// exactly reference_join(config), now with the answer assembled from tuples
// that crossed genuine TCP connections.  The per-pair FIFO contract needs no
// dedicated pass/fail probe beyond the unit test below: every kActorMsg
// frame a SocketRuntime/SocketWorkerRuntime receives is EHJA_CHECKed against
// the per-connection sequence counter (fifo_accept), so any violation aborts
// the worker, the coordinator sees an unexpected exit, and the test fails.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/messages.hpp"
#include "net/framed_conn.hpp"
#include "runtime/socket_runtime.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace ehja {
namespace {

// Mirrors tests/test_recovery.cpp's chaos_config: small enough that a full
// cross-process run takes seconds, with a memory budget tight enough
// (~4000 of 30000 build tuples per node) that every algorithm actually
// expands -- so splits, replicas, handoffs and map updates all cross
// process boundaries, not just data chunks.
EhjaConfig socket_config(Algorithm algorithm) {
  EhjaConfig config;
  config.algorithm = algorithm;
  config.initial_join_nodes = 3;
  config.join_pool_nodes = 6;
  config.data_sources = 2;
  config.build_rel.tuple_count = 30'000;
  config.probe_rel.tuple_count = 30'000;
  config.build_rel.dist = DistributionSpec::SmallDomain(2048);
  config.probe_rel.dist = DistributionSpec::SmallDomain(2048);
  config.chunk_tuples = 500;
  config.generation_slice_tuples = 500;
  config.node_hash_memory_bytes =
      4000 * tuple_footprint(config.build_rel.schema);
  return config;
}

std::string algo_test_name(const ::testing::TestParamInfo<Algorithm>& info) {
  std::string n = algorithm_name(info.param);
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

// ---------------------------------------------------------------------------
// The FIFO acceptance predicate both runtimes check on every received frame.

TEST(FifoAccept, AcceptsExactlyTheNextSequence) {
  std::uint64_t expected = 0;
  EXPECT_TRUE(fifo_accept(expected, 0));
  EXPECT_TRUE(fifo_accept(expected, 1));
  EXPECT_TRUE(fifo_accept(expected, 2));
  EXPECT_EQ(expected, 3u);
  // A gap (drop) and a replay (duplicate/reorder) must both be rejected
  // without advancing the window.
  EXPECT_FALSE(fifo_accept(expected, 5));
  EXPECT_FALSE(fifo_accept(expected, 2));
  EXPECT_EQ(expected, 3u);
  EXPECT_TRUE(fifo_accept(expected, 3));
}

// ---------------------------------------------------------------------------
// The early link flush.  A frame that brings a link's unsent bytes to the
// threshold starts going out from inside route_to, behind what was queued
// before it; a link that this flush finds broken is reported, once.

/// A SocketLoop whose one peer link is a socketpair, driven by hand.  It
/// labels every frame its receive path takes in, in arrival order.
class LinkProbe final : public SocketLoop {
 public:
  LinkProbe() : SocketLoop(0, 32) {
    set_cluster(make_cluster(EhjaConfig{}));
    int fds[2];
    EHJA_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    conns_[1] = netio::adopt_fd(fds[0]);
    conns_[1]->peer = 1;
    peer = netio::adopt_fd(fds[1]);
  }

  ActorId spawn(NodeId /*node*/, std::unique_ptr<Actor> /*actor*/) override {
    return kInvalidActor;
  }
  void send_to_peer(Message msg) { route_to(1, 7, 0, std::move(msg)); }
  netio::Conn& link() { return *conns_[1]; }
  /// One read of the link, then the loop's receive path over it.
  void receive() {
    netio::read_available(link());
    handle_frames(link());
  }

  std::unique_ptr<netio::Conn> peer;
  int lost = 0;
  std::vector<std::string> arrivals;

 private:
  void on_control_frame(const wire::Frame& f) override {
    arrivals.push_back("control " + std::to_string(static_cast<int>(f.kind)) +
                       " " + std::to_string(f.body.size()));
  }
  void on_unrouted_send(ActorId /*to*/, Message /*msg*/) override {}
  void on_unhosted_receive(NodeId /*from*/, ActorId to,
                           Message msg) override {
    arrivals.push_back(label(to, msg));
  }
  void on_connection_lost(const netio::Conn& /*conn*/) override { ++lost; }

 public:
  /// What a message is, down to a fold of a data chunk's rows.
  static std::string label(ActorId to, const Message& msg) {
    std::string out = std::to_string(to) + " tag " + std::to_string(msg.tag);
    if (msg.tag == static_cast<int>(Tag::kDataChunk)) {
      const TupleBatch& rows = msg.as<ChunkPayload>().chunk.batch;
      std::uint64_t fold = 0;
      for (std::size_t i = 0; i < rows.size(); ++i) {
        fold = fold * 31 + rows.id(i) * 7 + rows.key(i) + rows.position(i);
      }
      out += " rows " + std::to_string(rows.size()) + " fold " +
             std::to_string(fold);
    }
    return out;
  }
};

/// A data chunk of `rows` random rows: at about 18 bytes a row, 30k rows
/// frame to twice the flush threshold.  `seed` tells equal-sized chunks
/// apart.
Message chunk_message(std::size_t rows, std::uint64_t seed = 0) {
  ChunkPayload payload;
  SplitMix64 rng(rows + (seed << 32));
  for (std::size_t i = 0; i < rows; ++i) {
    payload.chunk.batch.append(rng.next_u64(), rng.next_u64());
  }
  return make_message(Tag::kDataChunk, std::move(payload), 0);
}

TEST(EarlyLinkFlush, BulkFrameLeavesInsideTheHandlerInOrder) {
  LinkProbe loop;
  loop.send_to_peer(make_signal(Tag::kPing));
  netio::read_available(*loop.peer);
  EXPECT_TRUE(loop.peer->in.empty()) << "a control frame waits for pump()";

  loop.send_to_peer(chunk_message(30'000));
  netio::read_available(*loop.peer);
  EXPECT_FALSE(loop.peer->in.empty()) << "the bulk frame waited for pump()";

  while (loop.link().wants_write()) {
    netio::flush_out(loop.link());
    netio::read_available(*loop.peer);
  }
  netio::read_available(*loop.peer);
  std::vector<Message> got;
  wire::Frame f;
  while (netio::next_frame(*loop.peer, f)) {
    ASSERT_EQ(f.kind, wire::FrameKind::kActorMsg);
    wire::Reader r(f.body);
    EXPECT_EQ(r.zigzag(), 7);
    const std::uint64_t seq = r.varint();
    EXPECT_TRUE(fifo_accept(loop.peer->next_recv_seq, seq));
    Message msg;
    ASSERT_TRUE(wire::decode_message(r, msg));
    got.push_back(std::move(msg));
  }
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].tag, static_cast<int>(Tag::kPing));
  EXPECT_EQ(got[1].as<ChunkPayload>().chunk.size(), 30'000u);
}

TEST(EarlyLinkFlush, BrokenLinkIsReportedOnce) {
  LinkProbe loop;
  loop.peer.reset();  // the peer process is gone
  loop.send_to_peer(chunk_message(30'000));
  EXPECT_TRUE(loop.link().broken);
  EXPECT_EQ(loop.lost, 1);
  loop.send_to_peer(chunk_message(30'000));  // dropped: the link is unusable
  EXPECT_EQ(loop.lost, 1);
}

// ---------------------------------------------------------------------------
// Frames built and taken in place.  A sender encodes each actor message
// straight behind a header reserved in the link's output buffer; a
// receiver checks each frame inside its input buffer, decodes it from a
// view, and drops the consumed bytes once per read.

TEST(InPlaceFraming, BeginEndFrameMatchesAppendFrame) {
  SplitMix64 rng(0xF4A3);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{1} << 20}) {
    std::vector<std::uint8_t> body(n);
    for (std::uint8_t& b : body) b = static_cast<std::uint8_t>(rng.next_u64());
    // The documented layout, written field by field.
    wire::Writer layout;
    layout.u8(0xAB);  // bytes already queued ahead of the frame
    layout.u32(wire::kFrameMagic);
    layout.u8(wire::kWireVersion);
    layout.u8(static_cast<std::uint8_t>(wire::FrameKind::kActorMsg));
    layout.u16(0);
    layout.u32(static_cast<std::uint32_t>(n));
    layout.u32(wire::crc32(body.data(), body.size()));
    layout.bytes(body.data(), body.size());

    std::vector<std::uint8_t> appended = {0xAB};
    wire::append_frame(appended, wire::FrameKind::kActorMsg, body);
    EXPECT_EQ(appended, layout.data()) << n << "-byte body";

    // The send path's way: a Writer adopts the buffer behind the header.
    std::vector<std::uint8_t> built = {0xAB};
    const std::size_t start = wire::begin_frame(built);
    wire::Writer w(std::move(built));
    w.bytes(body.data(), body.size());
    built = w.take();
    wire::end_frame(built, start, wire::FrameKind::kActorMsg);
    EXPECT_EQ(built, layout.data()) << n << "-byte body";
  }
}

/// The bytes a peer reads after `send` queues frames on a fresh link.
std::vector<std::uint8_t> burst_bytes(
    const std::function<void(LinkProbe&)>& send) {
  LinkProbe sender;
  send(sender);
  while (sender.link().wants_write()) {
    netio::flush_out(sender.link());
    netio::read_available(*sender.peer);
  }
  netio::read_available(*sender.peer);
  return sender.peer->in;
}

TEST(InPlaceFraming, BurstArrivesOnceInOrderAtAnyReadSize) {
  // 1-row and 100k-row data chunks, with control frames between them.
  std::vector<Message> sent;
  for (const std::size_t rows : {1, 1, 100'000, 1, 100'000, 1}) {
    sent.push_back(chunk_message(rows, sent.size()));
  }
  sent.insert(sent.begin() + 3, make_signal(Tag::kPing));
  const auto announce = [](int i) {
    return wire::encode_body(wire::AnnounceFrame{100 + i, 2});
  };
  std::vector<std::string> expected;
  const std::vector<std::uint8_t> bytes = burst_bytes([&](LinkProbe& tx) {
    for (std::size_t i = 0; i < sent.size(); ++i) {
      tx.send_to_peer(sent[i]);
      expected.push_back(LinkProbe::label(7, sent[i]));
      if (i % 2 == 0) {
        const auto body = announce(static_cast<int>(i));
        netio::queue_frame(tx.link(), wire::FrameKind::kAnnounce, body);
        expected.push_back("control " +
                           std::to_string(static_cast<int>(
                               wire::FrameKind::kAnnounce)) +
                           " " + std::to_string(body.size()));
      }
    }
  });
  ASSERT_GT(bytes.size(), 3'000'000u);

  // Once in reads as large as the socket allows, once one byte per read.
  for (const std::size_t step : {bytes.size(), std::size_t{1}}) {
    SCOPED_TRACE("step " + std::to_string(step));
    LinkProbe rx;
    for (std::size_t at = 0; at < bytes.size();) {
      const ssize_t n =
          ::send(rx.peer->fd, bytes.data() + at,
                 std::min(step, bytes.size() - at), MSG_DONTWAIT);
      if (n > 0) at += static_cast<std::size_t>(n);
      rx.receive();
      ASSERT_FALSE(rx.link().broken);
    }
    rx.receive();
    EXPECT_EQ(rx.arrivals, expected);
    EXPECT_EQ(rx.link().next_recv_seq, sent.size());
    EXPECT_EQ(rx.link().in_off, rx.link().in.size()) << "a frame is left";
    netio::read_available(rx.link());
    EXPECT_TRUE(rx.link().in.empty()) << "consumed bytes outlived a read";
    EXPECT_EQ(rx.link().in_off, 0u);
  }
}

TEST(InPlaceFraming, CorruptCrcBreaksTheLinkAfterTwoFrames) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::unique_ptr<netio::Conn> tx = netio::adopt_fd(fds[0]);
  const std::unique_ptr<netio::Conn> rx = netio::adopt_fd(fds[1]);
  std::vector<std::size_t> starts;
  for (int i = 0; i < 5; ++i) {
    starts.push_back(tx->out.size());
    netio::queue_frame(*tx, wire::FrameKind::kAnnounce,
                       wire::encode_body(wire::AnnounceFrame{i, 1}));
  }
  tx->out[starts[2] + 12] ^= 0x01;  // the low bit of the third frame's CRC
  netio::must_flush(*tx, 5.0, "five frames");
  netio::read_available(*rx);

  wire::Frame f;
  std::string error;
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(netio::try_next_frame(*rx, f, &error), netio::FrameResult::kFrame);
    wire::AnnounceFrame a;
    ASSERT_TRUE(wire::decode_body(f.body, a));
    EXPECT_EQ(a.id, i);
  }
  EXPECT_FALSE(rx->broken);
  EXPECT_EQ(netio::try_next_frame(*rx, f, &error), netio::FrameResult::kError);
  EXPECT_TRUE(rx->broken);
  EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Oracle equality, one real multi-process run per algorithm.  The checksum
// is an order-independent fold over every emitted match, so agreement with
// the serial oracle means no tuple was lost, duplicated or mis-joined on
// its way through the socket mesh.

class SocketOracleSuite : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SocketOracleSuite, MatchesSerialOracleAcrossProcesses) {
  const EhjaConfig config = socket_config(GetParam());
  const RunResult run = run_ehja(config, RuntimeKind::kSocket);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.build_tuples_total, config.build_rel.tuple_count);
  EXPECT_EQ(run.metrics.failures_injected, 0u);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, SocketOracleSuite,
                         ::testing::Values(Algorithm::kSplit,
                                           Algorithm::kReplicate,
                                           Algorithm::kHybrid,
                                           Algorithm::kOutOfCore,
                                           Algorithm::kAdaptive),
                         algo_test_name);

// ---------------------------------------------------------------------------
// Fail-stop recovery with a real SIGKILL.  The chunk-triggered kill fires
// inside the victim worker process (raise(SIGKILL) as its 10th data chunk
// arrives), the launcher reaps the corpse, the scheduler's heartbeat
// detector notices the silence, and the PR-2 recovery protocol -- failover,
// epoch fences, source replay -- must reassemble the exact oracle answer.
// Heartbeat timings are *wall-clock* seconds here, unlike the sim suite's
// virtual ones, so the timeout is kept large enough to never false-trigger
// on a loaded CI machine yet small enough to keep the test quick.

TEST(SocketRecovery, SigkillMidBuildStillMatchesOracle) {
  EhjaConfig config = socket_config(Algorithm::kHybrid);
  KillSpec kill;
  kill.pool_index = 1;
  kill.after_chunks = 10;
  config.faults.kills.push_back(kill);
  config.ft.heartbeat_interval_sec = 0.05;
  config.ft.heartbeat_timeout_sec = 1.0;

  const RunResult run = run_ehja(config, RuntimeKind::kSocket);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.failures_injected, 1u);
  EXPECT_EQ(run.metrics.failures_detected, 1u);
  EXPECT_GE(run.metrics.recoveries, 1u);
  EXPECT_GT(run.metrics.detection_latency_total, 0.0);
  EXPECT_GT(run.metrics.recovery_time_total, 0.0);
  EXPECT_GT(run.metrics.replayed_build_tuples, 0u);
  EXPECT_EQ(run.metrics.build_tuples_total, config.build_rel.tuple_count);
}

// A time-triggered kill takes the other path to a corpse: the coordinator's
// timer fires, the launcher SIGKILLs the worker from outside, and the next
// reap folds the exit into the fault model.  The relations are large enough
// that 50 ms lands inside the run, not after it.
TEST(SocketRecovery, TimedJoinKillStillMatchesOracle) {
  EhjaConfig config;
  config.algorithm = Algorithm::kHybrid;
  config.join_pool_nodes = 4;
  config.data_sources = 2;
  config.build_rel.tuple_count = 400'000;
  config.probe_rel.tuple_count = 400'000;
  config.build_rel.dist = DistributionSpec::SmallDomain(65536);
  config.probe_rel.dist = DistributionSpec::SmallDomain(65536);
  config.node_hash_memory_bytes = 4 * kMiB;
  KillSpec kill;
  kill.pool_index = 1;
  kill.at_time = 0.05;
  config.faults.kills.push_back(kill);
  config.ft.heartbeat_interval_sec = 0.1;
  config.ft.heartbeat_timeout_sec = 1.0;

  const RunResult run = run_ehja(config, RuntimeKind::kSocket);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.failures_injected, 1u);  // the kill was executed
  EXPECT_EQ(run.metrics.failures_detected, 1u);
  EXPECT_GE(run.metrics.recoveries, 1u);
  EXPECT_EQ(run.metrics.build_tuples_total, config.build_rel.tuple_count);
}

// ---------------------------------------------------------------------------
// Data-source SIGKILL: the victim is a *source* worker process, so an entire
// input slice vanishes mid-stream.  Recovery must reassign the slice to a
// fresh source (same deterministic TupleStream index) and wipe-replay, again
// to oracle equality over real sockets.  Scheduler kills are exercised only
// in the sim suite: under the socket runtime the coordinator process hosts
// the driver itself, so killing it would take the test down with it (the
// driver rejects such specs; the standby shares the coordinator process).

TEST(SocketRecovery, SigkillSourceMidBuildStillMatchesOracle) {
  EhjaConfig config = socket_config(Algorithm::kSplit);
  KillSpec kill;
  kill.role = KillRole::kSource;
  kill.pool_index = 1;
  kill.after_chunks = 10;
  config.faults.kills.push_back(kill);
  config.ft.heartbeat_interval_sec = 0.05;
  config.ft.heartbeat_timeout_sec = 1.0;

  const RunResult run = run_ehja(config, RuntimeKind::kSocket);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.failures_injected, 1u);
  EXPECT_EQ(run.metrics.failures_detected, 1u);
  EXPECT_EQ(run.metrics.source_failures, 1u);
  EXPECT_GE(run.metrics.recoveries, 1u);
  EXPECT_GT(run.metrics.detection_latency_total, 0.0);
  EXPECT_EQ(run.metrics.build_tuples_total, config.build_rel.tuple_count);
}

TEST(SocketRecovery, SigkillSourceMidProbeStillMatchesOracle) {
  EhjaConfig config = socket_config(Algorithm::kReplicate);
  KillSpec kill;
  kill.role = KillRole::kSource;
  kill.pool_index = 0;
  kill.after_chunks = 40;  // 30 build chunks per source: the 10th probe chunk
  config.faults.kills.push_back(kill);
  config.ft.heartbeat_interval_sec = 0.05;
  config.ft.heartbeat_timeout_sec = 1.0;

  const RunResult run = run_ehja(config, RuntimeKind::kSocket);
  EXPECT_EQ(run.join(), reference_join(config));
  EXPECT_EQ(run.metrics.source_failures, 1u);
  EXPECT_GE(run.metrics.recoveries, 1u);
  EXPECT_EQ(run.metrics.build_tuples_total, config.build_rel.tuple_count);
}

// Fuzzed kill points across the killable roles.  Four real multi-process
// runs keeps the wall-clock cost of this test in the same ballpark as one
// oracle sweep; the sim-side fuzz (tests/test_recovery.cpp) covers the same
// space far more densely, this one proves the machinery holds when the
// corpse is a genuine SIGKILLed process.
TEST(SocketChaosFuzz, FuzzedKillPointMatchesOracle) {
  SplitMix64 rng(20040607, /*stream=*/0x50c4e7);
  const Algorithm algos[] = {Algorithm::kHybrid, Algorithm::kOutOfCore,
                             Algorithm::kAdaptive, Algorithm::kSplit};
  for (int i = 0; i < 4; ++i) {
    EhjaConfig config = socket_config(algos[i]);
    config.ft.heartbeat_interval_sec = 0.05;
    config.ft.heartbeat_timeout_sec = 1.0;
    KillSpec kill;
    if (i % 2 == 0) {
      kill.role = KillRole::kJoin;
      kill.pool_index = static_cast<std::uint32_t>(rng.next_below(3));
      kill.after_chunks = 1 + rng.next_below(90);
    } else {
      kill.role = KillRole::kSource;
      kill.pool_index = static_cast<std::uint32_t>(rng.next_below(2));
      kill.after_chunks = 1 + rng.next_below(60);
    }
    SCOPED_TRACE("iteration " + std::to_string(i) + ": " +
                 std::string(algorithm_name(config.algorithm)) + ", kill " +
                 (kill.role == KillRole::kJoin ? "join[" : "source[") +
                 std::to_string(kill.pool_index) + "] after chunk " +
                 std::to_string(kill.after_chunks));
    config.faults.kills.push_back(kill);
    const RunResult run = run_ehja(config, RuntimeKind::kSocket);
    EXPECT_EQ(run.join(), reference_join(config));
    EXPECT_EQ(run.metrics.failures_detected - run.metrics.false_positive_deaths,
              run.metrics.failures_injected);
  }
}

}  // namespace
}  // namespace ehja

// Custom main: a forked worker re-executes this binary with
// --ehja-worker=N --ehja-coordinator-port=P; it must become a runtime
// worker, not a gtest run.  Plain gtest invocations (including
// --gtest_list_tests discovery) fall through untouched.
int main(int argc, char** argv) {
  if (const auto worker_exit = ehja::maybe_run_socket_worker(argc, argv)) {
    return *worker_exit;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
