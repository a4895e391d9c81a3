// Wire-format tests (net/wire.hpp, serve/serve_wire.hpp).
//
// Three properties carry the suite:
//   1. Round-trip fidelity -- for every message tag in the protocol
//      vocabulary (and for EhjaConfig, the serve payloads and the frame
//      layer), decode(encode(x)) re-encodes to the identical byte string.
//      Byte-level comparison of the re-encoding is a deep structural
//      equality that needs no operator== on payload structs and additionally
//      proves the encoding is canonical.
//   2. Pinned bytes -- a {size, crc32} table catches a change to the bytes
//      themselves, which (1) cannot: a field reordered on both sides still
//      round-trips.
//   3. Decode totality -- truncated and bit-flipped input makes decoders
//      return false (or FrameStatus::kError); it never aborts, never reads
//      out of bounds (the CI asan job runs this file under ASan), and never
//      allocates unbounded memory from a corrupt length field.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "net/wire.hpp"
#include "serve/serve_wire.hpp"
#include "util/units.hpp"

namespace ehja {
namespace {

using wire::Reader;
using wire::Writer;

// --- primitives ---

TEST(WirePrimitives, FixedWidthRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.f64(-1234.5e-6);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -1234.5e-6);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(WirePrimitives, VarintRoundTripEdges) {
  const std::uint64_t cases[] = {0,       1,          127,        128,
                                 16383,   16384,      (1ull << 32) - 1,
                                 1ull << 32, ~0ull - 1, ~0ull};
  for (const std::uint64_t v : cases) {
    Writer w;
    w.varint(v);
    Reader r(w.data());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(WirePrimitives, ZigzagRoundTripEdges) {
  const std::int64_t cases[] = {0,  -1, 1,  -2, 63, -64, 1'000'000,
                                -1'000'000,
                                std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : cases) {
    Writer w;
    w.zigzag(v);
    Reader r(w.data());
    EXPECT_EQ(r.zigzag(), v);
    EXPECT_TRUE(r.ok());
  }
}

TEST(WirePrimitives, OverlongVarintIsError) {
  // Eleven continuation bytes can encode nothing a u64 holds.
  std::vector<std::uint8_t> buf(11, 0x80);
  Reader r(buf.data(), buf.size());
  r.varint();
  EXPECT_FALSE(r.ok());
}

TEST(WirePrimitives, TruncationLatchesFailure) {
  Writer w;
  w.u64(42);
  Reader r(w.data().data(), 3);  // cut mid-integer
  r.u64();
  EXPECT_FALSE(r.ok());
  // Latched: further reads keep failing and return zero.
  EXPECT_EQ(r.u8(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(WirePrimitives, CanHoldRejectsAbsurdCounts) {
  const std::uint8_t small[4] = {0, 0, 0, 0};
  Reader r(small, sizeof(small));
  EXPECT_TRUE(r.can_hold(2, 2));
  EXPECT_FALSE(r.can_hold(1u << 30, 8));  // would demand gigabytes
  EXPECT_FALSE(r.ok());
}

TEST(WireCrc32, KnownVector) {
  // The classic IEEE 802.3 check value.
  const char* s = "123456789";
  EXPECT_EQ(wire::crc32(reinterpret_cast<const std::uint8_t*>(s), 9),
            0xCBF43926u);
}

/// The oracle: the textbook byte-at-a-time CRC32 over the same reflected
/// polynomial, one table lookup per byte.
std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t size) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(WireCrc32, MatchesByteAtATimeAtEveryLengthAndOffset) {
  // Every start offset 0..7 misaligns the 8-byte blocks differently, and
  // every length 0..1024 leaves every tail length 0..7 behind them.
  std::mt19937_64 rng(0xC3C32);
  std::vector<std::uint8_t> buf(1024 + 8);
  for (std::uint8_t& b : buf) b = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::uint8_t* p = buf.data() + offset;
      ASSERT_EQ(wire::crc32(p, len), crc32_bytewise(p, len))
          << "offset " << offset << ", length " << len;
    }
  }
  std::vector<std::uint8_t> big(1 << 20);
  for (std::uint8_t& b : big) b = static_cast<std::uint8_t>(rng());
  EXPECT_EQ(wire::crc32(big.data(), big.size()),
            crc32_bytewise(big.data(), big.size()));
}

// --- pinned bytes ---
//
// A deliberate format change bumps kWireVersion and re-records every pin in
// this file in the same commit.
static_assert(wire::kWireVersion == 10, "wire format changed: re-record pins");

struct Pin {
  std::size_t size;
  std::uint32_t crc;
};

::testing::AssertionResult matches_pin(const std::vector<std::uint8_t>& bytes,
                                       Pin pin) {
  const std::uint32_t crc = wire::crc32(bytes.data(), bytes.size());
  if (bytes.size() == pin.size && crc == pin.crc) {
    return ::testing::AssertionSuccess();
  }
  std::ostringstream now;
  now << "{" << bytes.size() << ", 0x" << std::hex << crc << "}";
  return ::testing::AssertionFailure() << "bytes changed; now " << now.str();
}

// --- message catalogue: one Message per protocol tag ---

PartitionMap sample_map() { return PartitionMap::initial({5, 7, 9}); }

PositionHistogram sample_histogram() {
  PositionHistogram h(64, 4096);
  h.push(65, 3);
  h.push(1000, 7);
  h.push(4095, 11);
  return h;
}

Chunk sample_chunk(RelTag rel) {
  Chunk c;
  c.rel = rel;
  c.batch = TupleBatch::from_tuples({Tuple{1, 100}, Tuple{2, 200},
                                     Tuple{~0ull, ~0ull}});
  return c;
}

NodeMetrics sample_metrics() {
  NodeMetrics m;
  m.actor = 3;
  m.node = 7;
  m.build_tuples = 11;
  m.probe_tuples = 12;
  m.matches = 13;
  m.chunks_received = 14;
  m.chunks_forwarded = 15;
  m.max_overshoot_bytes = 16;
  m.spilled_build_tuples = 17;
  m.spilled_probe_tuples = 18;
  m.spilled_partitions = 19;
  m.fence_dropped_tuples = 20;
  return m;
}

/// Every message the protocol can put on the wire, with every payload field
/// set to a non-default value so a dropped/reordered field cannot hide.
std::vector<Message> message_catalogue() {
  std::vector<Message> all;
  auto add = [&all](Message m, ActorId from) {
    m.from = from;
    all.push_back(std::move(m));
  };

  add(make_message(Tag::kJoinInit,
                   JoinInitPayload{JoinRole::kReplica, PosRange{10, 500}, 3, 7},
                   64),
      0);
  add(make_message(Tag::kStartBuild, StartBuildPayload{sample_map(), 4}, 128),
      0);
  add(make_signal(Tag::kGenSlice), 4);
  {
    ChunkPayload p{sample_chunk(RelTag::kS), true, 9};
    add(make_message(Tag::kDataChunk, p, 364), 4);
  }
  add(make_message(Tag::kForwardEnd, ForwardEndPayload{3}, 48), 5);
  add(make_message(Tag::kMemoryFull, MemoryFullPayload{123456789, 987654}, 48),
      5);
  add(make_message(Tag::kSplitRequest,
                   SplitRequestPayload{2, PosRange{100, 200}, 11}, 48),
      0);
  add(make_message(Tag::kHandoffStart, HandoffStartPayload{5, 13}, 48), 0);
  add(make_message(Tag::kOpComplete, OpCompletePayload{5, 999}, 48), 6);
  add(make_signal(Tag::kRelief), 0);
  add(make_signal(Tag::kSwitchToSpill), 0);
  add(make_message(Tag::kMapUpdate, MapUpdatePayload{4, sample_map()}, 120), 0);
  {
    SourceDonePayload p;
    p.rel = RelTag::kS;
    p.chunks_sent = 10;
    p.tuples_sent = 100000;
    p.chunks_to = {{3, 5}, {4, 6}};
    add(make_message(Tag::kSourceDone, p, 48), 1);
  }
  add(make_message(Tag::kSourceProgress, SourceProgressPayload{RelTag::kS, 77},
                   48),
      1);
  add(make_message(Tag::kDrainProbe, DrainProbePayload{2}, 48), 0);
  {
    DrainAckPayload p;
    p.epoch = 2;
    p.data_chunks_received = 10;
    p.data_chunks_forwarded = 3;
    p.received_from = {{1, 2}, {9, 1}};
    p.forwarded_to = {{2, 3}};
    add(make_message(Tag::kDrainAck, p, 48), 5);
  }
  add(make_signal(Tag::kBuildComplete), 0);
  add(make_message(Tag::kStartProbe, StartProbePayload{sample_map(), 4}, 128),
      0);
  add(make_message(Tag::kHistogramRequest, HistogramRequestPayload{1, 2},
                   48),
      0);
  add(make_message(Tag::kHistogramReply,
                   HistogramReplyPayload{1, sample_histogram(), 2}, 96),
      5);
  {
    ReshuffleMovePayload p;
    p.plan = {PartitionMap::Entry{PosRange{0, 100}, {4}},
              PartitionMap::Entry{PosRange{100, 300}, {5, 6}}};
    p.round = 1;
    add(make_message(Tag::kReshuffleMove, p, 80), 0);
  }
  add(make_message(Tag::kReshuffleDone, ReshuffleDonePayload{3}, 48), 5);
  add(make_signal(Tag::kReportRequest), 0);
  add(make_message(Tag::kNodeReport,
                   NodeReportPayload{sample_metrics(), 0xfeedface, 21}, 96),
      5);
  {
    ResultChunkPayload p{sample_chunk(RelTag::kR), true, 4242};
    add(make_message(Tag::kResultChunk, p, 200), 5);
  }
  add(make_signal(Tag::kPing), 0);
  add(make_signal(Tag::kPong), 6);
  add(make_signal(Tag::kHeartbeatTick), 0);
  add(make_message(Tag::kRecoveryFence,
                   RecoveryFencePayload{3, {PosRange{0, 10}, PosRange{50, 60}}},
                   64),
      0);
  {
    RangeResetPayload p;
    p.epoch = 3;
    p.discard = {PosRange{1, 2}};
    p.zero_probe_results = true;
    p.new_range = PosRange{5, 10};
    p.retired = true;
    add(make_message(Tag::kRangeReset, p, 64), 0);
  }
  add(make_message(Tag::kRangeResetAck, RangeResetAckPayload{3}, 48), 5);
  {
    ReplayRequestPayload p;
    p.epoch = 3;
    p.rel = RelTag::kS;
    p.ranges = {PosRange{7, 9}};
    p.pause_after = true;
    add(make_message(Tag::kReplayRequest, p, 64), 0);
  }
  {
    ReplayDonePayload p;
    p.epoch = 3;
    p.rel = RelTag::kS;
    p.tuples_replayed = 55;
    p.chunks_to = {{2, 9}};
    p.chunks_sent_total = 100;
    add(make_message(Tag::kReplayDone, p, 48), 1);
  }
  {
    SchedulerSnapshotPayload p;
    p.generation = 12;
    p.phase = 4;
    p.probe_recovery = true;
    p.epoch = 3;
    p.map_version = 9;
    p.map = sample_map();
    p.joins = {5, 7, 9};
    p.sources = {1, 2};
    p.dead = {7};
    p.spilled = {9};
    p.pool_free = {11, 12};
    p.reshuffle_round = 2;
    p.drain_epoch = 6;
    p.source_chunks_to = {{1, {{5, 3}, {7, 1}}}, {2, {{9, 4}}}};
    p.metrics.t_start = 0.5;
    p.metrics.t_build_end = 1.5;
    p.metrics.split_time = 0.125;
    p.metrics.initial_join_nodes = 3;
    p.metrics.expansions = 2;
    p.metrics.final_join_nodes = 5;
    p.metrics.pool_exhausted = true;
    p.metrics.source_build_chunks = 40;
    p.metrics.extra_build_chunks = 7;
    p.metrics.failures_detected = 1;
    p.metrics.detection_latency_total = 0.75;
    p.metrics.detection_latency_max = 0.75;
    p.metrics.join_failures = 1;
    p.metrics.recoveries = 1;
    p.metrics.recovery_time_total = 0.25;
    p.metrics.replayed_build_tuples = 99;
    p.metrics.build_tuples_total = 12345;
    add(make_message(Tag::kSchedulerSnapshot, p, 256), 0);
  }
  add(make_message(Tag::kSchedulerHandoff, SchedulerHandoffPayload{2, 5}, 48),
      8);
  {
    SchedulerHandoffAckPayload p;
    p.generation = 2;
    p.done_mask = 0x5;  // R done + R stream started
    p.build_tuples = 1000;
    p.probe_tuples = 500;
    p.build_chunks = 10;
    p.probe_chunks = 5;
    p.chunks_to = {{5, 7}, {6, 8}};
    add(make_message(Tag::kSchedulerHandoffAck, p, 64), 1);
  }
  return all;
}

/// {size, crc32} of each message_catalogue() entry, in catalogue order.
constexpr Pin kMessagePins[] = {
    {9, 0x35870932},  // kJoinInit
    {31, 0x4b96a60e},  // kStartBuild
    {3, 0x15cc1f04},  // kGenSlice
    {44, 0x5cbcbe35},  // kDataChunk
    {4, 0x1fee35c0},  // kForwardEnd
    {10, 0x9b40b49c},  // kMemoryFull
    {8, 0xb519d686},  // kSplitRequest
    {5, 0x666dddb7},  // kHandoffStart
    {6, 0x302fe226},  // kOpComplete
    {3, 0xfdf30c2e},  // kRelief
    {3, 0xfe77d840},  // kSwitchToSpill
    {30, 0x942f5e5d},  // kMapUpdate
    {13, 0xc10548bc},  // kSourceDone
    {5, 0x8e857b83},  // kSourceProgress
    {4, 0xf80751},  // kDrainProbe
    {14, 0xefe2188},  // kDrainAck
    {3, 0xaa86b010},  // kBuildComplete
    {31, 0x448e9ecc},  // kStartProbe
    {5, 0x2d4f8d2b},  // kHistogramRequest
    {17, 0x59e9a4de},  // kHistogramReply
    {15, 0x3dde5860},  // kReshuffleMove
    {4, 0x84fa6dfd},  // kReshuffleDone
    {3, 0x96468a42},  // kReportRequest
    {24, 0x93babfd2},  // kNodeReport
    {45, 0xc47a02b7},  // kResultChunk
    {3, 0x837ad056},  // kPing
    {3, 0x2c4b4b34},  // kPong
    {3, 0x8473788a},  // kHeartbeatTick
    {9, 0xa9bff57e},  // kRecoveryFence
    {13, 0xba66ea9c},  // kRangeReset
    {5, 0xfe609115},  // kRangeResetAck
    {10, 0xffd60116},  // kReplayRequest
    {11, 0x7d3722ea},  // kReplayDone
    {164, 0xde16a222},  // kSchedulerSnapshot
    {6, 0x9e36d9b9},  // kSchedulerHandoff
    {17, 0xa7c4d62e},  // kSchedulerHandoffAck
};

std::vector<std::uint8_t> encode_one(const Message& m) {
  Writer w;
  wire::encode_message(m, w);
  return w.take();
}

TEST(WireMessages, CatalogueCoversEveryTag) {
  // If a new Tag is added without a catalogue entry (and codec), this fails.
  std::vector<bool> seen(128, false);
  for (const Message& m : message_catalogue()) {
    EXPECT_TRUE(wire::known_tag(m.tag));
    EXPECT_EQ(wire::tag_has_payload(static_cast<Tag>(m.tag)), m.has_payload())
        << "tag " << m.tag;
    seen[static_cast<std::size_t>(m.tag)] = true;
  }
  for (int tag = 0; tag < 128; ++tag) {
    EXPECT_EQ(wire::known_tag(tag), seen[static_cast<std::size_t>(tag)])
        << "tag " << tag << " known/catalogued mismatch";
  }
}

TEST(WireMessages, RoundTripEveryMessage) {
  const std::vector<Message> catalogue = message_catalogue();
  ASSERT_EQ(catalogue.size(), std::size(kMessagePins));
  for (std::size_t i = 0; i < catalogue.size(); ++i) {
    const Message& original = catalogue[i];
    SCOPED_TRACE("tag " + std::to_string(original.tag));
    const std::vector<std::uint8_t> bytes = encode_one(original);
    EXPECT_TRUE(matches_pin(bytes, kMessagePins[i]));
    Reader r(bytes);
    Message decoded;
    ASSERT_TRUE(wire::decode_message(r, decoded));
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_EQ(decoded.tag, original.tag);
    EXPECT_EQ(decoded.from, original.from);
    EXPECT_EQ(decoded.wire_bytes, original.wire_bytes);
    EXPECT_EQ(decoded.has_payload(), original.has_payload());
    // Canonical-encoding equality doubles as deep payload equality.
    EXPECT_EQ(encode_one(decoded), bytes);
  }
}

TEST(WireMessages, SpotCheckDecodedFields) {
  // The byte-equality property above can't catch a codec that symmetrically
  // swaps two same-typed fields; pin a few semantically.
  ChunkPayload chunk{sample_chunk(RelTag::kS), true, 9};
  Message m = make_message(Tag::kDataChunk, chunk, 364);
  m.from = 17;
  const auto bytes = encode_one(m);
  Reader r(bytes);
  Message out;
  ASSERT_TRUE(wire::decode_message(r, out));
  const auto& p = out.as<ChunkPayload>();
  EXPECT_EQ(p.chunk.rel, RelTag::kS);
  ASSERT_EQ(p.chunk.size(), 3u);
  EXPECT_EQ(p.chunk.batch.id(0), 1u);
  EXPECT_EQ(p.chunk.batch.key(0), 100u);
  EXPECT_TRUE(p.forwarded);
  EXPECT_EQ(p.epoch, 9u);

  JoinInitPayload init{JoinRole::kReplica, PosRange{10, 500}, 3, 7};
  Message mi = make_message(Tag::kJoinInit, init, 64);
  mi.from = 0;
  const auto bytes_i = encode_one(mi);
  Reader ri(bytes_i);
  Message outi;
  ASSERT_TRUE(wire::decode_message(ri, outi));
  const auto& pi = outi.as<JoinInitPayload>();
  EXPECT_EQ(pi.role, JoinRole::kReplica);
  EXPECT_EQ(pi.range, (PosRange{10, 500}));
  EXPECT_EQ(pi.source_count, 3u);
  EXPECT_EQ(pi.op_id, 7u);
}

// --- batch codec (v2 columnar chunk bodies) ---

Message chunk_message(Chunk chunk) {
  ChunkPayload p;
  p.chunk = std::move(chunk);
  p.forwarded = false;
  p.epoch = 3;
  Message m = make_message(Tag::kDataChunk, p, 2000);
  m.from = 4;
  return m;
}

TEST(WireBatchCodec, LargeBatchRoundTripsAndRecomputesPositions) {
  std::mt19937_64 rng(0xBA7C4);
  for (const std::size_t rows : {1u, 2u, 255u, 256u, 4096u}) {
    Chunk chunk;
    chunk.rel = RelTag::kR;
    chunk.batch.reserve(rows);
    std::uint64_t last = 0;
    for (std::size_t i = 0; i < rows; ++i) {
      // Duplicate runs exercise varint patterns the uniform draw misses.
      const std::uint64_t key = (i % 5 == 0) ? last : rng();
      last = key;
      chunk.batch.append(rng(), key);
    }
    const Message original = chunk_message(chunk);
    const auto bytes = encode_one(original);
    Reader r(bytes);
    Message out;
    ASSERT_TRUE(wire::decode_message(r, out)) << rows << " rows";
    const auto& decoded = out.as<ChunkPayload>().chunk;
    ASSERT_EQ(decoded.size(), rows);
    // Column equality plus the position column, which the codec does not
    // ship but recomputes from the keys on decode.
    EXPECT_EQ(decoded.batch, chunk.batch);
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(decoded.batch.position(i), position_of(decoded.batch.key(i)));
    }
    // Canonical: re-encoding the decoded message reproduces the bytes.
    EXPECT_EQ(encode_one(out), bytes);
  }
}

TEST(WireBatchCodec, ExtremeColumnValuesSurvive) {
  // Every varint length boundary (0, 2^7k - 1 and 2^7k for k = 1..9, 2^63,
  // 2^64 - 1) plus two alternating bit patterns.  Both columns cycle
  // through all of them, in opposite orders, so rows mix lengths.
  std::vector<std::uint64_t> values = {0};
  for (int k = 1; k <= 9; ++k) {
    values.push_back((1ull << (7 * k)) - 1);
    values.push_back(1ull << (7 * k));
  }
  values.insert(values.end(), {1ull << 63, ~0ull, 0x8080808080808080ull,
                               0x7f7f7f7f7f7f7f7full});
  for (const std::size_t rows : {0u, 1u, 10'000u}) {
    Chunk chunk;
    chunk.rel = RelTag::kS;
    for (std::size_t i = 0; i < rows; ++i) {
      const std::size_t j = i % values.size();
      chunk.batch.append(values[j], values[values.size() - 1 - j]);
    }
    // The column encoders write exactly one varint per id and one 8-byte
    // little-endian word per key.
    Writer reference;
    reference.u8(static_cast<std::uint8_t>(chunk.rel));
    reference.varint(rows);
    for (std::size_t i = 0; i < rows; ++i) reference.varint(chunk.batch.id(i));
    for (std::size_t i = 0; i < rows; ++i) reference.u64(chunk.batch.key(i));
    const std::vector<std::uint8_t> body = wire::encode_body(chunk);
    EXPECT_EQ(body, reference.data()) << rows << " rows";
    Chunk back;
    ASSERT_TRUE(wire::decode_body(body, back)) << rows << " rows";
    EXPECT_EQ(back.batch, chunk.batch);

    const auto bytes = encode_one(chunk_message(chunk));
    Reader r(bytes);
    Message out;
    ASSERT_TRUE(wire::decode_message(r, out)) << rows << " rows";
    EXPECT_EQ(out.as<ChunkPayload>().chunk.batch, chunk.batch);
  }
}

TEST(WireBatchCodec, KeyColumnIsFixedWidth) {
  // The boundary keys each take exactly 8 bytes, least significant first,
  // behind the one-byte ids, and come back with their positions.
  const std::vector<std::uint64_t> keys = {0, 1, (1ull << 56) - 1, 1ull << 63,
                                           ~0ull};
  Chunk chunk;
  chunk.rel = RelTag::kR;
  for (std::size_t i = 0; i < keys.size(); ++i) chunk.batch.append(i, keys[i]);
  const std::vector<std::uint8_t> body = wire::encode_body(chunk);
  const std::size_t key_column = 2 + keys.size();  // rel, count, ids
  ASSERT_EQ(body.size(), key_column + 8 * keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    for (std::size_t b = 0; b < 8; ++b) {
      EXPECT_EQ(body[key_column + 8 * i + b],
                static_cast<std::uint8_t>(keys[i] >> (8 * b)))
          << "key " << i << ", byte " << b;
    }
  }
  Chunk back;
  ASSERT_TRUE(wire::decode_body(body, back));
  EXPECT_EQ(back.batch, chunk.batch);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(back.batch.position(i), position_of(keys[i]));
  }

  // Every truncation inside the key column is a clean false.
  for (std::size_t len = key_column; len < body.size(); ++len) {
    Chunk cut;
    EXPECT_FALSE(wire::decode_body({body.data(), len}, cut))
        << "a " << len << "-byte prefix decoded";
  }

  // A row count above remaining / 9 is refused before any column is
  // allocated: 16 bytes behind the count hold one row at 9 bytes a row,
  // not two.  Returns the verdict and the id column's capacity.
  const auto decodes = [](std::uint64_t count, std::size_t tail) {
    Writer w;
    w.u8(static_cast<std::uint8_t>(RelTag::kS));
    w.varint(count);
    for (std::size_t i = 0; i < tail; ++i) w.u8(0);
    Chunk out;
    const bool ok = wire::decode_body(w.data(), out);
    return std::pair{ok, out.batch.ids().capacity()};
  };
  EXPECT_EQ(decodes(2, 16), std::pair(false, std::size_t{0}));
  EXPECT_EQ(decodes(1ull << 40, 64), std::pair(false, std::size_t{0}));
  EXPECT_TRUE(decodes(2, 18).first);
}

TEST(WireBatchCodec, TruncationAndCorruptionAreTotal) {
  std::mt19937_64 rng(0xC0DEC);
  Chunk chunk;
  chunk.rel = RelTag::kR;
  for (std::size_t i = 0; i < 512; ++i) chunk.batch.append(rng(), rng());
  const auto bytes = encode_one(chunk_message(chunk));

  // Every truncation point: decode returns false or leaves a consistent
  // partial object; it never aborts or reads past the buffer (ASan in CI).
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    Reader r(bytes.data(), len);
    Message out;
    (void)wire::decode_message(r, out);
  }
  // A corrupt count varint must not allocate absurd column buffers.
  for (std::uint64_t flips = 0; flips < 2000; ++flips) {
    auto bad = bytes;
    bad[rng() % bad.size()] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
    Reader r(bad);
    Message out;
    (void)wire::decode_message(r, out);
  }
}

TEST(WireMessages, PartitionMapInvariantsEnforcedOnDecode) {
  // A map whose entries do not cover the position space must be a decode
  // error, not an abort inside PartitionMap::from_entries.
  StartBuildPayload p{sample_map()};
  Message m = make_message(Tag::kStartBuild, p, 128);
  m.from = 0;
  auto bytes = encode_one(m);
  // Corrupt every byte position in turn; decode must never crash and the
  // result must be false or a byte-identical re-encode (reserved bits).
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (std::uint8_t bit : {0x01, 0x80}) {
      auto bad = bytes;
      bad[i] ^= bit;
      Reader r(bad);
      Message out;
      (void)wire::decode_message(r, out);  // must simply not blow up
    }
  }
}

TEST(WireMessages, PositionHistogramInvariantsEnforcedOnDecode) {
  // Each body is lo, hi, n, then n (gap, count) pairs.  What push() would
  // abort on must be a decode error instead.
  const auto body = [](std::initializer_list<std::uint64_t> varints) {
    Writer w;
    for (std::uint64_t v : varints) w.varint(v);
    return w.take();
  };
  const auto decodes = [](const std::vector<std::uint8_t>& bytes) {
    PositionHistogram h;
    return wire::decode_body(bytes, h);
  };
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  // Well-formed: a default histogram, and a sum of exactly 2^64 - 1.
  EXPECT_TRUE(decodes(body({0, 0, 0})));
  EXPECT_TRUE(decodes(body({0, 10, 2, 0, kMax - 1, 8, 1})));
  // A cell at or past hi, including a gap that would wrap around.
  EXPECT_FALSE(decodes(body({10, 20, 1, 10, 1})));
  EXPECT_FALSE(decodes(body({10, 20, 2, 0, 1, 9, 1})));
  EXPECT_FALSE(decodes(body({10, 20, 1, kMax, 1})));
  // A zero count.
  EXPECT_FALSE(decodes(body({0, 10, 2, 0, 1, 0, 0})));
  // More cells than positions.
  EXPECT_FALSE(decodes(body({0, 2, 3, 0, 1, 0, 1, 0, 1})));
  // Counts summing past 2^64 - 1.
  EXPECT_FALSE(decodes(body({0, 10, 2, 0, kMax, 0, 1})));
  // hi <= lo, with or without cells.
  EXPECT_FALSE(decodes(body({10, 10, 1, 0, 1})));
  EXPECT_FALSE(decodes(body({10, 5, 1, 0, 1})));
  EXPECT_FALSE(decodes(body({10, 5, 0})));
}

TEST(WireMessages, UnknownTagRejected) {
  Writer w;
  w.zigzag(9999);  // no such tag
  w.zigzag(0);
  w.varint(48);
  Reader r(w.data());
  Message out;
  EXPECT_FALSE(wire::decode_message(r, out));
}

// --- config codec ---

EhjaConfig sample_config() {
  EhjaConfig c;
  c.algorithm = Algorithm::kAdaptive;
  c.initial_join_nodes = 3;
  c.join_pool_nodes = 9;
  c.data_sources = 2;
  c.build_rel.tuple_count = 12345;
  c.build_rel.schema = Schema{64};
  c.build_rel.dist = DistributionSpec::Zipf(1.1, 5000);
  c.probe_rel.tuple_count = 54321;
  c.probe_rel.schema = Schema{64};
  c.probe_rel.dist = DistributionSpec::SmallDomain(2048);
  c.seed = 0xabcdef;
  c.chunk_tuples = 500;
  c.generation_slice_tuples = 250;
  c.node_hash_memory_bytes = 4 * kMiB;
  c.split_variant = SplitVariant::kLinearPointer;
  c.link.fault_jitter_sec = 0.25;
  c.link.fault_drop_prob = 0.125;
  c.faults.kills.push_back(KillSpec{});
  c.faults.kills.back().pool_index = 1;
  c.faults.kills.back().after_chunks = 10;
  c.faults.kills.push_back(KillSpec{});
  c.faults.kills.back().role = KillRole::kSource;
  c.faults.kills.back().pool_index = 0;
  c.faults.kills.back().after_chunks = 3;
  c.ft.force_enabled = true;
  c.ft.heartbeat_interval_sec = 0.025;
  c.ft.heartbeat_timeout_sec = 0.1;
  c.ft.detector = DetectorKind::kPhiAccrual;
  c.ft.phi_threshold = 6.0;
  c.ft.standby_scheduler = true;
  // v6 pipeline fields: a materialized build side (rows ride in the config
  // frame) plus output capture.
  c.capture_output = true;
  c.pipeline_stage = 2;
  auto data = std::make_shared<MaterializedRelation>();
  data->source_checksum = 0x1122334455667788ull;
  data->rows.reserve(c.build_rel.tuple_count);
  for (std::uint64_t i = 0; i < c.build_rel.tuple_count; ++i) {
    data->rows.push_back(Tuple{i * 3 + 1, ~i});
  }
  c.build_rel.data = std::move(data);
  return c;
}

std::vector<std::uint8_t> config_bytes(const EhjaConfig& config) {
  Writer w;
  wire::encode_config(config, w);
  return w.take();
}

constexpr Pin kSampleConfigPin = {130601, 0x77a38c62};
constexpr Pin kDefaultConfigPin = {285, 0xea46d4d};

TEST(WireConfig, RoundTripReencodesIdentically) {
  const EhjaConfig original = sample_config();
  const auto bytes = config_bytes(original);
  EXPECT_TRUE(matches_pin(bytes, kSampleConfigPin));

  Reader r(bytes);
  EhjaConfig decoded;
  ASSERT_TRUE(wire::decode_config(r, decoded));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(decoded.trace, nullptr);  // trace sink never crosses processes
  EXPECT_EQ(config_bytes(decoded), bytes);

  // Spot-check fields the run actually branches on.
  EXPECT_EQ(decoded.algorithm, Algorithm::kAdaptive);
  EXPECT_EQ(decoded.seed, 0xabcdefu);
  EXPECT_EQ(decoded.build_rel.tuple_count, 12345u);
  ASSERT_EQ(decoded.faults.kills.size(), 2u);
  EXPECT_EQ(decoded.faults.kills[0].role, KillRole::kJoin);
  EXPECT_EQ(decoded.faults.kills[0].after_chunks, 10u);
  EXPECT_EQ(decoded.faults.kills[1].role, KillRole::kSource);
  EXPECT_EQ(decoded.faults.kills[1].after_chunks, 3u);
  EXPECT_EQ(decoded.ft.heartbeat_timeout_sec, 0.1);
  EXPECT_EQ(decoded.ft.detector, DetectorKind::kPhiAccrual);
  EXPECT_EQ(decoded.ft.phi_threshold, 6.0);
  EXPECT_TRUE(decoded.ft.standby_scheduler);
  EXPECT_TRUE(decoded.recovery_enabled());
  EXPECT_TRUE(decoded.capture_output);
  EXPECT_EQ(decoded.pipeline_stage, 2u);
  ASSERT_TRUE(decoded.build_rel.data != nullptr);
  EXPECT_EQ(decoded.build_rel.data->source_checksum, 0x1122334455667788ull);
  EXPECT_EQ(decoded.build_rel.data->rows, original.build_rel.data->rows);
  EXPECT_EQ(decoded.probe_rel.data, nullptr);

  // The default config, which most runs ship.
  const auto defaults = config_bytes(EhjaConfig{});
  EXPECT_TRUE(matches_pin(defaults, kDefaultConfigPin));
  Reader rd(defaults);
  EhjaConfig back;
  ASSERT_TRUE(wire::decode_config(rd, back));
  EXPECT_EQ(rd.remaining(), 0u);
  EXPECT_EQ(config_bytes(back), defaults);
}

// Every prefix of the sample config's encoding, dealt round-robin over the
// shards by length, so that each shard stays inside the per-test timeout
// under the sanitizers.
constexpr std::size_t kTruncationShards = 8;

class WireConfigTruncation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WireConfigTruncation, NeverCrashes) {
  const auto bytes = config_bytes(sample_config());
  for (std::size_t len = GetParam(); len < bytes.size();
       len += kTruncationShards) {
    Reader r(bytes.data(), len);
    EhjaConfig out;
    (void)wire::decode_config(r, out);  // false or partial -- never UB
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, WireConfigTruncation,
                         ::testing::Range<std::size_t>(0, kTruncationShards));

// --- frame bodies: serve payloads and fleet control frames ---
//
// The client protocol crosses a trust boundary, so each payload gets the
// message catalogue's treatment -- canonical round trip and pinned bytes --
// and, because decode_body demands the whole frame body, a clean false at
// every truncation and on a trailing byte.  The socket runtime's control
// frames go through the same two functions and get the same checks.

struct BodyCase {
  std::string name;
  std::vector<std::uint8_t> bytes;
  Pin pin;
  /// Decodes [data, data + size) and re-encodes the result; nullopt when
  /// the decoder rejects the input.
  std::function<std::optional<std::vector<std::uint8_t>>(
      const std::uint8_t* data, std::size_t size)>
      reencode;
};

template <typename T>
BodyCase body_case(std::string name, const T& payload, Pin pin) {
  auto reencode = [](const std::uint8_t* data, std::size_t size)
      -> std::optional<std::vector<std::uint8_t>> {
    T decoded{};
    if (!wire::decode_body({data, size}, decoded)) return std::nullopt;
    return wire::encode_body(decoded);
  };
  return {std::move(name), wire::encode_body(payload), pin, reencode};
}

void expect_round_trips(const std::vector<BodyCase>& cases) {
  for (const BodyCase& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_TRUE(matches_pin(c.bytes, c.pin));
    const auto again = c.reencode(c.bytes.data(), c.bytes.size());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, c.bytes);
  }
}

void expect_truncated_and_padded_rejected(const std::vector<BodyCase>& cases) {
  for (const BodyCase& c : cases) {
    SCOPED_TRACE(c.name);
    for (std::size_t len = 0; len < c.bytes.size(); ++len) {
      EXPECT_FALSE(c.reencode(c.bytes.data(), len).has_value())
          << "a " << len << "-byte prefix decoded";
    }
    std::vector<std::uint8_t> padded = c.bytes;
    padded.push_back(0);
    EXPECT_FALSE(c.reencode(padded.data(), padded.size()).has_value());
  }
}

/// A client-submitted query: small and without materialized rows, like
/// the ones ehja_client sends.
EhjaConfig submitted_config() {
  EhjaConfig c;
  c.data_sources = 1;
  c.initial_join_nodes = 1;
  c.join_pool_nodes = 2;
  c.build_rel.tuple_count = 8'000;
  c.probe_rel.tuple_count = 8'000;
  c.probe_rel.dist = DistributionSpec::SmallDomain(4096);
  c.seed = 77;
  return c;
}

std::vector<BodyCase> serve_catalogue() {
  using namespace serve;
  std::vector<BodyCase> all;
  all.push_back(body_case("ClientHello", ClientHelloPayload{"alpha"},
                           {6, 0xf7cdfe67}));
  all.push_back(body_case("ServerHello",
                           ServerHelloPayload{true, true, "draining"},
                           {11, 0x3298c3c7}));
  all.push_back(body_case("SubmitQuery",
                           SubmitQueryPayload{42, submitted_config()},
                           {281, 0xc7ad7f59}));
  all.push_back(body_case("QueryAccepted", QueryAcceptedPayload{42, 7, 3},
                           {3, 0x1cd3dd59}));
  all.push_back(body_case(
      "QueryRejected",
      QueryRejectedPayload{43, RejectCode::kNoHello, 250, "submit first"},
      {17, 0x9d5fdea}));
  all.push_back(body_case("QueryResult",
                           QueryResultPayload{7, 1234, 0xfeedfacecafebeefull,
                                              8000, 8000, 2, 0.125, 0.5},
                           {32, 0xba044d22}));
  all.push_back(body_case("QueryStatusReq", QueryStatusReqPayload{7},
                           {1, 0x4c667a2e}));
  all.push_back(body_case("QueryStatus",
                           QueryStatusPayload{7, QueryState::kCancelled, 4},
                           {3, 0xd64e584d}));
  all.push_back(body_case("CancelQuery", CancelQueryPayload{7},
                           {1, 0x4c667a2e}));
  all.push_back(body_case("ShutdownNotice", ShutdownNoticePayload{"bye"},
                           {4, 0xbb8738d4}));
  return all;
}

TEST(ServeWire, RoundTripEveryPayload) {
  expect_round_trips(serve_catalogue());
}

TEST(ServeWire, TruncatedOrPaddedBodiesAreRejected) {
  expect_truncated_and_padded_rejected(serve_catalogue());
}

/// One body per fleet control frame (RETIRE and NODE_DEAD carry a bare
/// id).  The pins were recorded from the hand-written Writer encoders these
/// field lists replaced.
std::vector<BodyCase> control_catalogue() {
  EhjaConfig config;
  config.seed = 7;
  std::vector<BodyCase> all;
  all.push_back(body_case("Hello", wire::HelloFrame{3, 40000, 1},
                          {5, 0xb1531107}));
  all.push_back(body_case("PeerHello", wire::HelloFrame{5, 0, 1},
                          {3, 0x85d16c52}));
  all.push_back(body_case(
      "Peers", std::vector<wire::PeerEntry>{{1, 40001}, {3, 40003}},
      {9, 0x18795f4b}));
  all.push_back(body_case(
      "Spawn",
      wire::SpawnFrame{17, RemoteSpawnSpec::Kind::kDataSource, 1, 0, 4},
      {5, 0xc3304232}));
  all.push_back(body_case("Announce", wire::AnnounceFrame{17, 2},
                          {2, 0xe10690c6}));
  all.push_back(body_case("Retire", ActorId{17}, {1, 0x0762ae69}));
  all.push_back(body_case("NodeDead", NodeId{2}, {1, 0xd56f2b94}));
  all.push_back(body_case("QueryConfig", wire::QueryConfigFrame{4, config},
                          {286, 0xcc529472}));
  return all;
}

TEST(WireControlFrames, RoundTripEveryFrame) {
  expect_round_trips(control_catalogue());
}

TEST(WireControlFrames, TruncatedOrPaddedBodiesAreRejected) {
  expect_truncated_and_padded_rejected(control_catalogue());
}

TEST(WireControlFrames, SpawnKindAboveDataSourceIsRejected) {
  std::vector<std::uint8_t> body = wire::encode_body(
      wire::SpawnFrame{17, RemoteSpawnSpec::Kind::kDataSource, 1, 0, 4});
  body[1] = 2;  // the kind byte, one past kDataSource
  wire::SpawnFrame spawn;
  EXPECT_FALSE(wire::decode_body(body, spawn));
}

// A u32 field must reject a varint above 2^32 - 1 rather than truncate it
// (2^32 + 5 would decode as 5).  Each body is written by hand so that the
// out-of-range value reaches the decoder.

constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kU32Overflow = (1ull << 32) + 5;

template <typename T>
std::optional<T> decode_body(const Writer& w) {
  T out;
  if (!wire::decode_body(w.data(), out)) return std::nullopt;
  return out;
}

TEST(ServeWire, AcceptedQueuePositionRejectsU32Overflow) {
  auto decode = [](std::uint64_t queue_position) {
    Writer w;
    w.varint(42);  // client_seq
    w.varint(7);   // query_id
    w.varint(queue_position);
    return decode_body<serve::QueryAcceptedPayload>(w);
  };
  ASSERT_TRUE(decode(kU32Max).has_value());
  EXPECT_EQ(decode(kU32Max)->queue_position, kU32Max);
  EXPECT_FALSE(decode(kU32Overflow).has_value());
}

TEST(ServeWire, RejectedRetryAfterRejectsU32Overflow) {
  auto decode = [](std::uint64_t retry_after_ms) {
    Writer w;
    w.varint(43);  // client_seq
    w.u8(static_cast<std::uint8_t>(serve::RejectCode::kQueueFull));
    w.varint(retry_after_ms);
    w.varint(0);  // empty message
    return decode_body<serve::QueryRejectedPayload>(w);
  };
  ASSERT_TRUE(decode(kU32Max).has_value());
  EXPECT_EQ(decode(kU32Max)->retry_after_ms, kU32Max);
  EXPECT_FALSE(decode(kU32Overflow).has_value());
}

TEST(ServeWire, ResultExpansionsRejectsU32Overflow) {
  auto decode = [](std::uint64_t expansions) {
    Writer w;
    w.varint(7);        // query_id
    w.varint(1234);     // matches
    w.u64(0xfeedface);  // checksum
    w.varint(8000);     // build_tuples
    w.varint(8000);     // probe_tuples
    w.varint(expansions);
    w.f64(0.125);  // queue_sec
    w.f64(0.5);    // run_sec
    return decode_body<serve::QueryResultPayload>(w);
  };
  ASSERT_TRUE(decode(kU32Max).has_value());
  EXPECT_EQ(decode(kU32Max)->expansions, kU32Max);
  EXPECT_FALSE(decode(kU32Overflow).has_value());
}

TEST(ServeWire, StatusQueuePositionRejectsU32Overflow) {
  auto decode = [](std::uint64_t queue_position) {
    Writer w;
    w.varint(7);  // query_id
    w.u8(static_cast<std::uint8_t>(serve::QueryState::kQueued));
    w.varint(queue_position);
    return decode_body<serve::QueryStatusPayload>(w);
  };
  ASSERT_TRUE(decode(kU32Max).has_value());
  EXPECT_EQ(decode(kU32Max)->queue_position, kU32Max);
  EXPECT_FALSE(decode(kU32Overflow).has_value());
}

// --- frame layer ---

TEST(WireFrames, RoundTripAndIncrementalFeed) {
  Writer w;
  w.varint(1234);
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, wire::FrameKind::kSpawn, w.data());

  // Whole-buffer parse.
  std::size_t consumed = 0;
  wire::Frame f;
  ASSERT_EQ(wire::try_parse_frame(stream.data(), stream.size(), consumed, f),
            wire::FrameStatus::kFrame);
  EXPECT_EQ(consumed, stream.size());
  EXPECT_EQ(f.kind, wire::FrameKind::kSpawn);
  EXPECT_EQ(f.body, w.data());

  // Byte-at-a-time: kNeedMore until the last byte arrives.
  for (std::size_t len = 0; len + 1 < stream.size(); ++len) {
    EXPECT_EQ(wire::try_parse_frame(stream.data(), len, consumed, f),
              wire::FrameStatus::kNeedMore);
  }
}

TEST(WireFrames, BackToBackFramesParseInOrder) {
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, wire::FrameKind::kReady, {});
  Writer w;
  w.zigzag(-5);
  wire::append_frame(stream, wire::FrameKind::kAnnounce, w.data());

  std::size_t consumed = 0;
  wire::Frame f;
  ASSERT_EQ(wire::try_parse_frame(stream.data(), stream.size(), consumed, f),
            wire::FrameStatus::kFrame);
  EXPECT_EQ(f.kind, wire::FrameKind::kReady);
  const std::size_t first = consumed;
  ASSERT_EQ(wire::try_parse_frame(stream.data() + first,
                                  stream.size() - first, consumed, f),
            wire::FrameStatus::kFrame);
  EXPECT_EQ(f.kind, wire::FrameKind::kAnnounce);
  EXPECT_EQ(first + consumed, stream.size());
}

TEST(WireFrames, CorruptionIsDetected) {
  Writer w;
  for (int i = 0; i < 64; ++i) w.varint(static_cast<std::uint64_t>(i) * 7);
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, wire::FrameKind::kActorMsg, w.data());

  std::size_t consumed = 0;
  wire::Frame f;
  std::string err;

  {  // bad magic
    auto bad = stream;
    bad[0] ^= 0xff;
    EXPECT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError);
  }
  {  // bad version
    auto bad = stream;
    bad[4] ^= 0xff;
    EXPECT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError);
  }
  {  // bad kind
    auto bad = stream;
    bad[5] = 0xee;
    EXPECT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError);
  }
  {  // absurd length must error before any allocation happens
    auto bad = stream;
    bad[8] = 0xff;
    bad[9] = 0xff;
    bad[10] = 0xff;
    bad[11] = 0x7f;
    EXPECT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError);
  }
  // Any bit flip in the body is caught by the CRC.
  for (std::size_t i = wire::kFrameHeaderBytes; i < stream.size(); ++i) {
    auto bad = stream;
    bad[i] ^= 0x10;
    EXPECT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError)
        << "body flip at offset " << i << " escaped the CRC";
  }
}

// --- forward compatibility ---
//
// A frame from a *newer* build (higher wire version, or a FrameKind this
// build has never heard of) must be a clean, described decode error -- the
// serve layer turns it into a kQueryRejected farewell -- never an abort.
// The header is not covered by the CRC, so these edits isolate exactly the
// version/kind checks.

TEST(WireFrames, NewerVersionIsDescribedDecodeError) {
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, wire::FrameKind::kReady, {});
  std::size_t consumed = 0;
  wire::Frame f;
  std::string err;

  {  // one version ahead: "newer", so the peer can say so in its reject
    auto bad = stream;
    bad[4] = wire::kWireVersion + 1;
    ASSERT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError);
    EXPECT_NE(err.find("newer"), std::string::npos) << err;
  }
  {  // one version behind: a plain mismatch, not "newer"
    ASSERT_GE(wire::kWireVersion, 2);
    auto bad = stream;
    bad[4] = wire::kWireVersion - 1;
    err.clear();
    ASSERT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError);
    EXPECT_EQ(err.find("newer"), std::string::npos) << err;
    EXPECT_NE(err.find("mismatch"), std::string::npos) << err;
  }
}

TEST(WireFrames, UnknownFutureFrameKindIsDecodeError) {
  std::vector<std::uint8_t> stream;
  wire::append_frame(stream, wire::FrameKind::kReady, {});
  std::size_t consumed = 0;
  wire::Frame f;
  std::string err;
  for (const std::uint8_t kind :
       {static_cast<std::uint8_t>(wire::kMaxFrameKind + 1),
        static_cast<std::uint8_t>(200)}) {
    auto bad = stream;
    bad[5] = kind;
    EXPECT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError)
        << "future kind " << int(kind) << " parsed";
  }
  // Every kind this build *does* define still parses (0 is below kHello).
  {
    auto bad = stream;
    bad[5] = 0;
    EXPECT_EQ(wire::try_parse_frame(bad.data(), bad.size(), consumed, f, &err),
              wire::FrameStatus::kError);
  }
  for (std::uint8_t kind = 1; kind <= wire::kMaxFrameKind; ++kind) {
    auto ok = stream;
    ok[5] = kind;
    EXPECT_EQ(wire::try_parse_frame(ok.data(), ok.size(), consumed, f, &err),
              wire::FrameStatus::kFrame)
        << "known kind " << int(kind) << " rejected";
  }
}

// --- fuzz loop ---
//
// Deterministic seed so failures reproduce.  The assertion is the totality
// contract itself: whatever bytes arrive, decoders return instead of
// crashing; ASan (CI) turns any out-of-bounds read into a hard failure.

TEST(WireFuzz, MutatedMessagesNeverMisbehave) {
  std::mt19937_64 rng(0xEA51DE);
  const std::vector<Message> catalogue = message_catalogue();
  std::vector<std::vector<std::uint8_t>> seeds;
  seeds.reserve(catalogue.size());
  for (const Message& m : catalogue) seeds.push_back(encode_one(m));

  for (int iter = 0; iter < 4000; ++iter) {
    auto bytes = seeds[rng() % seeds.size()];
    switch (rng() % 3) {
      case 0:  // truncate
        bytes.resize(rng() % (bytes.size() + 1));
        break;
      case 1:  // flip 1-4 bits
        for (std::uint64_t flips = 1 + rng() % 4; flips > 0 && !bytes.empty();
             --flips) {
          bytes[rng() % bytes.size()] ^= static_cast<std::uint8_t>(
              1u << (rng() % 8));
        }
        break;
      default:  // garbage tail
        for (std::uint64_t extra = rng() % 16; extra > 0; --extra) {
          bytes.push_back(static_cast<std::uint8_t>(rng()));
        }
        break;
    }
    Reader r(bytes);
    Message out;
    (void)wire::decode_message(r, out);
  }
}

TEST(WireFuzz, MutatedFramesNeverMisbehave) {
  std::mt19937_64 rng(0xF4A3E5);
  Writer w;
  for (int i = 0; i < 200; ++i) w.varint(rng());
  std::vector<std::uint8_t> frame;
  wire::append_frame(frame, wire::FrameKind::kActorMsg, w.data());

  for (int iter = 0; iter < 4000; ++iter) {
    auto bytes = frame;
    if (rng() % 2 == 0) {
      bytes.resize(rng() % (bytes.size() + 1));
    } else {
      for (std::uint64_t flips = 1 + rng() % 8; flips > 0; --flips) {
        bytes[rng() % bytes.size()] ^= static_cast<std::uint8_t>(1u
                                                                 << (rng() % 8));
      }
    }
    std::size_t consumed = 0;
    wire::Frame f;
    (void)wire::try_parse_frame(bytes.data(), bytes.size(), consumed, f);
  }

  // Pure noise, incrementally grown, as a cold TCP buffer would look.
  std::vector<std::uint8_t> noise;
  for (int i = 0; i < 2000; ++i) {
    noise.push_back(static_cast<std::uint8_t>(rng()));
    std::size_t consumed = 0;
    wire::Frame f;
    (void)wire::try_parse_frame(noise.data(), noise.size(), consumed, f);
  }
}

}  // namespace
}  // namespace ehja
