// Versioned binary wire format for the socket runtime.
//
// Everything that crosses a process boundary in the socket runtime goes
// through this module: the actor messages of core/messages.hpp (including
// the recovery/epoch/fence vocabulary), the EhjaConfig handed to workers in
// the connection handshake, and the control frames of the runtime itself
// (hello/peers/spawn/announce/query-config/retire/node-dead), each a field
// list below next to FrameKind.
//
// Layering:
//   * Primitives -- explicit little-endian fixed-width integers, LEB128
//     varints, zigzag-folded signed varints, bit-cast doubles, and two
//     column calls: varints() and u64s() move a whole column of u64s in one
//     call (u64s is one memcpy on a little-endian host).  Nothing is ever
//     written through a struct overlay, so the format is independent of
//     host endianness and padding.
//   * Archives -- Enc (over a Writer) and Dec (over a Reader) walk a
//     struct's field list.  Each plain wire struct has exactly one,
//
//       template <typename A> bool fields(A& a, T& v) { return a(v.x, v.y); }
//
//     in wire order, declared in ehja::wire (or ehja::serve) so that the
//     archives find it by argument-dependent lookup.  Both directions walk
//     the same list, so encode and decode cannot drift.  The field's C++
//     type picks its encoding:
//
//       u64, size_t        varint
//       u32                varint, range-checked on decode
//       int32 (ActorId)    zigzag varint, range-checked on decode
//       bool               one byte, strictly 0 or 1
//       enum               one byte, at most wire_max(E)
//       double             8 bytes, bit-cast
//       fixed64(x)         8 bytes: checksums and seeds (random bits)
//       bounded8(x, max)   one byte, at most max.  A bare uint8_t field does
//                          not compile: it would silently widen to int32.
//       string             varint length + bytes, at most kMaxWireString
//       vector, map        varint count + items, the count checked against
//                          the remaining bytes before anything is
//                          allocated; map keys strictly increasing
//       optional           presence bool, then the value
//       struct             its own field list
//
//     Four layouts are more than a field list and keep a hand-written
//     Enc::put / Dec::get pair in wire.cpp: Chunk, PartitionMap (decode
//     re-validates the invariants its constructor would abort on),
//     PositionHistogram (delta-coded sparse cells; decode re-validates what
//     push() would abort on), and RelationSpec (decode enforces
//     tuple_bytes >= 16, and materialized rows ship behind a presence flag
//     in the Chunk's column layout).
//
//     A Chunk body is columnar: relation tag, row count (varint), the ids
//     column as one varint per row, then the keys column as one 8-byte
//     little-endian word per row.  Keys are fixed-width because
//     position_of() reads a key's top bits, so every key that spreads over
//     the position space spreads over all 64 bits and would take 9-10
//     varint bytes; row ids are small and stay varints.  Decode checks the
//     row count against the remaining bytes at 9 per row before it
//     allocates and fills the TupleBatch's two columns in place; a row's
//     position is its key's top bits, so positions never ship.
//   * Frame bodies -- encode_body/decode_body turn one value (a control
//     frame, a serve payload, an EhjaConfig) into a whole frame body and
//     back; decode_body rejects a body with a byte missing or left over.
//   * Message codec -- encode_message/decode_message carry (tag, from,
//     wire_bytes, payload), reconstructing the exact std::any payload type
//     that Message::as<T>() expects from the one Tag -> payload-type switch
//     in wire.cpp.
//   * Frame layer -- a 16-byte header (magic, version, kind, length) plus a
//     CRC-32 over the body (zlib's crc32_z).  A sender builds a frame in
//     place: begin_frame() reserves the header at the end of its output
//     buffer, the body is encoded straight behind it, and end_frame() fills
//     in the length and the CRC over the body where it lies.
//     try_parse_frame() consumes a byte stream incrementally, so a TCP
//     receive buffer can be fed as-is; its FrameView form checks a frame
//     inside that buffer and points at the body instead of copying it.
//
// Robustness contract: decoding is total.  Truncated, bit-flipped or
// adversarial input makes decode functions return false (or
// FrameStatus::kError) -- never undefined behaviour, never an unbounded
// allocation, never an EHJA_CHECK abort.  Every length read from the wire is
// validated against the bytes actually remaining before anything is
// allocated.  tests/test_wire.cpp fuzzes exactly this contract under ASan,
// and pins the bytes of every message, config and serve payload.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/config.hpp"
#include "core/messages.hpp"
#include "net/wire_format.hpp"
#include "runtime/actor.hpp"
#include "runtime/message.hpp"

namespace ehja::wire {

/// Wire protocol version; bumped on any incompatible layout change.  A
/// version mismatch is a decode error (mixed-build clusters must fail the
/// handshake, not misinterpret frames).  v2: chunk bodies switched from
/// row-interleaved to columnar encoding (ids column, then keys column).
/// v3: scheduler-failover vocabulary (snapshot/handoff/ack), incarnation
/// epochs on kStartBuild/kStartProbe, kill-spec roles and detector fields
/// in the config handshake.
/// v4: serving layer -- phi_window in the config handshake, client-facing
/// frame kinds (submit/accept/reject/result/status/cancel), per-query
/// config shipping (kQueryConfig) and actor retirement (kRetire) on the
/// fleet links.
/// v5: intra-node parallelism knobs (intra_threads, intra_mode) in the
/// config handshake.
/// v6: materialized pipelines -- stage-tagged configs (pipeline_stage,
/// capture_output), relation specs optionally carrying concrete rows
/// (columnar, checksum-stamped) so a stage's captured output ships to
/// workers inside the config frame, and the kResultChunk message streaming
/// captured output rows back to the scheduler.
/// v7: intra_mode leaves the config handshake (intra-node lanes share one
/// table; there is no build discipline left to choose).
/// v8: the reshuffle histogram ships sparse -- lo, hi, a cell count, then
/// one delta-coded (gap, count) pair per occupied position -- and its bin
/// count leaves both the config handshake and the histogram request.
/// v9: the source progress cadence leaves the config handshake.
/// v10: key columns (chunks and materialized relation rows) ship as 8-byte
/// little-endian words instead of varints.
inline constexpr std::uint8_t kWireVersion = 10;

/// CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) over `size` bytes: zlib's
/// crc32_z, with its initial value 0 and final xor.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

// --- primitives ---

class Writer {
 public:
  Writer() = default;
  /// Append to `buf` (a link's output buffer, say) instead of a fresh
  /// vector; take() hands it back.
  explicit Writer(std::vector<std::uint8_t>&& buf) : buf_(std::move(buf)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// LEB128 unsigned varint (1..10 bytes).
  void varint(std::uint64_t v);
  /// One varint per value, back to back, written through a pointer into
  /// the buffer grown once for the whole column.
  void varints(std::span<const std::uint64_t> column);
  /// One 8-byte little-endian word per value, back to back.
  void u64s(std::span<const std::uint64_t> column);
  /// Zigzag-folded signed varint (small magnitudes stay small).
  void zigzag(std::int64_t v);
  /// IEEE-754 double, bit-cast and stored little-endian.
  void f64(double v);
  void bytes(const std::uint8_t* data, std::size_t size);

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader with a latched failure flag: every accessor
/// returns a zero value once the stream has under-run or a varint was
/// malformed, and ok() reports the verdict.  Callers check ok() at structure
/// boundaries (and *must* check it before trusting any length/count).
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit Reader(const std::vector<std::uint8_t>& buf)
      : Reader(buf.data(), buf.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::uint64_t varint();
  /// The column calls: fill `column` with that many varints, or 8-byte
  /// little-endian words.  Past a failure the rest of the column is zero.
  void varints(std::span<std::uint64_t> column);
  void u64s(std::span<std::uint64_t> column);
  std::int64_t zigzag();
  double f64();

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }
  /// Mark the stream corrupt (decoders call this on semantic violations).
  void fail() { ok_ = false; }

  /// True when `count` items of at least `min_item_bytes` each could still
  /// be present; otherwise latches failure.  Guards every vector/map
  /// allocation against a corrupt length demanding gigabytes.
  bool can_hold(std::uint64_t count, std::size_t min_item_bytes);

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- archives ---

/// Longest string the archives carry: encode truncates to it, and decode
/// rejects a longer length.
inline constexpr std::size_t kMaxWireString = 64 * 1024;

/// Field-list wrapper: a u64 stored as 8 fixed bytes.
struct Fixed64 {
  std::uint64_t& v;
};
inline Fixed64 fixed64(std::uint64_t& v) { return {v}; }

/// Field-list wrapper: one byte whose decoded value must not exceed `max`.
struct Bounded8 {
  std::uint8_t& v;
  std::uint8_t max;
};
inline Bounded8 bounded8(std::uint8_t& v, std::uint8_t max) {
  return {v, max};
}

/// Largest discriminant of each enum on the wire (one byte each); Dec
/// rejects anything above it.  serve/serve_wire.hpp declares its own.
constexpr JoinRole wire_max(JoinRole) { return JoinRole::kReplica; }
constexpr RelTag wire_max(RelTag) { return RelTag::kS; }
constexpr DistKind wire_max(DistKind) { return DistKind::kSmallDomain; }
constexpr Topology wire_max(Topology) { return Topology::kSharedBus; }
constexpr KillRole wire_max(KillRole) { return KillRole::kScheduler; }
constexpr Algorithm wire_max(Algorithm) { return Algorithm::kAdaptive; }
constexpr NodePickPolicy wire_max(NodePickPolicy) {
  return NodePickPolicy::kFirstAvailable;
}
constexpr SplitVariant wire_max(SplitVariant) {
  return SplitVariant::kLinearPointer;
}
constexpr DetectorKind wire_max(DetectorKind) {
  return DetectorKind::kPhiAccrual;
}
constexpr RemoteSpawnSpec::Kind wire_max(RemoteSpawnSpec::Kind) {
  return RemoteSpawnSpec::Kind::kDataSource;
}

/// Fewest bytes one vector element of type T encodes to; Dec checks a
/// decoded count against the remaining bytes at this size before it
/// allocates.
template <typename T>
inline constexpr std::size_t kMinWireBytes = 1;
template <>
inline constexpr std::size_t kMinWireBytes<PosRange> = 2;
template <>
inline constexpr std::size_t kMinWireBytes<PartitionMap::Entry> = 4;
template <>
inline constexpr std::size_t kMinWireBytes<KillSpec> = 11;

/// Encoding archive: appends fields to a Writer.
class Enc {
 public:
  explicit Enc(Writer& w) : w_(w) {}

  /// Append each field in order.  Always true, so that a field list returns
  /// the archive's verdict in either direction.
  template <typename... Fs>
  bool operator()(const Fs&... fs) {
    (put(fs), ...);
    return true;
  }

 private:
  void put(bool v) { w_.u8(v ? 1 : 0); }
  void put(std::int32_t v) { w_.zigzag(v); }
  template <std::unsigned_integral T>
  void put(T v) {
    static_assert(sizeof(T) >= 4, "wrap a one-byte field in bounded8()");
    w_.varint(v);
  }
  void put(double v) { w_.f64(v); }
  template <typename E>
    requires std::is_enum_v<E>
  void put(E v) {
    w_.u8(static_cast<std::uint8_t>(v));
  }
  void put(Fixed64 f) { w_.u64(f.v); }
  void put(Bounded8 f) { w_.u8(f.v); }
  void put(const std::string& s);
  template <typename T>
  void put(const std::vector<T>& v) {
    w_.varint(v.size());
    for (const T& x : v) put(x);
  }
  template <typename K, typename V>
  void put(const std::map<K, V>& m) {
    w_.varint(m.size());
    for (const auto& [key, value] : m) {
      put(key);
      put(value);
    }
  }
  template <typename T>
  void put(const std::optional<T>& o) {
    put(o.has_value());
    if (o) put(*o);
  }
  // The hand-written layouts, and EhjaConfig, whose field list compiles
  // once in wire.cpp although serve payloads nest it.
  void put(const Chunk& v);
  void put(const PartitionMap& v);
  void put(const PositionHistogram& v);
  void put(const RelationSpec& v);
  void put(const EhjaConfig& v);
  template <typename T>
    requires std::is_class_v<T>
  void put(const T& v) {
    // fields() takes T& so that one list serves both archives; Enc only
    // reads through it.
    fields(*this, const_cast<T&>(v));
  }

  Writer& w_;
};

/// Decoding archive: reads fields from a Reader, validating each one.
class Dec {
 public:
  explicit Dec(Reader& r) : r_(r) {}

  /// Read each field in order; false, with the reader failed, at the first
  /// truncated or invalid one.
  template <typename... Fs>
  bool operator()(Fs&&... fs) {
    return (get(fs) && ...);
  }

 private:
  bool get(bool& v) {
    const std::uint8_t b = r_.u8();
    if (b > 1) r_.fail();  // a flipped bit is an error, not a coercion
    v = b == 1;
    return r_.ok();
  }
  bool get(std::int32_t& v) {
    const std::int64_t x = r_.zigzag();
    if (x < std::numeric_limits<std::int32_t>::min() ||
        x > std::numeric_limits<std::int32_t>::max()) {
      r_.fail();
    }
    v = static_cast<std::int32_t>(x);
    return r_.ok();
  }
  template <std::unsigned_integral T>
  bool get(T& v) {
    static_assert(sizeof(T) >= 4, "wrap a one-byte field in bounded8()");
    const std::uint64_t x = r_.varint();
    if (x > std::numeric_limits<T>::max()) r_.fail();
    v = static_cast<T>(x);
    return r_.ok();
  }
  bool get(double& v) {
    v = r_.f64();
    return r_.ok();
  }
  template <typename E>
    requires std::is_enum_v<E>
  bool get(E& v) {
    const std::uint8_t x = r_.u8();
    if (x > static_cast<std::uint8_t>(wire_max(E{}))) r_.fail();
    v = static_cast<E>(x);
    return r_.ok();
  }
  bool get(Fixed64 f) {
    f.v = r_.u64();
    return r_.ok();
  }
  bool get(Bounded8 f) {
    const std::uint8_t x = r_.u8();
    if (x > f.max) r_.fail();
    f.v = x;
    return r_.ok();
  }
  bool get(std::string& s);
  template <typename T>
  bool get(std::vector<T>& v) {
    const std::uint64_t count = r_.varint();
    if (!r_.can_hold(count, kMinWireBytes<T>)) return false;
    v.clear();
    v.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      if (!get(v.emplace_back())) return false;
    }
    return true;
  }
  template <typename K, typename V>
  bool get(std::map<K, V>& m) {
    const std::uint64_t count = r_.varint();
    if (!r_.can_hold(count, 2)) return false;  // a key and a value each
    m.clear();
    for (std::uint64_t i = 0; i < count; ++i) {
      K key{};
      if (!get(key)) return false;
      // std::map iterates in key order, so a valid encoding is strictly
      // increasing; anything else is corruption.
      if (!m.empty() && !(m.rbegin()->first < key)) {
        r_.fail();
        return false;
      }
      if (!get(m.emplace_hint(m.end(), key, V{})->second)) return false;
    }
    return true;
  }
  template <typename T>
  bool get(std::optional<T>& o) {
    bool present = false;
    if (!get(present)) return false;
    if (!present) {
      o.reset();
      return true;
    }
    return get(o.emplace());
  }
  bool get(Chunk& v);
  bool get(PartitionMap& v);
  bool get(PositionHistogram& v);
  bool get(RelationSpec& v);
  bool get(EhjaConfig& v);
  template <typename T>
    requires std::is_class_v<T>
  bool get(T& v) {
    return fields(*this, v);
  }

  Reader& r_;
};

// --- frame bodies ---

/// Encode `v` (anything the archives carry) as one whole frame body.
template <typename T>
std::vector<std::uint8_t> encode_body(const T& v) {
  Writer w;
  Enc{w}(v);
  return w.take();
}

/// Decode a whole frame body into `v`: false unless the body holds exactly
/// one valid value (a trailing byte is as corrupt as a missing one).
template <typename T>
bool decode_body(std::span<const std::uint8_t> body, T& v) {
  Reader r(body.data(), body.size());
  return Dec{r}(v) && r.remaining() == 0;
}

// --- message codec ---

/// True when `tag` names a message of the protocol vocabulary.
bool known_tag(int tag);
/// True when messages with `tag` carry a payload (false for signals and for
/// unknown tags).
bool tag_has_payload(Tag tag);

/// Serialize (tag, from, wire_bytes, payload).  Aborts on a tag/payload
/// combination the protocol never produces -- that is a local protocol bug,
/// not wire corruption.
void encode_message(const Message& msg, Writer& w);
/// Reconstruct a Message, including the exact std::any payload type for its
/// tag; false on any corruption (unknown tag, payload/signal mismatch,
/// truncation, invariant-violating composite).
bool decode_message(Reader& r, Message& out);

// --- config codec (worker handshake) ---

/// Everything a worker needs to reconstruct the run: all EhjaConfig fields
/// except the trace sink (tracing stays coordinator-side; workers get
/// nullptr).
void encode_config(const EhjaConfig& config, Writer& w);
bool decode_config(Reader& r, EhjaConfig& config);

// --- frame layer ---

enum class FrameKind : std::uint8_t {
  kHello = 1,     // worker -> coordinator: node, listen port, incarnation
  kWelcome = 2,   // coordinator -> worker: wire version check + EhjaConfig
  kPeers = 3,     // coordinator -> worker: worker mesh table
  kPeerHello = 4, // worker -> worker: first frame on a mesh connection
  kReady = 5,     // worker -> coordinator: mesh established
  kSpawn = 6,     // coordinator -> worker: instantiate an actor
  kAnnounce = 7,  // coordinator -> worker: actor id -> node routes
  kActorMsg = 8,  // any -> any: one Message between actors
  kNodeDead = 9,  // coordinator -> worker: fail-stop notice
  kShutdown = 10, // coordinator -> worker: clean exit
  // v4 fleet extensions (serve mode; coordinator <-> warm workers).
  kQueryConfig = 11,  // coordinator -> worker: per-query EhjaConfig + id
  kRetire = 12,       // coordinator -> worker: forget a finished actor
  // v4 client-facing kinds (ehja_client <-> ehja_serve).  These share the
  // frame layer (magic/version/CRC) with the fleet protocol but carry
  // serve/serve_wire.hpp payloads.
  kClientHello = 13,    // client -> server: protocol handshake
  kServerHello = 14,    // server -> client: accepted, server limits
  kSubmitQuery = 15,    // client -> server: tenant, priority, join spec
  kQueryAccepted = 16,  // server -> client: query id, queue position
  kQueryRejected = 17,  // server -> client: reason + retry-after hint
  kQueryResult = 18,    // server -> client: metrics + result digest
  kQueryStatusReq = 19, // client -> server: poll one query
  kQueryStatus = 20,    // server -> client: queued/running/... snapshot
  kCancelQuery = 21,    // client -> server: abandon a queued query
  kShutdownNotice = 22, // server -> client: draining, resubmit elsewhere
};

// Fleet control-frame bodies (socket runtime).  READY and SHUTDOWN carry
// none; RETIRE (the ActorId) and NODE_DEAD (the NodeId) carry one bare
// int32; WELCOME carries the EhjaConfig itself.

/// HELLO (worker -> coordinator) and PEER_HELLO (worker -> worker, port 0).
/// The port is checked against 0xffff where it is used.
struct HelloFrame {
  NodeId node = -1;
  std::uint32_t port = 0;  // the sender's mesh listener
  std::uint64_t incarnation = 0;
};

template <typename A>
bool fields(A& a, HelloFrame& v) {
  return a(v.node, v.port, v.incarnation);
}

/// One row of PEERS, which is a std::vector<PeerEntry>: every other
/// worker's mesh listen port.
struct PeerEntry {
  NodeId node = -1;
  std::uint32_t port = 0;
};

template <typename A>
bool fields(A& a, PeerEntry& v) {
  return a(v.node, v.port);
}

/// SPAWN: rebuild actor `id` from a RemoteSpawnSpec.  config_id 0 is the
/// handshake config; any other id was shipped earlier by QUERY_CONFIG.
struct SpawnFrame {
  ActorId id = kInvalidActor;
  RemoteSpawnSpec::Kind kind = RemoteSpawnSpec::Kind::kJoinProcess;
  std::uint32_t source_index = 0;
  ActorId scheduler = kInvalidActor;
  std::uint32_t config_id = 0;
};

template <typename A>
bool fields(A& a, SpawnFrame& v) {
  return a(v.id, v.kind, v.source_index, v.scheduler, v.config_id);
}

/// ANNOUNCE: actor `id` lives on node `owner`.
struct AnnounceFrame {
  ActorId id = kInvalidActor;
  NodeId owner = -1;
};

template <typename A>
bool fields(A& a, AnnounceFrame& v) {
  return a(v.id, v.owner);
}

/// QUERY_CONFIG: a per-query EhjaConfig that later SPAWNs name by `id`.
struct QueryConfigFrame {
  std::uint32_t id = 0;
  EhjaConfig config;
};

template <typename A>
bool fields(A& a, QueryConfigFrame& v) {
  return a(v.id, v.config);
}

/// Highest FrameKind value this build understands; try_parse_frame rejects
/// kinds above this so a frame from a *newer* build is a clean decode error
/// (and the serve layer answers kQueryRejected) instead of an abort.
inline constexpr std::uint8_t kMaxFrameKind =
    static_cast<std::uint8_t>(FrameKind::kShutdownNotice);

/// Frame header: magic u32 | version u8 | kind u8 | reserved u16 |
/// body_len u32 | crc32(body) u32 -- 16 bytes, all little-endian.
/// (kFrameHeaderBytes and kMaxFrameBody live in net/wire_format.hpp so that
/// relation/chunk.hpp and config validation can agree with the framing
/// without depending on the codec.)
inline constexpr std::uint32_t kFrameMagic = 0x454A4857;  // "WHJE" LE

struct Frame {
  FrameKind kind = FrameKind::kHello;
  std::vector<std::uint8_t> body;
};

/// A frame checked in place: `body` points into the buffer it was parsed
/// from and is valid as long as those bytes are.
struct FrameView {
  FrameKind kind = FrameKind::kHello;
  std::span<const std::uint8_t> body;
};

/// Open a frame at the end of `out`: reserve its header and return where
/// it starts.  Append the body behind it, then close it with end_frame.
std::size_t begin_frame(std::vector<std::uint8_t>& out);
/// Close the frame opened at `start`: its body is everything behind the
/// header, and the header gets its kind, length and the body's CRC.
void end_frame(std::vector<std::uint8_t>& out, std::size_t start,
               FrameKind kind);

/// Append a complete frame (header + body) to `out`.
void append_frame(std::vector<std::uint8_t>& out, FrameKind kind,
                  std::span<const std::uint8_t> body);

enum class FrameStatus {
  kNeedMore,  // prefix of a valid frame; feed more bytes
  kFrame,     // one frame extracted; `consumed` bytes were used
  kError,     // corrupt stream (bad magic/version/kind/length/CRC)
};

/// Try to extract one frame from the front of [data, data+size).  On
/// kFrame, `consumed` is the total bytes to drop from the stream and `out`
/// holds the frame, its body pointing into `data`.  On kError, `error` (if non-null) describes the
/// corruption; the stream is unrecoverable (TCP guarantees ordering, so a
/// bad header means a framing bug or corruption, not a resync point).
FrameStatus try_parse_frame(const std::uint8_t* data, std::size_t size,
                            std::size_t& consumed, FrameView& out,
                            std::string* error = nullptr);
/// The same, copying the body out of [data, data+size).
FrameStatus try_parse_frame(const std::uint8_t* data, std::size_t size,
                            std::size_t& consumed, Frame& out,
                            std::string* error = nullptr);

}  // namespace ehja::wire
