// Client-facing protocol payloads for ehja_serve (wire v4).
//
// These ride the same frame layer as the fleet protocol (net/wire.hpp:
// magic, version, kind, CRC32) but cross a *trust boundary*: the peer may
// be a newer build, a different tool, or garbage.  Every payload is a plain
// field list that wire::encode_body / wire::decode_body walk with
// net/wire.hpp's Enc/Dec archives, so every decoder here is total --
// truncation, bad lengths, unknown enum values and out-of-range integers
// return false, never abort or wrap -- and the server pairs them with
// netio::try_next_frame so a hostile byte stream costs one connection, not
// the process.
//
// Conversation shape (client side in serve/client.hpp):
//
//   client  kClientHello   {tenant}
//   server  kServerHello   {ok, draining, message}
//   client  kSubmitQuery   {client_seq, EhjaConfig}
//   server  kQueryAccepted {client_seq, query_id, queue_position}
//        |  kQueryRejected {client_seq, reason, retry_after_ms, message}
//   server  kQueryResult   {query_id, matches, checksum, ...}   (when done)
//   client  kQueryStatusReq / kCancelQuery;  server kQueryStatus
//   server  kShutdownNotice {message}                           (draining)
//
// client_seq correlates a submit with its accept/reject on a connection
// carrying many in-flight queries; query_id is the server-global name used
// everywhere after acceptance.
#pragma once

#include <cstdint>
#include <string>

#include "core/config.hpp"
#include "net/wire.hpp"
#include "serve/admission.hpp"

namespace ehja::serve {

/// Why a query (or frame) bounced; superset of AdmitReject with the
/// protocol-level causes the controller never sees.
enum class RejectCode : std::uint8_t {
  kQueueFull = 0,
  kNeverAdmittable = 1,
  kUnknownTenant = 2,
  kDraining = 3,
  kBadConfig = 4,   // EhjaConfig::validate_or_error failed
  kBadFrame = 5,    // undecodable payload, unknown kind, newer version
  kNoHello = 6,     // submit before the hello handshake
};

RejectCode reject_code(AdmitReject reason);
const char* reject_code_name(RejectCode code);

enum class QueryState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,
  kCancelled = 3,
  kUnknown = 4,
};

/// Largest discriminants on the wire (see wire::wire_max).
constexpr RejectCode wire_max(RejectCode) { return RejectCode::kNoHello; }
constexpr QueryState wire_max(QueryState) { return QueryState::kUnknown; }

struct ClientHelloPayload {
  std::string tenant;
};

struct ServerHelloPayload {
  bool ok = false;        // tenant recognised
  bool draining = false;  // shutdown in progress; submits will bounce
  std::string message;
};

struct SubmitQueryPayload {
  std::uint64_t client_seq = 0;
  EhjaConfig config;
};

struct QueryAcceptedPayload {
  std::uint64_t client_seq = 0;
  std::uint64_t query_id = 0;
  std::uint32_t queue_position = 0;  // 1-based
};

struct QueryRejectedPayload {
  std::uint64_t client_seq = 0;  // 0 when the submit was undecodable
  RejectCode reason = RejectCode::kBadFrame;
  std::uint32_t retry_after_ms = 0;  // > 0: transient, try again
  std::string message;
};

/// The completed join, summarized.  matches/checksum are the JoinResult the
/// client compares against its serial oracle (byte-identical results are
/// the acceptance bar for the whole serving layer).
struct QueryResultPayload {
  std::uint64_t query_id = 0;
  std::uint64_t matches = 0;
  std::uint64_t checksum = 0;
  std::uint64_t build_tuples = 0;
  std::uint64_t probe_tuples = 0;
  std::uint32_t expansions = 0;
  double queue_sec = 0.0;  // accepted -> admitted
  double run_sec = 0.0;    // admitted -> complete
};

struct QueryStatusReqPayload {
  std::uint64_t query_id = 0;
};

struct QueryStatusPayload {
  std::uint64_t query_id = 0;
  QueryState state = QueryState::kUnknown;
  std::uint32_t queue_position = 0;  // kQueued only
};

struct CancelQueryPayload {
  std::uint64_t query_id = 0;
};

struct ShutdownNoticePayload {
  std::string message;
};

// Field lists, in wire order (net/wire.hpp maps each field type to bytes;
// strings are capped at wire::kMaxWireString).

template <typename A>
bool fields(A& a, ClientHelloPayload& v) {
  return a(v.tenant);
}

template <typename A>
bool fields(A& a, ServerHelloPayload& v) {
  return a(v.ok, v.draining, v.message);
}

template <typename A>
bool fields(A& a, SubmitQueryPayload& v) {
  return a(v.client_seq, v.config);
}

template <typename A>
bool fields(A& a, QueryAcceptedPayload& v) {
  return a(v.client_seq, v.query_id, v.queue_position);
}

template <typename A>
bool fields(A& a, QueryRejectedPayload& v) {
  return a(v.client_seq, v.reason, v.retry_after_ms, v.message);
}

template <typename A>
bool fields(A& a, QueryResultPayload& v) {
  return a(v.query_id, v.matches, wire::fixed64(v.checksum), v.build_tuples,
           v.probe_tuples, v.expansions, v.queue_sec, v.run_sec);
}

template <typename A>
bool fields(A& a, QueryStatusReqPayload& v) {
  return a(v.query_id);
}

template <typename A>
bool fields(A& a, QueryStatusPayload& v) {
  return a(v.query_id, v.state, v.queue_position);
}

template <typename A>
bool fields(A& a, CancelQueryPayload& v) {
  return a(v.query_id);
}

template <typename A>
bool fields(A& a, ShutdownNoticePayload& v) {
  return a(v.message);
}

}  // namespace ehja::serve
