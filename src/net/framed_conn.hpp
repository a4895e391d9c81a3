// Non-blocking framed TCP connections over loopback.
//
// Extracted from runtime/socket_runtime.cpp so the serving layer
// (src/serve/) can reuse the exact same plumbing for its client-facing
// links: one Conn per peer, reads accumulating in `in` until
// wire::try_parse_frame can cut whole frames, writes queuing in `out` and
// draining whenever the socket is writable -- a slow peer never stalls the
// event loop.
//
// Frames are cut in place.  `in_off` counts the bytes at the front of `in`
// already cut into frames; cutting a frame only advances it, and
// read_available() drops the consumed prefix once, before it appends what
// the socket holds.  So one read costs one compaction however many frames
// it carried, and a FrameView from next_frame() points into `in` and stays
// valid until the next read_available() on the same Conn.
//
// Two frame-extraction flavours with different trust models:
//
//   next_frame()      aborts on corruption.  Correct for intra-cluster
//                     links (coordinator <-> worker): both ends are the
//                     same build over loopback TCP, so a bad frame is a
//                     framing *bug*.
//
//   try_next_frame()  total.  Correct for client-facing links: a client
//                     may be a newer build (higher wire version), a
//                     different tool, or garbage; the server must reject
//                     the connection, not die.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_spec.hpp"
#include "net/wire.hpp"

namespace ehja::netio {

/// One TCP connection to a peer process.  The per-direction frame sequence
/// numbers carry the per-pair FIFO proof: every kActorMsg frame is stamped
/// with next_send_seq and the receiver fifo_accept()s it against
/// next_recv_seq.  (Client-facing links do not use the sequence fields.)
struct Conn {
  int fd = -1;
  NodeId peer = -1;
  std::vector<std::uint8_t> in;
  /// Bytes at the front of `in` already cut into frames.
  std::size_t in_off = 0;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::uint64_t next_send_seq = 0;
  std::uint64_t next_recv_seq = 0;
  bool eof = false;
  bool broken = false;

  bool usable() const { return fd >= 0 && !broken; }
  bool wants_write() const { return usable() && out.size() > out_off; }

  ~Conn();
};

void set_nonblocking(int fd);
void set_nodelay(int fd);

/// Loopback listener; returns the fd (non-blocking) and the chosen port.
/// `requested_port` 0 picks an ephemeral port (the cluster-internal mode);
/// a fixed port is for the serve front end's published endpoint.
int make_listener(std::uint16_t& port_out, std::uint16_t requested_port = 0);

/// Blocking connect to 127.0.0.1:port with a short ECONNREFUSED retry
/// window (peers bring their listeners up concurrently); aborts on failure.
int connect_loopback(std::uint16_t port);

/// Like connect_loopback but returns -1 instead of aborting -- clients
/// probing a server that may not be up yet.
int try_connect_loopback(std::uint16_t port, int attempts = 250);

/// Drop the frames already cut from c.in, then drain everything currently
/// readable into it.  Returns with c.eof / c.broken set on EOF or a hard
/// error; both mean the peer process is gone (fail-stop), never a protocol
/// decision point.
void read_available(Conn& c);

/// Push queued bytes out until the socket would block.
void flush_out(Conn& c);

void queue_frame(Conn& c, wire::FrameKind kind,
                 const std::vector<std::uint8_t>& body);

/// Cut one complete frame off the front of c.in, in place: f.body points
/// into c.in until the next read_available(c).  A corrupt stream aborts
/// (trusted intra-cluster links only; see file comment).
bool next_frame(Conn& c, wire::FrameView& f);
/// The same, copying the body out.
bool next_frame(Conn& c, wire::Frame& f);

enum class FrameResult {
  kNone,   // no complete frame buffered yet
  kFrame,  // one frame extracted
  kError,  // corrupt/foreign stream; drop the connection
};

/// Total version of next_frame for untrusted (client-facing) links: never
/// aborts, reports corruption as kError with `error` describing it.
FrameResult try_next_frame(Conn& c, wire::Frame& f,
                           std::string* error = nullptr);

/// Block (via poll) until one frame arrives on `c`; handshake-only.
wire::Frame must_recv_frame(Conn& c, double timeout_sec, const char* what);

/// Block until c.out is fully on the wire; handshake-only.
void must_flush(Conn& c, double timeout_sec, const char* what);

std::unique_ptr<Conn> adopt_fd(int fd);

}  // namespace ehja::netio
