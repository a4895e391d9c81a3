#include "net/framed_conn.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>

#include "util/assert.hpp"

namespace ehja::netio {

namespace {
using Clock = std::chrono::steady_clock;
}

Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  EHJA_CHECK_MSG(flags >= 0, "fcntl(F_GETFL) failed");
  EHJA_CHECK_MSG(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
                 "fcntl(F_SETFL, O_NONBLOCK) failed");
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

int make_listener(std::uint16_t& port_out, std::uint16_t requested_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EHJA_CHECK_MSG(fd >= 0, "socket() failed");
  if (requested_port != 0) {
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(requested_port);
  EHJA_CHECK_MSG(
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "bind(127.0.0.1) failed");
  EHJA_CHECK_MSG(::listen(fd, 128) == 0, "listen() failed");
  socklen_t len = sizeof(addr);
  EHJA_CHECK_MSG(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0,
      "getsockname() failed");
  port_out = ntohs(addr.sin_port);
  set_nonblocking(fd);
  return fd;
}

int try_connect_loopback(std::uint16_t port, int attempts) {
  for (int attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EHJA_CHECK_MSG(fd >= 0, "socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    int rc;
    do {
      rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (rc != 0 && errno == EINTR);
    if (rc == 0) return fd;
    const int err = errno;
    ::close(fd);
    if (err != ECONNREFUSED || attempt >= attempts) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

int connect_loopback(std::uint16_t port) {
  const int fd = try_connect_loopback(port);
  EHJA_CHECK_MSG(fd >= 0, "connect(127.0.0.1) failed");
  return fd;
}

void read_available(Conn& c) {
  if (!c.usable()) return;
  c.in.erase(c.in.begin(),
             c.in.begin() + static_cast<std::ptrdiff_t>(c.in_off));
  c.in_off = 0;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.insert(c.in.end(), buf, buf + n);
      if (static_cast<std::size_t>(n) < sizeof(buf)) return;
      continue;
    }
    if (n == 0) {
      c.eof = true;
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    c.broken = true;
    return;
  }
}

void flush_out(Conn& c) {
  if (!c.usable()) return;
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    c.broken = true;  // peer died; its data is lost (fail-stop semantics)
    return;
  }
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  } else if (c.out_off > (1u << 20)) {
    c.out.erase(c.out.begin(),
                c.out.begin() + static_cast<std::ptrdiff_t>(c.out_off));
    c.out_off = 0;
  }
}

void queue_frame(Conn& c, wire::FrameKind kind,
                 const std::vector<std::uint8_t>& body) {
  if (!c.usable()) return;
  wire::append_frame(c.out, kind, body);
}

namespace {

/// Cut the frame at c.in_off into `f` (a FrameView or a Frame), if it is
/// complete and intact.
template <typename F>
wire::FrameStatus cut_frame(Conn& c, F& f, std::string* error) {
  std::size_t consumed = 0;
  const wire::FrameStatus st = wire::try_parse_frame(
      c.in.data() + c.in_off, c.in.size() - c.in_off, consumed, f, error);
  c.in_off += consumed;
  return st;
}

template <typename F>
bool must_cut_frame(Conn& c, F& f) {
  std::string err;
  const wire::FrameStatus st = cut_frame(c, f, &err);
  if (st == wire::FrameStatus::kNeedMore) return false;
  EHJA_CHECK_MSG(st == wire::FrameStatus::kFrame,
                 ("corrupt frame: " + err).c_str());
  return true;
}

}  // namespace

bool next_frame(Conn& c, wire::FrameView& f) { return must_cut_frame(c, f); }

bool next_frame(Conn& c, wire::Frame& f) { return must_cut_frame(c, f); }

FrameResult try_next_frame(Conn& c, wire::Frame& f, std::string* error) {
  const wire::FrameStatus st = cut_frame(c, f, error);
  if (st == wire::FrameStatus::kNeedMore) return FrameResult::kNone;
  if (st == wire::FrameStatus::kError) {
    c.broken = true;  // the stream is unrecoverable past a corrupt header
    return FrameResult::kError;
  }
  return FrameResult::kFrame;
}

wire::Frame must_recv_frame(Conn& c, double timeout_sec, const char* what) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_sec));
  wire::Frame f;
  for (;;) {
    if (next_frame(c, f)) return f;
    EHJA_CHECK_MSG(!c.eof && !c.broken,
                   (std::string("connection lost waiting for ") + what)
                       .c_str());
    EHJA_CHECK_MSG(Clock::now() < deadline,
                   (std::string("handshake timeout waiting for ") + what)
                       .c_str());
    pollfd p{c.fd, POLLIN, 0};
    const int pr = ::poll(&p, 1, 100);
    if (pr < 0 && errno != EINTR) c.broken = true;
    if (pr > 0) read_available(c);
  }
}

void must_flush(Conn& c, double timeout_sec, const char* what) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_sec));
  while (c.wants_write()) {
    flush_out(c);
    if (!c.wants_write()) break;
    EHJA_CHECK_MSG(!c.broken,
                   (std::string("connection lost while sending ") + what)
                       .c_str());
    EHJA_CHECK_MSG(Clock::now() < deadline,
                   (std::string("handshake timeout sending ") + what)
                       .c_str());
    pollfd p{c.fd, POLLOUT, 0};
    ::poll(&p, 1, 100);
  }
}

std::unique_ptr<Conn> adopt_fd(int fd) {
  set_nonblocking(fd);
  set_nodelay(fd);
  auto c = std::make_unique<Conn>();
  c->fd = fd;
  return c;
}

}  // namespace ehja::netio
