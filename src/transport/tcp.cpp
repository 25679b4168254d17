#include "transport/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

#include "common/error.hpp"

namespace morph::transport {

namespace {
/// Throws for the failed call `what`, closing `fd` (if any) first.
[[noreturn]] void fail(const std::string& what, int fd = -1) {
  const int err = errno;
  if (fd >= 0) ::close(fd);
  throw TransportError(what + ": " + std::strerror(err));
}
}  // namespace

std::optional<uint16_t> parse_port(std::string_view text) {
  const char* last = text.data() + text.size();
  uint16_t port = 0;
  const auto [end, ec] = std::from_chars(text.data(), last, port);
  if (ec != std::errc() || end != last) return std::nullopt;
  return port;
}

std::optional<std::pair<std::string, uint16_t>> parse_endpoint(std::string_view text) {
  const size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0) return std::nullopt;
  const auto port = parse_port(text.substr(colon + 1));
  if (!port || *port == 0) return std::nullopt;
  return std::make_pair(std::string(text.substr(0, colon)), *port);
}

std::unique_ptr<TcpLink> TcpLink::connect(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw TransportError("bad address '" + host + "'");
  }
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  if (rc != 0 && errno == EINTR) {
    // Interrupted after the SYN went out: the handshake keeps completing
    // asynchronously, and re-calling connect() meanwhile returns EALREADY
    // (or EISCONN once done) — retrying the call cannot distinguish
    // in-progress from failed. POSIX's answer is to wait for writability
    // and read the real outcome from SO_ERROR.
    pollfd pfd{fd, POLLOUT, 0};
    int pr;
    do {
      pr = ::poll(&pfd, 1, -1);
    } while (pr < 0 && errno == EINTR);
    if (pr < 0) fail("poll (connect)", fd);
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      fail("getsockopt SO_ERROR", fd);
    }
    if (err != 0) {
      errno = err;
      fail("connect", fd);
    }
  } else if (rc != 0) {
    fail("connect", fd);
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::unique_ptr<TcpLink>(new TcpLink(fd));
}

TcpLink::~TcpLink() { close(); }

void TcpLink::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void TcpLink::send(const void* data, size_t size) {
  if (fd_ < 0) throw TransportError("send on closed link");
  const auto* p = static_cast<const uint8_t*>(data);
  while (size > 0) {
    ssize_t n = ::send(fd_, p, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("send");
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
}

bool TcpLink::pump(int timeout_ms) {
  if (fd_ < 0) return false;
  pollfd pfd{fd_, POLLIN, 0};
  int r = ::poll(&pfd, 1, timeout_ms);
  if (r < 0) {
    if (errno == EINTR) return true;
    fail("poll");
  }
  if (r == 0) return true;  // timeout, still connected
  // Drain the socket for this readiness event instead of taking one
  // fixed-size bite: a sender that batched many frames costs one poll and
  // a few large recvs, not one poll per 64KB. Bounded per call so one
  // firehose peer cannot starve a caller multiplexing several links.
  uint8_t buf[64 * 1024];
  size_t drained = 0;
  constexpr size_t kMaxDrainPerPump = 1u << 20;
  for (;;) {
    ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      fail("recv");
    }
    if (n == 0) {
      close();
      return false;
    }
    if (on_data_) on_data_(buf, static_cast<size_t>(n));
    drained += static_cast<size_t>(n);
    if (static_cast<size_t>(n) < sizeof buf || drained >= kMaxDrainPerPump) {
      return true;  // short read: socket drained (or per-call bound hit)
    }
  }
}

TcpListener::TcpListener(uint16_t port) {
  // Non-blocking: a ReactorServer's loop accepts until EAGAIN, and accept()
  // below polls first, so a client that leaves the queue in between reads
  // as a timeout instead of blocking.
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0) fail("socket");
  // A throwing constructor runs no destructor: each fail closes the socket.
  int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) fail("bind", fd_);
  // Deep backlog (kernel clamps to somaxconn): connection-scale clients
  // arrive in storms, and a backlog of 16 turns those into ECONNREFUSED.
  if (::listen(fd_, 4096) != 0) fail("listen", fd_);
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) fail("getsockname", fd_);
  port_ = ntohs(addr.sin_port);
}

TcpListener::~TcpListener() {
  if (fd_ >= 0) ::close(fd_);
}

std::unique_ptr<TcpLink> TcpListener::accept(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  int r = ::poll(&pfd, 1, timeout_ms);
  if (r < 0) {
    if (errno == EINTR) return nullptr;  // signal: report as a timeout
    fail("poll");
  }
  if (r == 0) return nullptr;
  int fd;
  do {
    fd = ::accept(fd_, nullptr, nullptr);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) {
    if (errno == ECONNABORTED || errno == EAGAIN) return nullptr;  // peer gave up while queued
    fail("accept");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::unique_ptr<TcpLink>(new TcpLink(fd));
}

}  // namespace morph::transport
