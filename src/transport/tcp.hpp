// TCP transport: a Link over a socket, for genuinely distributed peers.
//
// Blocking sends (records are small relative to socket buffers) and
// poll-driven receives through pump(). Single owner per link; no internal
// threads — callers decide the threading model.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "transport/link.hpp"

namespace morph::transport {

/// A TCP port written as decimal digits only: "0".."65535", no sign,
/// blank or suffix ("80abc", "99999" and "" are not ports). 0 is returned
/// as is; a listener takes it as "pick an ephemeral port". The one port
/// parser of every tool and of MORPH_STATS_PORT.
std::optional<uint16_t> parse_port(std::string_view text);

/// "HOST:PORT", split at the last colon: a non-empty host and a port
/// parse_port() accepts other than 0. nullopt otherwise.
std::optional<std::pair<std::string, uint16_t>> parse_endpoint(std::string_view text);

class TcpLink : public Link {
 public:
  /// Connect to host:port. Throws TransportError.
  static std::unique_ptr<TcpLink> connect(const std::string& host, uint16_t port);

  ~TcpLink() override;
  using Link::send;  // keep the ByteBuffer convenience overload visible
  void send(const void* data, size_t size) override;
  bool connected() const override { return fd_ >= 0; }

  /// Wait up to `timeout_ms` for readable data, deliver it via the data
  /// callback. Returns false once the peer has closed.
  bool pump(int timeout_ms);

  void close();
  int fd() const { return fd_; }

  /// Relinquish ownership of the socket (handoff to the reactor): returns
  /// the fd and leaves this link closed.
  int release_fd() noexcept {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  friend class TcpListener;
  explicit TcpLink(int fd) : fd_(fd) {}
  int fd_ = -1;
};

class TcpListener {
 public:
  /// Bind and listen on 127.0.0.1:`port` (0 picks an ephemeral port).
  explicit TcpListener(uint16_t port = 0);
  ~TcpListener();

  uint16_t port() const { return port_; }
  /// The listening socket, for a ReactorServer to serve on its loop.
  int fd() const { return fd_; }

  /// Accept one connection, waiting up to `timeout_ms`. nullptr on timeout.
  std::unique_ptr<TcpLink> accept(int timeout_ms);

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace morph::transport
