// Optional stats endpoint: a tiny HTTP/1.0 server on the reactor that
// serves the observability layer's exporters, so any process that embeds
// the middleware can be scraped while it runs.
//
//   GET /metrics      Prometheus text exposition (obs::to_prometheus)
//   GET <anything>    JSON snapshot incl. recent trace spans (obs::to_json)
//
// One loop thread serves concurrent scrapes, one request per connection
// ("Connection: close"), loopback only (TcpListener binds 127.0.0.1).
// Intended for morph-stat, curl, or a local Prometheus scraper — not for
// untrusted networks.
#pragma once

#include <memory>

#include "obs/metrics.hpp"
#include "transport/reactor.hpp"
#include "transport/tcp.hpp"

namespace morph::transport {

class StatsServer {
 public:
  /// Bind 127.0.0.1:`port` (0 picks an ephemeral port — read it back with
  /// port()) and start serving. `registry` defaults to the global one.
  explicit StatsServer(uint16_t port = 0, obs::MetricsRegistry* registry = nullptr);

  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// The endpoint MORPH_STATS_PORT asks for, or null when it is unset or
  /// empty. Throws Error on a value that is not a port number.
  static std::unique_ptr<StatsServer> from_env();

  uint16_t port() const { return listener_.port(); }

 private:
  void serve(AsyncTcpLink& link);  // loop thread: read one request, reply, close

  obs::MetricsRegistry& registry_;
  TcpListener listener_;
  ReactorServer server_;  // last: serving starts once the rest is built
};

}  // namespace morph::transport
