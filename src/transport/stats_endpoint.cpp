#include "transport/stats_endpoint.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"

namespace morph::transport {

namespace {
// A request head longer than this is not a scrape: the connection closes
// without a reply.
constexpr size_t kMaxHeadBytes = 8u << 10;
}  // namespace

StatsServer::StatsServer(uint16_t port, obs::MetricsRegistry* registry)
    : registry_(registry != nullptr ? *registry : obs::MetricsRegistry::global()),
      listener_(port),
      // A scraper that dawdles past the idle timeout forfeits its response.
      server_(listener_, {.idle_timeout_ms = 2000, .max_connections = 16},
              [this](AsyncTcpLink& link) { serve(link); }) {}

void StatsServer::serve(AsyncTcpLink& link) {
  // The callback owns the request head it accumulates.
  link.set_on_data([this, &link, request = std::string()](const uint8_t* d, size_t n) mutable {
    request.append(reinterpret_cast<const char*>(d), n);
    if (request.size() > kMaxHeadBytes) {
      link.close();
      return;
    }
    if (request.find("\r\n\r\n") == std::string::npos &&
        request.find("\n\n") == std::string::npos) {
      return;  // head not complete yet
    }
    const bool prometheus = request.starts_with("GET /metrics ");
    const std::string body = prometheus ? obs::to_prometheus(registry_.snapshot())
                                        : obs::to_json(registry_.snapshot(), obs::recent_spans(),
                                                       obs::flight_events());
    char head[256];
    const int h = std::snprintf(head, sizeof head,
                                "HTTP/1.0 200 OK\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
                                "Connection: close\r\n\r\n",
                                prometheus ? "text/plain; version=0.0.4" : "application/json",
                                body.size());
    link.send(head, static_cast<size_t>(h));
    link.send(body.data(), body.size());
    link.close();  // drains: the reply leaves whole, then the FIN
  });
}

std::unique_ptr<StatsServer> StatsServer::from_env() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read before worker threads start
  const char* env = std::getenv("MORPH_STATS_PORT");
  if (env == nullptr || env[0] == '\0') return nullptr;
  const auto port = parse_port(env);
  if (!port) throw Error("MORPH_STATS_PORT: bad port '" + std::string(env) + "'");
  return std::make_unique<StatsServer>(*port);
}

}  // namespace morph::transport
