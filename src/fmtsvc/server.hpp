// Networked format-metadata service: the paper's third-party format server.
//
// Accepts TCP connections on loopback (TcpListener binds 127.0.0.1) and
// answers fmtsvc protocol requests against a FormatStore. Connections are
// long-lived (a resolver keeps one open and pipelines fetches over it) and
// accepted and served by one ReactorServer event loop, the service's only
// thread: each connection's FrameAssembler lives in its link's user slot,
// and requests are handled on the loop thread.
//
// Failure containment: a malformed frame or request kills only its own
// connection (counted in bad_frames); every other connection keeps
// serving. Under LintPolicy::kEnforce a REGISTER whose descriptor has
// error-severity lint findings is answered with Status::kRejected (counted
// in morph_fmtsvc_server_lint_rejected_total) and nothing enters the store.
// Transform code itself is always verified where a receiver compiles it.
//
// Beyond the per-entry lint, the service can run the fleet-wide evolution
// audit (analysis/audit.hpp) on every REGISTER: the candidate revision is
// checked against everything already in the store plus the declared live
// readers. Under AuditPolicy::kEnforce a revision that would strand a live
// peer — or reach one only through a lossy chain — is rejected before it
// enters the store; under kWarn it is accepted but counted and logged.
#pragma once

#include <vector>

#include "analysis/audit.hpp"
#include "core/lint.hpp"
#include "fmtsvc/store.hpp"
#include "obs/metrics.hpp"
#include "transport/reactor.hpp"
#include "transport/tcp.hpp"

namespace morph::fmtsvc {

struct ServiceOptions {
  uint16_t port = 0;  // 0 picks an ephemeral port; read back with port()
  core::LintPolicy lint = core::LintPolicy::kWarn;
  /// Evolution-audit gate on REGISTER (see analysis/audit.hpp). Off by
  /// default: the audit only bites when the operator declares live readers.
  analysis::AuditPolicy audit = analysis::AuditPolicy::kOff;
  /// Fingerprints of revisions deployed peers still read, fed to the audit
  /// as AuditUniverse::declare_live.
  std::vector<uint64_t> live_readers;
  /// Maximum simultaneous connections; further accepts are closed
  /// immediately (the client sees EOF and retries per its backoff).
  size_t max_connections = 64;
};

/// The service's counters: ServiceStats field and catalog series,
/// or none for the per-instance totals. `requests` is partitioned by op.
#define MORPH_SERVICE_COUNTERS(X)                                     \
  X(connections)                                                      \
  X(requests)                                                         \
  X(register_requests, morph_fmtsvc_requests_total, "register")       \
  X(fetch_requests, morph_fmtsvc_requests_total, "fetch")             \
  X(fetch_multi_requests, morph_fmtsvc_requests_total, "fetch_multi") \
  X(list_requests, morph_fmtsvc_requests_total, "list")               \
  X(registered) /* formats accepted into the store */                 \
  X(lint_rejected, morph_fmtsvc_server_lint_rejected_total)           \
  X(audit_rejected, morph_fmtsvc_server_audit_rejected_total)         \
  X(audit_warned, morph_fmtsvc_server_audit_warned_total)             \
  X(not_found, morph_fmtsvc_server_not_found_total)                   \
  X(bad_frames, morph_fmtsvc_server_bad_frames_total)

struct ServiceStats {
  MORPH_STATS(ServiceStats, MORPH_SERVICE_COUNTERS)
};

class FormatService {
 public:
  /// Start serving `store` (which must outlive the service) immediately.
  explicit FormatService(FormatStore& store, ServiceOptions options = {});

  FormatService(const FormatService&) = delete;
  FormatService& operator=(const FormatService&) = delete;

  uint16_t port() const { return listener_.port(); }
  ServiceStats stats() const { return counters_.load(); }

 private:
  void serve_conn(transport::AsyncTcpLink& link);
  Reply handle(const Request& req);

  FormatStore& store_;
  ServiceOptions options_;
  transport::TcpListener listener_;

  obs::CounterSet<ServiceStats> counters_;

  // Declared last: serving starts after every other member exists and
  // stops (joining the loop) before any of them is destroyed.
  transport::ReactorServer server_;
};

}  // namespace morph::fmtsvc
