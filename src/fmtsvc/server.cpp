#include "fmtsvc/server.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "transport/framing.hpp"

namespace morph::fmtsvc {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;

/// Process-wide service metrics (one registry entry per op/status, shared
/// by every FormatService instance; per-instance numbers via stats()).
struct SvcMetrics {
  obs::Counter& req_register =
      obs::metrics().counter("morph_fmtsvc_requests_total{op=\"register\"}");
  obs::Counter& req_fetch = obs::metrics().counter("morph_fmtsvc_requests_total{op=\"fetch\"}");
  obs::Counter& req_fetch_multi =
      obs::metrics().counter("morph_fmtsvc_requests_total{op=\"fetch_multi\"}");
  obs::Counter& req_list = obs::metrics().counter("morph_fmtsvc_requests_total{op=\"list\"}");
  obs::Counter& not_found = obs::metrics().counter("morph_fmtsvc_server_not_found_total");
  obs::Counter& lint_rejected =
      obs::metrics().counter("morph_fmtsvc_server_lint_rejected_total");
  obs::Counter& audit_rejected =
      obs::metrics().counter("morph_fmtsvc_server_audit_rejected_total");
  obs::Counter& audit_warned =
      obs::metrics().counter("morph_fmtsvc_server_audit_warned_total");
  obs::Counter& bad_frames = obs::metrics().counter("morph_fmtsvc_server_bad_frames_total");
  obs::Gauge& store_formats = obs::metrics().gauge("morph_fmtsvc_store_formats");
  obs::Gauge& live_conns = obs::metrics().gauge("morph_fmtsvc_server_connections");
  obs::Histogram& handle_ns = obs::metrics().histogram("morph_span_ns{span=\"fmtsvc.handle\"}");
};

SvcMetrics& svc() {
  static SvcMetrics& m = *new SvcMetrics();  // leaked: outlives static dtors
  return m;
}

}  // namespace

FormatService::FormatService(FormatStore& store, ServiceOptions options)
    : store_(store),
      options_(std::move(options)),
      listener_(options_.port),
      server_(
          listener_, transport::ReactorOptions{.max_connections = options_.max_connections},
          [this](transport::AsyncTcpLink& link) { serve_conn(link); }) {}

ServiceStats FormatService::stats() const {
  ServiceStats s;
  s.connections = counters_.connections.load(kRelaxed);
  s.requests = counters_.requests.load(kRelaxed);
  s.registered = counters_.registered.load(kRelaxed);
  s.lint_rejected = counters_.lint_rejected.load(kRelaxed);
  s.audit_rejected = counters_.audit_rejected.load(kRelaxed);
  s.audit_warned = counters_.audit_warned.load(kRelaxed);
  s.not_found = counters_.not_found.load(kRelaxed);
  s.bad_frames = counters_.bad_frames.load(kRelaxed);
  return s;
}

void FormatService::serve_conn(transport::AsyncTcpLink& link) {
  // Per-connection protocol state lives in the link's user slot. It dies
  // with the connection, at close or when the server stops, so the live
  // gauge stays exact either way. handle() is thread-safe (sharded store,
  // atomic counters).
  struct ConnState {
    ConnState() { svc().live_conns.add(1); }
    ~ConnState() { svc().live_conns.add(-1); }
    transport::FrameAssembler assembler;
  };
  counters_.connections.fetch_add(1, kRelaxed);
  auto state = std::make_shared<ConnState>();
  link.set_user(state);
  transport::AsyncTcpLink* l = &link;
  link.set_on_data([this, l, a = &state->assembler](const uint8_t* data, size_t size) {
    try {
      a->feed(data, size, [this, l](transport::Frame& frame) {
        if (frame.type != transport::FrameType::kFmtsvcRequest) {
          throw TransportError("fmtsvc: unexpected frame type on service connection");
        }
        // Adopt the client's trace id so server-side spans correlate with
        // the resolver's fetch spans across the wire.
        obs::TraceScope trace_scope(obs::TraceContext{frame.trace_id});
        obs::TraceSpan span("fmtsvc.handle", &svc().handle_ns);
        ByteReader r(frame.payload.data(), frame.payload.size());
        Reply reply = handle(Request::deserialize(r));
        ByteBuffer payload;
        reply.serialize(payload);
        ByteBuffer out;
        transport::write_frame(out, transport::FrameType::kFmtsvcReply, payload.data(),
                               payload.size(), frame.trace_id);
        l->send(out);
      });
    } catch (const Error& e) {
      // Malformed frame or request: this connection is done, the service
      // keeps running.
      counters_.bad_frames.fetch_add(1, kRelaxed);
      svc().bad_frames.inc();
      MORPH_LOG_WARN("fmtsvc") << "connection dropped: " << e.what();
      l->close();
    }
  });
}

Reply FormatService::handle(const Request& req) {
  counters_.requests.fetch_add(1, kRelaxed);
  Reply reply;
  reply.op = req.op;
  reply.request_id = req.request_id;

  switch (req.op) {
    case Op::kRegister: {
      svc().req_register.inc();
      for (const auto& entry : req.entries) {
        if (options_.lint != core::LintPolicy::kOff) {
          core::LintReport rep = core::lint_resolved(*entry.format, entry.transforms);
          for (const auto& f : rep.findings) {
            if (f.severity >= core::LintSeverity::kWarning) {
              MORPH_LOG_WARN("fmtsvc")
                  << "register '" << entry.format->name() << "': " << f.to_string();
            }
          }
          if (options_.lint == core::LintPolicy::kEnforce && !rep.ok()) {
            counters_.lint_rejected.fetch_add(1, kRelaxed);
            svc().lint_rejected.inc();
            reply.status = Status::kRejected;
            continue;  // reject this entry, keep processing the rest
          }
        }
        if (options_.audit != analysis::AuditPolicy::kOff && entry.format != nullptr) {
          // Audit the candidate against the current store contents plus the
          // declared live readers. REGISTERs are control-plane rare, so
          // rebuilding the universe per entry is fine — and it guarantees
          // the gate sees entries accepted earlier in this same request.
          analysis::AuditUniverse universe;
          for (const FormatEntry& stored : store_.list()) {
            universe.add(stored.format, stored.transforms);
          }
          for (uint64_t fp : options_.live_readers) universe.declare_live(fp);
          auto findings = analysis::audit_candidate(universe, entry.format, entry.transforms);
          bool breaking = false;
          for (const auto& f : findings) {
            if (f.severity >= core::LintSeverity::kWarning) {
              MORPH_LOG_WARN("fmtsvc")
                  << "register '" << entry.format->name() << "': " << f.to_string();
            }
            breaking = breaking || f.severity == core::LintSeverity::kError;
          }
          if (breaking) {
            if (options_.audit == analysis::AuditPolicy::kEnforce) {
              counters_.audit_rejected.fetch_add(1, kRelaxed);
              svc().audit_rejected.inc();
              reply.status = Status::kRejected;
              continue;
            }
            counters_.audit_warned.fetch_add(1, kRelaxed);
            svc().audit_warned.inc();
          }
        }
        if (store_.put(entry)) counters_.registered.fetch_add(1, kRelaxed);
        ++reply.accepted;
      }
      svc().store_formats.set(static_cast<double>(store_.size()));
      break;
    }
    case Op::kFetch:
    case Op::kFetchMulti: {
      (req.op == Op::kFetch ? svc().req_fetch : svc().req_fetch_multi).inc();
      for (uint64_t fp : req.fingerprints) {
        ReplyItem item;
        item.fingerprint = fp;
        if (auto entry = store_.get(fp)) {
          item.found = true;
          item.entry = std::move(*entry);
        } else {
          counters_.not_found.fetch_add(1, kRelaxed);
          svc().not_found.inc();
          if (req.op == Op::kFetch) reply.status = Status::kNotFound;
        }
        reply.items.push_back(std::move(item));
      }
      break;
    }
    case Op::kList: {
      svc().req_list.inc();
      for (FormatEntry& entry : store_.list()) {
        if (reply.items.size() >= kMaxEntriesPerRequest) break;  // protocol cap
        ReplyItem item;
        item.fingerprint = entry.format->fingerprint();
        item.found = true;
        item.entry = std::move(entry);
        reply.items.push_back(std::move(item));
      }
      break;
    }
  }
  return reply;
}

}  // namespace morph::fmtsvc
