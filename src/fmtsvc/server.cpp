#include "fmtsvc/server.hpp"

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "transport/framing.hpp"

namespace morph::fmtsvc {

namespace {
using C = ServiceStats::Id;

/// Process-wide service gauges and span histogram (the counters live in
/// each FormatService's CounterSet).
struct SvcMetrics {
  obs::Gauge& store_formats = obs::metrics().gauge(obs::Metric::morph_fmtsvc_store_formats);
  obs::Gauge& live_conns = obs::metrics().gauge(obs::Metric::morph_fmtsvc_server_connections);
  obs::Histogram& handle_ns =
      obs::metrics().histogram(obs::Metric::morph_span_ns, {"fmtsvc.handle"});
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
  counters_.inc(C::connections);
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
      counters_.inc(C::bad_frames);
      MORPH_LOG_WARN("fmtsvc") << "connection dropped: " << e.what();
      l->close();
    }
  });
}

Reply FormatService::handle(const Request& req) {
  counters_.inc(C::requests);
  Reply reply;
  reply.op = req.op;
  reply.request_id = req.request_id;

  switch (req.op) {
    case Op::kRegister: {
      counters_.inc(C::register_requests);
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
            counters_.inc(C::lint_rejected);
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
              counters_.inc(C::audit_rejected);
              reply.status = Status::kRejected;
              continue;
            }
            counters_.inc(C::audit_warned);
          }
        }
        if (store_.put(entry)) counters_.inc(C::registered);
        ++reply.accepted;
      }
      svc().store_formats.set(static_cast<double>(store_.size()));
      break;
    }
    case Op::kFetch:
    case Op::kFetchMulti: {
      counters_.inc(req.op == Op::kFetch ? C::fetch_requests : C::fetch_multi_requests);
      for (uint64_t fp : req.fingerprints) {
        ReplyItem item;
        item.fingerprint = fp;
        if (auto entry = store_.get(fp)) {
          item.found = true;
          item.entry = std::move(*entry);
        } else {
          counters_.inc(C::not_found);
          if (req.op == Op::kFetch) reply.status = Status::kNotFound;
        }
        reply.items.push_back(std::move(item));
      }
      break;
    }
    case Op::kList: {
      counters_.inc(C::list_requests);
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
