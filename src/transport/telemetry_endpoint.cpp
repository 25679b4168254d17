#include "transport/telemetry_endpoint.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "transport/framing.hpp"

namespace morph::transport {

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;

/// Process-wide exporter metrics, resolved once.
struct ExportMetrics {
  obs::Counter& batches = obs::metrics().counter("morph_telemetry_export_batches_total");
  obs::Counter& spans = obs::metrics().counter("morph_telemetry_export_spans_total");
  obs::Counter& dropped = obs::metrics().counter("morph_telemetry_export_dropped_total");
  obs::Counter& send_failures =
      obs::metrics().counter("morph_telemetry_export_send_failures_total");
  // Conservation inputs, read (not owned) by name: how many morphs this
  // process performed and how many spans the ring already evicted. The
  // lookups create the counters at zero when the instrumented code never
  // ran — harmless, and it keeps obs free of upward dependencies.
  obs::Counter& rx_morphs = obs::metrics().counter("morph_rx_morphs_total");
  obs::Counter& fanout_morphs = obs::metrics().counter("echo_fanout_morphs_total");
  obs::Counter& ring_dropped = obs::metrics().counter("morph_obs_spans_dropped_total");
};

ExportMetrics& xm() {
  static ExportMetrics& m = *new ExportMetrics();  // leaked: outlives static dtors
  return m;
}

/// Process-wide collector metrics.
struct CollectorMetrics {
  obs::Counter& batches = obs::metrics().counter("morph_telemetry_batches_total");
  obs::Counter& spans = obs::metrics().counter("morph_telemetry_spans_total");
  obs::Counter& dumps = obs::metrics().counter("morph_telemetry_dumps_total");
  obs::Counter& bad_frames = obs::metrics().counter("morph_telemetry_bad_frames_total");
  obs::Gauge& live_conns = obs::metrics().gauge("morph_telemetry_connections");
};

CollectorMetrics& cm() {
  static CollectorMetrics& m = *new CollectorMetrics();  // leaked
  return m;
}

}  // namespace

SpanExporter::SpanExporter(ExporterOptions options) : options_(std::move(options)) {
  if (options_.enable_tracing) obs::set_tracing(true);
  thread_ = std::thread([this] { run(); });
}

SpanExporter::~SpanExporter() {
  stop_.store(true, kRelaxed);
  wake_.notify_all();
  thread_.join();
  flush();  // last chance for spans recorded since the final cycle
}

void SpanExporter::run() {
  std::unique_lock<std::mutex> wake_lock(wake_mutex_);
  while (!stop_.load(kRelaxed)) {
    wake_.wait_for(wake_lock, std::chrono::milliseconds(options_.interval_ms),
                   [this] { return stop_.load(kRelaxed); });
    if (stop_.load(kRelaxed)) break;
    std::lock_guard<std::mutex> cycle(cycle_mutex_);
    push_pending_locked();
  }
}

bool SpanExporter::flush() {
  std::lock_guard<std::mutex> cycle(cycle_mutex_);
  return push_pending_locked();
}

bool SpanExporter::push_pending_locked() {
  auto drained = obs::drain_spans();
  pending_.insert(pending_.end(), std::make_move_iterator(drained.begin()),
                  std::make_move_iterator(drained.end()));
  if (pending_.size() > options_.max_pending) {
    size_t excess = pending_.size() - options_.max_pending;
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<ptrdiff_t>(excess));
    xm().dropped.add(excess);
  }
  if (pending_.empty()) return true;

  while (!pending_.empty()) {
    size_t take = std::min(pending_.size(), static_cast<size_t>(obs::kMaxSpansPerBatch));
    obs::SpanBatch batch;
    batch.process = obs::process_name();
    batch.spans.assign(std::make_move_iterator(pending_.begin()),
                       std::make_move_iterator(pending_.begin() + static_cast<ptrdiff_t>(take)));
    batch.exported_total = exported_.load(kRelaxed) + take;
    batch.dropped_total = xm().ring_dropped.value() + xm().dropped.value();
    batch.morphs_total = xm().rx_morphs.value() + xm().fanout_morphs.value();
    auto payload = obs::encode_span_batch(batch);
    ByteBuffer frame;
    write_frame(frame, FrameType::kTelemetry, payload.data(), payload.size());
    try {
      if (link_ == nullptr || !link_->connected()) {
        link_ = TcpLink::connect(options_.host, options_.port);
      }
      link_->send(frame);
    } catch (const Error&) {
      // Collector down or mid-restart: put the spans back (order
      // preserved) and retry with a fresh connection next cycle.
      xm().send_failures.inc();
      link_.reset();
      for (size_t i = 0; i < take; ++i) {
        pending_[i] = std::move(batch.spans[i]);
      }
      return false;
    }
    pending_.erase(pending_.begin(), pending_.begin() + static_cast<ptrdiff_t>(take));
    exported_.fetch_add(take, kRelaxed);
    xm().batches.inc();
    xm().spans.add(take);
  }
  return true;
}

TelemetryCollector::TelemetryCollector(CollectorOptions options)
    : listener_(options.port),
      server_(
          listener_,
          // A dump is one reply of up to a full frame; it must never be
          // what overflows its own connection's outbox.
          ReactorOptions{.max_outbox_bytes = kMaxFrameBytes,
                         .max_connections = options.max_connections},
          [this](AsyncTcpLink& link) { serve_conn(link); }) {}

CollectorStats TelemetryCollector::stats() const {
  CollectorStats s;
  s.connections = counters_.connections.load(kRelaxed);
  s.batches = counters_.batches.load(kRelaxed);
  s.spans = counters_.spans.load(kRelaxed);
  s.dumps = counters_.dumps.load(kRelaxed);
  s.bad_frames = counters_.bad_frames.load(kRelaxed);
  return s;
}

void TelemetryCollector::serve_conn(AsyncTcpLink& link) {
  // Per-connection state dies with the connection, at close or when the
  // collector stops, so the live gauge stays exact either way.
  struct ConnState {
    ConnState() { cm().live_conns.add(1); }
    ~ConnState() { cm().live_conns.add(-1); }
    FrameAssembler assembler;
  };
  counters_.connections.fetch_add(1, kRelaxed);
  auto state = std::make_shared<ConnState>();
  link.set_user(state);
  AsyncTcpLink* l = &link;
  link.set_on_data([this, l, a = &state->assembler](const uint8_t* data, size_t size) {
    try {
      a->feed(data, size, [this, l](Frame& frame) {
        if (frame.type != FrameType::kTelemetry) {
          throw TransportError("telemetry: unexpected frame type on collector connection");
        }
        uint8_t op = obs::telemetry_op(frame.payload.data(), frame.payload.size());
        if (op == static_cast<uint8_t>(obs::TelemetryOp::kSpanBatch)) {
          auto batch = obs::decode_span_batch(frame.payload.data(), frame.payload.size());
          counters_.batches.fetch_add(1, kRelaxed);
          counters_.spans.fetch_add(batch.spans.size(), kRelaxed);
          cm().batches.inc();
          cm().spans.add(batch.spans.size());
          stitcher_.ingest(batch);
        } else if (op == static_cast<uint8_t>(obs::TelemetryOp::kDumpRequest)) {
          counters_.dumps.fetch_add(1, kRelaxed);
          cm().dumps.inc();
          auto payload = obs::encode_dump_reply(stitcher_.to_json());
          ByteBuffer out;
          write_frame(out, FrameType::kTelemetry, payload.data(), payload.size());
          l->send(out);
        } else {
          throw DecodeError("telemetry: unknown op " + std::to_string(op));
        }
      });
    } catch (const Error& e) {
      // Malformed frame: this connection is done, the collector keeps
      // serving everyone else.
      counters_.bad_frames.fetch_add(1, kRelaxed);
      cm().bad_frames.inc();
      MORPH_LOG_WARN("telemetry") << "connection dropped: " << e.what();
      l->close();
    }
  });
}

std::string fetch_telemetry_dump(const std::string& host, uint16_t port, uint32_t timeout_ms) {
  auto link = TcpLink::connect(host, port);
  auto request = obs::encode_dump_request();
  ByteBuffer frame;
  write_frame(frame, FrameType::kTelemetry, request.data(), request.size());
  link->send(frame);

  FrameAssembler assembler;
  std::string json;
  bool got_reply = false;
  link->set_on_data([&](const uint8_t* data, size_t size) {
    assembler.feed(data, size, [&](Frame& f) {
      if (f.type != FrameType::kTelemetry) {
        throw TransportError("telemetry: unexpected frame type in dump reply");
      }
      json = obs::decode_dump_reply(f.payload.data(), f.payload.size());
      got_reply = true;
    });
  });
  // Pump until the reply lands or the deadline passes. pump() returns as
  // soon as any bytes arrive, so the budget is wall-clock time, not a count
  // of pump calls.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (!got_reply) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0 || !link->pump(static_cast<int>(left))) break;
  }
  if (!got_reply) throw TransportError("telemetry: no dump reply from collector");
  return json;
}

}  // namespace morph::transport
