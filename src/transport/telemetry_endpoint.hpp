// Telemetry plane endpoints: the per-process SpanExporter that drains the
// span ring into kTelemetry frames, and the TelemetryCollector service
// that ingests batches from many processes and stitches them.
//
// SpanExporter is deliberately lock-light on the instrumented paths: spans
// land in the obs span ring exactly as before, and a background thread
// drains the ring (one mutexed move) every interval and ships a
// morph-telemetry-v1 span batch. Failed sends keep spans in a bounded
// pending buffer and retry with a fresh connection next tick; overflow is
// dropped-oldest and counted (morph_telemetry_export_dropped_total), never
// silent.
//
// TelemetryCollector serves like fmtsvc::FormatService: one ReactorServer
// event loop handles every exporter and dump client, each connection's
// FrameAssembler lives in its link's user slot, and a malformed frame kills
// only its own connection (counted in morph_telemetry_bad_frames_total).
#pragma once

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stitch.hpp"
#include "obs/telemetry.hpp"
#include "transport/reactor.hpp"
#include "transport/tcp.hpp"

namespace morph::transport {

struct ExporterOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;          // collector port (required)
  uint32_t interval_ms = 50;  // drain cadence
  /// Spans kept across failed sends; beyond this the oldest are dropped
  /// and counted.
  size_t max_pending = 8192;
  /// Exporting implies tracing: without it the ring never fills and the
  /// exporter ships nothing. Set false to leave the global switch alone.
  bool enable_tracing = true;
};

/// The exporter's counters: ExporterStats field and catalog series.
#define MORPH_EXPORTER_COUNTERS(X)                             \
  X(batches, morph_telemetry_export_batches_total)             \
  X(spans, morph_telemetry_export_spans_total)                 \
  X(dropped, morph_telemetry_export_dropped_total)             \
  X(send_failures, morph_telemetry_export_send_failures_total)

struct ExporterStats {
  MORPH_STATS(ExporterStats, MORPH_EXPORTER_COUNTERS)
};

/// Background span shipper. Construct after set_process_name() (the name
/// is stamped on every batch); destruction flushes once more, best effort.
class SpanExporter {
 public:
  explicit SpanExporter(ExporterOptions options);
  ~SpanExporter();

  SpanExporter(const SpanExporter&) = delete;
  SpanExporter& operator=(const SpanExporter&) = delete;

  /// Drain the ring and push everything pending to the collector now.
  /// Returns true when the pending buffer is empty afterwards.
  bool flush();

  /// Cumulative spans successfully written to the collector.
  uint64_t exported() const { return counters_.load().spans; }

 private:
  void run();
  bool push_pending_locked();  // requires cycle_mutex_

  ExporterOptions options_;
  obs::CounterSet<ExporterStats> counters_;
  std::atomic<bool> stop_{false};

  std::mutex cycle_mutex_;  // serializes flush() against the thread's cycles
  std::vector<obs::SpanRecord> pending_;
  std::unique_ptr<TcpLink> link_;  // lazy; reset on send failure

  std::mutex wake_mutex_;
  std::condition_variable wake_;
  std::thread thread_;  // initialized last
};

struct CollectorOptions {
  uint16_t port = 0;  // 0 picks an ephemeral port; read back with port()
  size_t max_connections = 64;
};

/// The collector's counters: CollectorStats field and catalog
/// series, or none for the per-instance connection total.
#define MORPH_COLLECTOR_COUNTERS(X)               \
  X(connections)                                  \
  X(batches, morph_telemetry_batches_total)       \
  X(spans, morph_telemetry_spans_total)           \
  X(dumps, morph_telemetry_dumps_total)           \
  X(bad_frames, morph_telemetry_bad_frames_total)

struct CollectorStats {
  MORPH_STATS(CollectorStats, MORPH_COLLECTOR_COUNTERS)
};

/// Telemetry ingest service. Accepts kTelemetry frames: span batches feed
/// the stitcher, dump requests are answered with the stitched state as
/// morph-telemetry-v1 JSON.
class TelemetryCollector {
 public:
  explicit TelemetryCollector(CollectorOptions options = {});

  TelemetryCollector(const TelemetryCollector&) = delete;
  TelemetryCollector& operator=(const TelemetryCollector&) = delete;

  uint16_t port() const { return listener_.port(); }
  CollectorStats stats() const { return counters_.load(); }

  const obs::TraceStitcher& stitcher() const { return stitcher_; }

 private:
  void serve_conn(AsyncTcpLink& link);

  obs::TraceStitcher stitcher_;
  TcpListener listener_;

  obs::CounterSet<CollectorStats> counters_;

  // Declared last: serving starts after every other member exists and
  // stops (joining the loop) before any of them is destroyed.
  ReactorServer server_;
};

/// One-shot client: ask a running collector for its stitched-state JSON.
/// Throws TransportError/DecodeError on connection or protocol failure.
std::string fetch_telemetry_dump(const std::string& host, uint16_t port,
                                 uint32_t timeout_ms = 5000);

}  // namespace morph::transport
