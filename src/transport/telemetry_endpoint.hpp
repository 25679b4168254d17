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
  uint64_t exported() const { return exported_.load(std::memory_order_relaxed); }

 private:
  void run();
  bool push_pending_locked();  // requires cycle_mutex_

  ExporterOptions options_;
  std::atomic<uint64_t> exported_{0};
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

struct CollectorStats {
  uint64_t connections = 0;
  uint64_t batches = 0;
  uint64_t spans = 0;
  uint64_t dumps = 0;
  uint64_t bad_frames = 0;
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
  CollectorStats stats() const;

  const obs::TraceStitcher& stitcher() const { return stitcher_; }

 private:
  void serve_conn(AsyncTcpLink& link);

  obs::TraceStitcher stitcher_;
  TcpListener listener_;

  struct Counters {
    std::atomic<uint64_t> connections{0};
    std::atomic<uint64_t> batches{0};
    std::atomic<uint64_t> spans{0};
    std::atomic<uint64_t> dumps{0};
    std::atomic<uint64_t> bad_frames{0};
  };
  mutable Counters counters_;

  // Declared last: serving starts after every other member exists and
  // stops (joining the loop) before any of them is destroyed.
  ReactorServer server_;
};

/// One-shot client: ask a running collector for its stitched-state JSON.
/// Throws TransportError/DecodeError on connection or protocol failure.
std::string fetch_telemetry_dump(const std::string& host, uint16_t port,
                                 uint32_t timeout_ms = 5000);

}  // namespace morph::transport
