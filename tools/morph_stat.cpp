// morph-stat: inspect the middleware's metrics from the command line.
//
//   morph-stat DUMP.json                  render one snapshot as tables
//   morph-stat --scrape HOST:PORT         fetch the JSON snapshot from a
//                                         live StatsServer, then render it
//   morph-stat --delta OLD.json NEW.json  what happened between two dumps
//                                         (counters and histogram volumes
//                                         subtract; gauges show old -> new)
//   morph-stat --check DUMP.json          validate the dump: schema tag,
//                                         percentile ordering, bucket sums,
//                                         receiver outcome conservation,
//                                         fusion conservation (every morphed
//                                         outcome ran fused or hop-wise),
//                                         and echo fan-out conservation
//                                         (morphs <= encodes <= deliveries).
//                                         Exit 1 on any violation.
//   morph-stat --spans DUMP.json          also print the captured trace
//                                         spans, grouped by trace id
//   morph-stat --flight DUMP.json         also print the flight-recorder
//                                         ring (rejects, resolver retries,
//                                         fan-out fallbacks, slow morphs)
//
// Both commands also accept a morph-telemetry-v1 document (a collector
// dump from `morph-trace dump`): rendering shows the per-process ledger,
// stitched traces, and the morph-attribution table; --check validates span
// conservation (every span a process exported was ingested; attributed
// morph spans reconcile with the counters).
//
// Flags combine: `morph-stat --check --scrape 127.0.0.1:9464` validates a
// live endpoint. Histogram times are stored in nanoseconds and rendered
// with auto-scaled units.
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "obs/json.hpp"
#include "transport/tcp.hpp"

namespace {

using morph::obs::JsonValue;

struct HistRow {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  uint64_t p50 = 0, p90 = 0, p99 = 0;
  std::vector<std::pair<uint64_t, uint64_t>> buckets;  // (upper, count)
};

struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistRow> histograms;
  const JsonValue* spans = nullptr;   // borrowed from the parsed document
  const JsonValue* flight = nullptr;  // borrowed from the parsed document
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "morph-stat: %s\n", msg.c_str());
  std::exit(2);  // NOLINT(concurrency-mt-unsafe) — single-threaded CLI
}

Snapshot load_snapshot(const JsonValue& doc) {
  Snapshot s;
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != "morph-metrics-v1") {
    die("not a morph-metrics-v1 document");
  }
  if (const JsonValue* c = doc.find("counters")) {
    for (const auto& [name, v] : c->as_object()) s.counters[name] = v.as_u64();
  }
  if (const JsonValue* g = doc.find("gauges")) {
    for (const auto& [name, v] : g->as_object()) s.gauges[name] = v.as_number();
  }
  if (const JsonValue* h = doc.find("histograms")) {
    for (const auto& [name, v] : h->as_object()) {
      HistRow row;
      row.count = v.at("count").as_u64();
      row.sum = v.at("sum").as_u64();
      row.max = v.at("max").as_u64();
      row.p50 = v.at("p50").as_u64();
      row.p90 = v.at("p90").as_u64();
      row.p99 = v.at("p99").as_u64();
      for (const auto& b : v.at("buckets").as_array()) {
        const auto& pair = b.as_array();
        if (pair.size() != 2) die("histogram bucket is not an [upper, count] pair");
        row.buckets.emplace_back(pair[0].as_u64(), pair[1].as_u64());
      }
      s.histograms[name] = std::move(row);
    }
  }
  s.spans = doc.find("spans");
  s.flight = doc.find("flight");
  return s;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) die("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Minimal HTTP/1.0 GET against a StatsServer; returns the body.
std::string scrape(const std::string& target) {
  size_t colon = target.rfind(':');
  if (colon == std::string::npos) die("--scrape wants HOST:PORT");
  std::string host = target.substr(0, colon);
  int port = std::atoi(target.c_str() + colon + 1);
  if (port <= 0 || port > 65535) die("bad port in " + target);

  auto link = morph::transport::TcpLink::connect(host, static_cast<uint16_t>(port));
  std::string request = "GET / HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  link->send(request.data(), request.size());

  std::string response;
  link->set_on_data([&](const uint8_t* d, size_t n) {
    response.append(reinterpret_cast<const char*>(d), n);
  });
  while (link->pump(2000)) {
  }
  size_t body = response.find("\r\n\r\n");
  if (body == std::string::npos) die("malformed HTTP response from " + target);
  return response.substr(body + 4);
}

const char* unit_suffix(double& v) {
  if (v >= 1e9) { v /= 1e9; return "s "; }
  if (v >= 1e6) { v /= 1e6; return "ms"; }
  if (v >= 1e3) { v /= 1e3; return "us"; }
  return "ns";
}

std::string fmt_ns(uint64_t ns) {
  double v = static_cast<double>(ns);
  const char* u = unit_suffix(v);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%8.2f %s", v, u);
  return buf;
}

/// Digest of the out-of-band format service, client and server side. Only
/// printed when fmtsvc metrics are present in the dump.
void render_fmtsvc(const Snapshot& s) {
  auto counter = [&](const std::string& n) -> uint64_t {
    auto it = s.counters.find(n);
    return it == s.counters.end() ? 0 : it->second;
  };
  bool any = false;
  for (const auto& [name, v] : s.counters) {
    if (name.rfind("morph_fmtsvc_", 0) == 0 && v > 0) {
      any = true;
      break;
    }
  }
  if (!any) return;

  std::printf("== format service ==\n");
  uint64_t resolves = counter("morph_fmtsvc_client_resolves_total");
  uint64_t cached = counter("morph_fmtsvc_client_resolve_total{result=\"cached\"}");
  uint64_t negative = counter("morph_fmtsvc_client_resolve_total{result=\"negative\"}");
  uint64_t fetched = counter("morph_fmtsvc_client_resolve_total{result=\"fetched\"}");
  uint64_t failed = counter("morph_fmtsvc_client_resolve_total{result=\"failed\"}");
  uint64_t stampede = counter("morph_fmtsvc_client_resolve_total{result=\"stampede\"}");
  if (resolves > 0) {
    double hit_rate = 100.0 * static_cast<double>(cached + negative) /
                      static_cast<double>(resolves);
    std::printf("  client: %" PRIu64 " resolves (%.1f%% cache), %" PRIu64 " fetched, %" PRIu64
                " failed, %" PRIu64 " shared flights\n",
                resolves, hit_rate, fetched, failed, stampede);
    std::printf("  client: %" PRIu64 " rpcs, %" PRIu64 " retries, %" PRIu64 " published\n",
                counter("morph_fmtsvc_client_rpcs_total"),
                counter("morph_fmtsvc_client_retries_total"),
                counter("morph_fmtsvc_client_published_total"));
  }
  uint64_t requests = 0;
  for (const auto& [name, v] : s.counters) {
    if (name.rfind("morph_fmtsvc_requests_total{", 0) == 0) requests += v;
  }
  if (requests > 0) {
    std::printf("  server: %" PRIu64 " requests, %" PRIu64 " not-found, %" PRIu64
                " lint-rejected, %" PRIu64 " bad frames\n",
                requests, counter("morph_fmtsvc_server_not_found_total"),
                counter("morph_fmtsvc_server_lint_rejected_total"),
                counter("morph_fmtsvc_server_bad_frames_total"));
    uint64_t audit_rejected = counter("morph_fmtsvc_server_audit_rejected_total");
    uint64_t audit_warned = counter("morph_fmtsvc_server_audit_warned_total");
    if (audit_rejected + audit_warned > 0) {
      std::printf("  server audit: %" PRIu64 " rejected, %" PRIu64 " warned\n", audit_rejected,
                  audit_warned);
    }
  }
  uint64_t rx_fetched = counter("morph_rx_resolve_total{result=\"fetched\"}");
  uint64_t rx_degraded = counter("morph_rx_resolve_total{result=\"degraded\"}");
  if (rx_fetched + rx_degraded > 0) {
    std::printf("  receiver: %" PRIu64 " formats fetched out-of-band, %" PRIu64
                " degraded to inline\n",
                rx_fetched, rx_degraded);
  }
}

/// Digest of chain-fusion activity: how often decision builds produced a
/// fused chain, and how morphs actually executed. Only printed when the
/// receiver compiled at least one chain.
void render_fusion(const Snapshot& s) {
  auto counter = [&](const std::string& n) -> uint64_t {
    auto it = s.counters.find(n);
    return it == s.counters.end() ? 0 : it->second;
  };
  uint64_t fused_builds = counter("morph_rx_chain_fusion_total{result=\"fused\"}");
  uint64_t bailouts = counter("morph_rx_chain_fusion_total{result=\"bailout\"}");
  if (fused_builds + bailouts == 0) return;

  std::printf("== fusion ==\n");
  std::printf("  chains: %" PRIu64 " fused, %" PRIu64 " bailed out to hop-wise\n",
              fused_builds, bailouts);
  uint64_t fused = counter("morph_rx_fused_total");
  uint64_t hopwise = counter("morph_rx_hopwise_total");
  if (fused + hopwise > 0) {
    double pct = 100.0 * static_cast<double>(fused) / static_cast<double>(fused + hopwise);
    std::printf("  morphs: %" PRIu64 " fused (%.1f%%), %" PRIu64 " hop-wise, %" PRIu64
                " fed by in-place decode\n",
                fused, pct, hopwise, counter("morph_rx_morph_inplace_total"));
  }
  auto hist = s.histograms.find("morph_rx_chain_hops");
  if (hist != s.histograms.end() && hist->second.count > 0) {
    const HistRow& h = hist->second;
    std::printf("  chain length: %" PRIu64 " builds, mean %.1f hops, max %" PRIu64 " hops\n",
                h.count, static_cast<double>(h.sum) / static_cast<double>(h.count), h.max);
  }
}

/// Digest of echo broker activity: request/response morphing and the
/// format-grouped event fan-out. Only printed when echo metrics are present.
void render_echo(const Snapshot& s) {
  auto counter = [&](const std::string& n) -> uint64_t {
    auto it = s.counters.find(n);
    return it == s.counters.end() ? 0 : it->second;
  };
  uint64_t responses = counter("morph_echo_responses_total");
  uint64_t rx_events = counter("morph_echo_events_total");
  uint64_t fan_events = counter("echo_fanout_events_total");
  if (responses + rx_events + fan_events == 0) return;

  std::printf("== echo ==\n");
  if (responses > 0) {
    std::printf("  responses: %" PRIu64 " delivered, %" PRIu64 " morphed (%" PRIu64
                " open requests)\n",
                responses, counter("morph_echo_responses_morphed_total"),
                counter("morph_echo_open_requests_total"));
  }
  if (rx_events > 0) {
    std::printf("  events: %" PRIu64 " received at sinks, %" PRIu64 " morphed sink-side\n",
                rx_events, counter("morph_echo_events_morphed_total"));
  }
  if (fan_events > 0) {
    uint64_t morphs = counter("echo_fanout_morphs_total");
    uint64_t deliveries = counter("echo_fanout_deliveries_total");
    std::printf("  fan-out: %" PRIu64 " events -> %" PRIu64 " deliveries (%.1f sinks/event), %"
                PRIu64 " morphs (%.2f/event), %" PRIu64 " encodes, %" PRIu64 " fallbacks\n",
                fan_events, deliveries,
                static_cast<double>(deliveries) / static_cast<double>(fan_events), morphs,
                static_cast<double>(morphs) / static_cast<double>(fan_events),
                counter("echo_fanout_encodes_total"), counter("echo_fanout_fallback_total"));
    uint64_t plans = counter("morph_fanout_plans_total{result=\"built\"}");
    uint64_t hits = counter("morph_fanout_plans_total{result=\"hit\"}");
    if (plans + hits > 0) {
      std::printf("  fan-out plans: %" PRIu64 " built, %" PRIu64 " cache hits, %" PRIu64
                  " unreachable, %" PRIu64 " flushes\n",
                  plans, hits, counter("morph_fanout_plans_total{result=\"unreachable\"}"),
                  counter("morph_fanout_cache_flushes_total"));
    }
  }
}

/// Digest of the protobuf interop bridge: frames crossing the ecosystem
/// boundary, their fate (decoded vs rejected), and the transport/fan-out
/// paths carrying them. Only printed when pbuf metrics are present.
void render_pbuf(const Snapshot& s) {
  auto counter = [&](const std::string& n) -> uint64_t {
    auto it = s.counters.find(n);
    return it == s.counters.end() ? 0 : it->second;
  };
  uint64_t frames_in = counter("morph_pbuf_frames_in_total");
  uint64_t encoded = counter("morph_pbuf_encoded_total");
  if (frames_in + encoded == 0) return;

  std::printf("== pbuf bridge ==\n");
  uint64_t decoded = counter("morph_pbuf_decoded_total");
  uint64_t rejected = counter("morph_pbuf_rejected_total");
  std::printf("  frames: %" PRIu64 " in -> %" PRIu64 " decoded, %" PRIu64 " rejected (%s), %"
              PRIu64 " unknown fields skipped\n",
              frames_in, decoded, rejected,
              frames_in == decoded + rejected ? "conserved" : "NOT CONSERVED",
              counter("morph_pbuf_unknown_fields_total"));
  std::printf("  encodes: %" PRIu64 " records to protobuf wire\n", encoded);
  uint64_t port_sent = counter("morph_port_frames_sent_total{type=\"pbuf\"}");
  uint64_t port_received = counter("morph_port_frames_received_total{type=\"pbuf\"}");
  uint64_t port_rejects = counter("morph_port_pbuf_rejects_total");
  if (port_sent + port_received + port_rejects > 0) {
    std::printf("  transport: %" PRIu64 " pbuf frames sent, %" PRIu64 " received, %" PRIu64
                " rejected (contained per-frame)\n",
                port_sent, port_received, port_rejects);
  }
  uint64_t fanout_pbuf = counter("echo_fanout_pbuf_encodes_total");
  if (fanout_pbuf > 0) {
    std::printf("  fan-out: %" PRIu64 " group encodes to protobuf (of %" PRIu64
                " total encodes)\n",
                fanout_pbuf, counter("echo_fanout_encodes_total"));
  }
}

/// Digest of the reactor transport: connection population, event-loop and
/// dispatch latency, and the failure/defense counters (idle reaps,
/// backpressure closes, counted drops). Only printed when a reactor ran.
void render_transport(const Snapshot& s) {
  auto counter = [&](const std::string& n) -> uint64_t {
    auto it = s.counters.find(n);
    return it == s.counters.end() ? 0 : it->second;
  };
  uint64_t accepted = counter("morph_reactor_accepted_total");
  if (accepted == 0) return;

  std::printf("== reactor transport ==\n");
  auto gauge = [&](const std::string& n) -> double {
    auto it = s.gauges.find(n);
    return it == s.gauges.end() ? 0.0 : it->second;
  };
  std::printf("  connections: %.0f live (%.0f KB queued), %" PRIu64 " accepted, %" PRIu64
              " closed, %" PRIu64 " refused\n",
              gauge("morph_reactor_connections"),
              gauge("morph_reactor_outbox_bytes") / 1024.0, accepted,
              counter("morph_reactor_closed_total"), counter("morph_reactor_refused_total"));
  auto hist = s.histograms.find("morph_reactor_loop_ns");
  if (hist != s.histograms.end() && hist->second.count > 0) {
    const HistRow& h = hist->second;
    std::printf("  loop: %" PRIu64 " wakeups with work, p50 %s, p99 %s\n", h.count,
                fmt_ns(h.p50).c_str(), fmt_ns(h.p99).c_str());
    const uint64_t sendmsg = counter("morph_reactor_sendmsg_total");
    const uint64_t readv = counter("morph_reactor_readv_total");
    const uint64_t waits = counter("morph_reactor_epoll_waits_total");
    std::printf("  syscalls: %.2f per loop iteration with work (%" PRIu64 " sendmsg, %" PRIu64
                " readv, %" PRIu64 " epoll_wait)\n",
                static_cast<double>(sendmsg + readv + waits) / static_cast<double>(h.count),
                sendmsg, readv, waits);
  }
  hist = s.histograms.find("morph_reactor_dispatch_ns");
  if (hist != s.histograms.end() && hist->second.count > 0) {
    const HistRow& h = hist->second;
    std::printf("  dispatch: %" PRIu64 " batches, p50 %s, p99 %s\n", h.count,
                fmt_ns(h.p50).c_str(), fmt_ns(h.p99).c_str());
  }
  uint64_t idle = counter("morph_reactor_idle_timeouts_total");
  uint64_t bp = counter("morph_reactor_backpressure_closes_total");
  uint64_t drops = counter("morph_reactor_send_drops_total");
  uint64_t bad = counter("morph_reactor_bad_callbacks_total");
  if (idle + bp + drops + bad > 0) {
    std::printf("  defenses: %" PRIu64 " idle reaps, %" PRIu64 " backpressure closes, %" PRIu64
                " counted send drops, %" PRIu64 " callback faults contained\n",
                idle, bp, drops, bad);
  }
}

void render(const Snapshot& s, bool with_spans, bool with_flight) {
  render_fmtsvc(s);
  render_fusion(s);
  render_echo(s);
  render_pbuf(s);
  render_transport(s);
  auto counter = [&](const std::string& n) -> uint64_t {
    auto it = s.counters.find(n);
    return it == s.counters.end() ? 0 : it->second;
  };
  uint64_t ring_dropped = counter("morph_obs_spans_dropped_total");
  uint64_t export_dropped = counter("morph_telemetry_export_dropped_total");
  if (ring_dropped + export_dropped > 0) {
    std::printf("WARNING: %" PRIu64 " spans evicted from the ring and %" PRIu64
                " dropped by the exporter — traces are incomplete; raise the ring\n"
                "         capacity or the export rate before trusting attribution\n",
                ring_dropped, export_dropped);
  }
  if (!s.counters.empty()) {
    std::printf("== counters ==\n");
    for (const auto& [name, v] : s.counters) std::printf("  %-56s %12" PRIu64 "\n", name.c_str(), v);
  }
  if (!s.gauges.empty()) {
    std::printf("== gauges ==\n");
    for (const auto& [name, v] : s.gauges) std::printf("  %-56s %12.4f\n", name.c_str(), v);
  }
  if (!s.histograms.empty()) {
    std::printf("== histograms ==\n");
    std::printf("  %-44s %10s %11s %11s %11s %11s %11s\n", "name", "count", "mean", "p50", "p90",
                "p99", "max");
    for (const auto& [name, h] : s.histograms) {
      uint64_t mean = h.count > 0 ? h.sum / h.count : 0;
      std::printf("  %-44s %10" PRIu64 " %s %s %s %s %s\n", name.c_str(), h.count,
                  fmt_ns(mean).c_str(), fmt_ns(h.p50).c_str(), fmt_ns(h.p90).c_str(),
                  fmt_ns(h.p99).c_str(), fmt_ns(h.max).c_str());
    }
  }
  if (with_spans && s.spans != nullptr) {
    std::printf("== spans ==\n");
    for (const auto& span : s.spans->as_array()) {
      std::printf("  %-20s trace=%s start=%12" PRIu64 " dur=%s thread=%" PRIu64 "\n",
                  span.at("name").as_string().c_str(), span.at("trace").as_string().c_str(),
                  span.at("start_ns").as_u64(), fmt_ns(span.at("dur_ns").as_u64()).c_str(),
                  span.at("thread").as_u64());
    }
  }
  if (with_flight && s.flight != nullptr) {
    std::printf("== flight recorder ==\n");
    for (const auto& e : s.flight->as_array()) {
      std::printf("  [%-15s] t=%12" PRIu64 " trace=%s %s\n", e.at("kind").as_string().c_str(),
                  e.at("ts_ns").as_u64(), e.at("trace").as_string().c_str(),
                  e.at("detail").as_string().c_str());
      if (const JsonValue* spans = e.find("spans")) {
        for (const auto& span : spans->as_array()) {
          std::printf("      %-20s dur=%s\n", span.at("name").as_string().c_str(),
                      fmt_ns(span.at("dur_ns").as_u64()).c_str());
        }
      }
    }
  }
}

void render_delta(const Snapshot& older, const Snapshot& newer) {
  std::printf("== counter deltas (new - old) ==\n");
  for (const auto& [name, nv] : newer.counters) {
    auto it = older.counters.find(name);
    uint64_t ov = it == older.counters.end() ? 0 : it->second;
    if (nv != ov) std::printf("  %-56s %+12" PRId64 "\n", name.c_str(), static_cast<int64_t>(nv - ov));
  }
  std::printf("== gauge changes (old -> new) ==\n");
  for (const auto& [name, nv] : newer.gauges) {
    auto it = older.gauges.find(name);
    double ov = it == older.gauges.end() ? 0.0 : it->second;
    if (nv != ov) std::printf("  %-56s %12.4f -> %.4f\n", name.c_str(), ov, nv);
  }
  std::printf("== histogram deltas ==\n");
  std::printf("  %-44s %10s %11s\n", "name", "count", "mean");
  for (const auto& [name, nh] : newer.histograms) {
    auto it = older.histograms.find(name);
    uint64_t oc = it == older.histograms.end() ? 0 : it->second.count;
    uint64_t os = it == older.histograms.end() ? 0 : it->second.sum;
    uint64_t dc = nh.count - oc;
    if (dc == 0) continue;
    std::printf("  %-44s %10" PRIu64 " %s\n", name.c_str(), dc, fmt_ns((nh.sum - os) / dc).c_str());
  }
}

/// Validation used by tests and the CI bench-smoke job.
int check(const Snapshot& s) {
  int failures = 0;
  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", msg.c_str());
    ++failures;
  };

  for (const auto& [name, h] : s.histograms) {
    if (!(h.p50 <= h.p90 && h.p90 <= h.p99)) {
      fail(name + ": percentiles out of order (p50 " + std::to_string(h.p50) + ", p90 " +
           std::to_string(h.p90) + ", p99 " + std::to_string(h.p99) + ")");
    }
    // Percentiles are bucket midpoints, so they may exceed the exact max by
    // up to one log-linear sub-bucket (1/16 relative).
    if (h.count > 0 && h.p99 > h.max + h.max / 16 + 1) {
      fail(name + ": p99 " + std::to_string(h.p99) + " above max " + std::to_string(h.max));
    }
    uint64_t bucket_sum = 0;
    uint64_t prev_upper = 0;
    bool ordered = true;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      bucket_sum += h.buckets[i].second;
      if (i > 0 && h.buckets[i].first <= prev_upper) ordered = false;
      prev_upper = h.buckets[i].first;
    }
    if (!ordered) fail(name + ": bucket upper bounds not strictly increasing");
    if (bucket_sum != h.count) {
      fail(name + ": bucket sum " + std::to_string(bucket_sum) + " != count " +
           std::to_string(h.count));
    }
    if (h.count > 0 && h.sum > 0 && h.sum < h.max) {
      fail(name + ": sum " + std::to_string(h.sum) + " below max " + std::to_string(h.max));
    }
  }

  // Receiver conservation: messages >= terminal outcomes (a scrape can race
  // messages in flight, so >= rather than ==; see ReceiverStats::consistent).
  auto counter = [&](const std::string& n) -> uint64_t {
    auto it = s.counters.find(n);
    return it == s.counters.end() ? 0 : it->second;
  };
  uint64_t messages = counter("morph_rx_messages_total");
  uint64_t outcomes = 0;
  for (const auto& [name, v] : s.counters) {
    if (name.rfind("morph_rx_outcome_total{", 0) == 0) outcomes += v;
  }
  if (outcomes > messages) {
    fail("receiver outcomes " + std::to_string(outcomes) + " exceed messages " +
         std::to_string(messages));
  }

  // Fusion conservation: a chain apply bumps its execution counter (fused
  // or hop-wise) before the outcome counter, so at any instant morphed
  // outcomes can never exceed fused + hop-wise executions. Skipped for
  // dumps from builds without fusion metrics.
  if (s.counters.count("morph_rx_fused_total") != 0 ||
      s.counters.count("morph_rx_hopwise_total") != 0) {
    uint64_t fused = counter("morph_rx_fused_total");
    uint64_t hopwise = counter("morph_rx_hopwise_total");
    uint64_t morphed = counter("morph_rx_outcome_total{outcome=\"morphed\"}") +
                       counter("morph_rx_outcome_total{outcome=\"morphed+reconciled\"}");
    if (morphed > fused + hopwise) {
      fail("morphed outcomes " + std::to_string(morphed) + " exceed fused+hopwise executions " +
           std::to_string(fused + hopwise));
    }
    uint64_t inplace = counter("morph_rx_morph_inplace_total");
    if (inplace > fused + hopwise) {
      fail("in-place morphs " + std::to_string(inplace) + " exceed chain executions " +
           std::to_string(fused + hopwise));
    }
  }

  // Echo conservation: morphed responses/events are subsets of their totals.
  if (counter("morph_echo_responses_morphed_total") > counter("morph_echo_responses_total")) {
    fail("echo morphed responses exceed responses delivered");
  }
  if (counter("morph_echo_events_morphed_total") > counter("morph_echo_events_total")) {
    fail("echo morphed events exceed events received");
  }

  // Fan-out conservation: the grouped publish path morphs at most once per
  // encode and encodes at most once per delivery (identity groups skip the
  // morph; every frame built is handed to at least one sink), and an event
  // only counts when it delivered somewhere — so at any instant
  // morphs <= encodes <= deliveries and events <= deliveries.
  if (s.counters.count("echo_fanout_events_total") != 0) {
    uint64_t fan_events = counter("echo_fanout_events_total");
    uint64_t fan_morphs = counter("echo_fanout_morphs_total");
    uint64_t fan_encodes = counter("echo_fanout_encodes_total");
    uint64_t fan_deliveries = counter("echo_fanout_deliveries_total");
    if (fan_morphs > fan_encodes) {
      fail("fan-out morphs " + std::to_string(fan_morphs) + " exceed encodes " +
           std::to_string(fan_encodes));
    }
    if (fan_encodes > fan_deliveries) {
      fail("fan-out encodes " + std::to_string(fan_encodes) + " exceed deliveries " +
           std::to_string(fan_deliveries));
    }
    if (fan_events > fan_deliveries) {
      fail("fan-out events " + std::to_string(fan_events) + " exceed deliveries " +
           std::to_string(fan_deliveries));
    }
  }

  // Pbuf bridge conservation: every frame entering the bridge either
  // decodes or rejects — exactly one of the two, no third bucket and no
  // silent drops (frames_in is bumped before the attempt, the outcome
  // after, so a scrape can catch a frame in flight: >=, not ==). Every
  // port-level pbuf reject is a received pbuf frame (per-frame containment
  // never invents rejects), so that pair is a subset relation too.
  if (s.counters.count("morph_pbuf_frames_in_total") != 0) {
    uint64_t pb_in = counter("morph_pbuf_frames_in_total");
    uint64_t pb_decoded = counter("morph_pbuf_decoded_total");
    uint64_t pb_rejected = counter("morph_pbuf_rejected_total");
    if (pb_decoded + pb_rejected > pb_in) {
      fail("pbuf decoded+rejected " + std::to_string(pb_decoded + pb_rejected) +
           " exceed frames_in " + std::to_string(pb_in));
    }
    uint64_t port_pb_rejects = counter("morph_port_pbuf_rejects_total");
    uint64_t port_pb_received = counter("morph_port_frames_received_total{type=\"pbuf\"}");
    if (port_pb_rejects > port_pb_received) {
      fail("port pbuf rejects " + std::to_string(port_pb_rejects) +
           " exceed received pbuf frames " + std::to_string(port_pb_received));
    }
    uint64_t fanout_pbuf = counter("echo_fanout_pbuf_encodes_total");
    if (fanout_pbuf > counter("echo_fanout_encodes_total")) {
      fail("fan-out pbuf encodes " + std::to_string(fanout_pbuf) + " exceed total encodes");
    }
  }

  // Fan-out planner conservation: "unreachable" builds are a subset of
  // "built" (every build bumps built; the failed ones also bump
  // unreachable), and verifier rejections are one of the ways a build
  // becomes unreachable.
  {
    uint64_t plan_built = counter("morph_fanout_plans_total{result=\"built\"}");
    uint64_t plan_unreachable = counter("morph_fanout_plans_total{result=\"unreachable\"}");
    if (plan_unreachable > plan_built) {
      fail("fan-out unreachable plans " + std::to_string(plan_unreachable) +
           " exceed plans built " + std::to_string(plan_built));
    }
    uint64_t verify_rejected = counter("morph_fanout_verify_rejected_total");
    if (verify_rejected > plan_unreachable) {
      fail("fan-out verify rejections " + std::to_string(verify_rejected) +
           " exceed unreachable plans " + std::to_string(plan_unreachable));
    }
  }

  // Resolver conservation: every resolve() lands in exactly one result
  // bucket (cached/negative/fetched/failed/lint_rejected/stampede), so the
  // bucket sum can never exceed the resolve count (>= for scrape races).
  uint64_t resolves = counter("morph_fmtsvc_client_resolves_total");
  uint64_t results = 0;
  for (const auto& [name, v] : s.counters) {
    if (name.rfind("morph_fmtsvc_client_resolve_total{", 0) == 0) results += v;
  }
  if (results > resolves) {
    fail("fmtsvc resolve results " + std::to_string(results) + " exceed resolves " +
         std::to_string(resolves));
  }

  if (failures == 0) std::printf("check OK\n");
  return failures == 0 ? 0 : 1;
}

// --- morph-telemetry-v1 (collector dump) rendering --------------------------

void render_telemetry(const JsonValue& doc) {
  std::printf("== processes ==\n");
  std::printf("  %-16s %8s %8s %10s %10s %8s\n", "process", "batches", "spans", "exported",
              "dropped", "morphs");
  if (const JsonValue* processes = doc.find("processes")) {
    for (const auto& [name, p] : processes->as_object()) {
      std::printf("  %-16s %8" PRIu64 " %8" PRIu64 " %10" PRIu64 " %10" PRIu64 " %8" PRIu64 "\n",
                  name.c_str(), p.at("batches").as_u64(), p.at("spans").as_u64(),
                  p.at("exported").as_u64(), p.at("dropped").as_u64(), p.at("morphs").as_u64());
    }
  }

  if (const JsonValue* attrib = doc.find("attribution")) {
    if (!attrib->as_array().empty()) {
      std::printf("== morph attribution ==\n");
      std::printf("  %-16s %-28s %8s %12s %12s\n", "process", "format", "morphs", "mean", "max");
      for (const auto& row : attrib->as_array()) {
        uint64_t morphs = row.at("morphs").as_u64();
        uint64_t mean = morphs > 0 ? row.at("total_ns").as_u64() / morphs : 0;
        std::printf("  %-16s %-28s %8" PRIu64 " %s %s\n", row.at("process").as_string().c_str(),
                    row.at("format").as_string().c_str(), morphs, fmt_ns(mean).c_str(),
                    fmt_ns(row.at("max_ns").as_u64()).c_str());
      }
    }
  }

  if (const JsonValue* traces = doc.find("traces")) {
    std::printf("== stitched traces (%zu) ==\n", traces->as_array().size());
    for (const auto& trace : traces->as_array()) {
      std::printf("  trace %s: %" PRIu64 " spans\n", trace.at("trace").as_string().c_str(),
                  trace.at("span_count").as_u64());
      for (const auto& step : trace.at("critical_path").as_array()) {
        std::printf("    %-16s %-20s %-24s dur=%s self=%s\n",
                    step.at("process").as_string().c_str(), step.at("name").as_string().c_str(),
                    step.at("detail").as_string().c_str(), fmt_ns(step.at("dur_ns").as_u64()).c_str(),
                    fmt_ns(step.at("self_ns").as_u64()).c_str());
      }
    }
  }

  if (const JsonValue* stitch = doc.find("stitch")) {
    uint64_t dropped = stitch->at("traces_dropped").as_u64();
    uint64_t overflowed = stitch->at("spans_overflowed").as_u64();
    if (dropped + overflowed > 0) {
      std::printf("WARNING: stitcher dropped %" PRIu64 " traces and overflowed %" PRIu64
                  " spans — retention caps hit\n",
                  dropped, overflowed);
    }
  }
}

/// Conservation for collector dumps: the collector already re-derives its
/// checks in every to_json(); trust but verify the invariants the document
/// itself exposes (the conservation block plus per-process arithmetic).
int check_telemetry(const JsonValue& doc) {
  int failures = 0;
  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", msg.c_str());
    ++failures;
  };

  const JsonValue* conservation = doc.find("conservation");
  if (conservation == nullptr) {
    fail("telemetry dump has no conservation block");
  } else {
    if (!conservation->at("ok").as_bool()) {
      for (const auto& v : conservation->at("violations").as_array()) fail(v.as_string());
    }
  }

  // Per-process re-check from the raw numbers (independent of the
  // collector's own verdict): ingested == exported, and the attribution
  // table's per-process morph totals reconcile with the counters.
  std::map<std::string, uint64_t> attributed;
  if (const JsonValue* attrib = doc.find("attribution")) {
    for (const auto& row : attrib->as_array()) {
      attributed[row.at("process").as_string()] += row.at("morphs").as_u64();
    }
  }
  if (const JsonValue* processes = doc.find("processes")) {
    for (const auto& [name, p] : processes->as_object()) {
      uint64_t spans = p.at("spans").as_u64();
      uint64_t exported = p.at("exported").as_u64();
      if (spans != exported) {
        fail("process '" + name + "': ingested " + std::to_string(spans) + " != exported " +
             std::to_string(exported));
      }
      uint64_t morphs = p.at("morphs").as_u64();
      uint64_t spans_attributed = attributed.count(name) != 0 ? attributed[name] : 0;
      if (p.at("dropped").as_u64() == 0) {
        if (spans_attributed != morphs) {
          fail("process '" + name + "': " + std::to_string(spans_attributed) +
               " attributed morph spans != " + std::to_string(morphs) + " counted morphs");
        }
      } else if (spans_attributed > morphs) {
        fail("process '" + name + "': attributed morph spans exceed counted morphs");
      }
    }
  }

  if (failures == 0) std::printf("check OK\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool do_check = false;
  bool with_spans = false;
  bool with_flight = false;
  std::optional<std::string> scrape_target;
  std::optional<std::string> delta_old;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      do_check = true;
    } else if (std::strcmp(argv[i], "--spans") == 0) {
      with_spans = true;
    } else if (std::strcmp(argv[i], "--flight") == 0) {
      with_flight = true;
    } else if (std::strcmp(argv[i], "--scrape") == 0 && i + 1 < argc) {
      scrape_target = argv[++i];
    } else if (std::strcmp(argv[i], "--delta") == 0 && i + 1 < argc) {
      delta_old = argv[++i];
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: morph-stat [--check] [--spans] [--flight] [--delta OLD.json] "
                   "(DUMP.json | --scrape HOST:PORT)\n");
      return 2;
    } else {
      files.emplace_back(argv[i]);
    }
  }

  try {
    std::string text;
    if (scrape_target) {
      text = scrape(*scrape_target);
    } else if (!files.empty()) {
      text = read_file(files.front());
    } else {
      die("no input: pass a JSON dump or --scrape HOST:PORT");
    }
    JsonValue doc = morph::obs::json_parse(text);

    // Collector dumps carry their own schema; branch before the metrics
    // loader (which dies on anything but morph-metrics-v1).
    const JsonValue* schema = doc.find("schema");
    if (schema != nullptr && schema->as_string() == "morph-telemetry-v1") {
      if (delta_old) die("--delta is not supported for telemetry dumps");
      render_telemetry(doc);
      if (do_check) return check_telemetry(doc);
      return 0;
    }

    Snapshot snap = load_snapshot(doc);

    if (delta_old) {
      JsonValue old_doc = morph::obs::json_parse(read_file(*delta_old));
      Snapshot old_snap = load_snapshot(old_doc);
      render_delta(old_snap, snap);
    } else {
      render(snap, with_spans, with_flight);
    }
    if (do_check) return check(snap);
    return 0;
  } catch (const std::exception& e) {
    die(e.what());
  }
}
