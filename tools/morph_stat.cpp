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
//                                         and every conservation law of the
//                                         metric catalog (obs/catalog.hpp).
//                                         Exit 1 on any violation.
//   morph-stat --spans DUMP.json          also print the captured trace
//                                         spans, grouped by trace id
//   morph-stat --flight DUMP.json         also print the flight-recorder
//                                         ring (rejects, resolver retries,
//                                         fan-out fallbacks, slow morphs)
//
// Rendering starts with a digest generated from the catalog: one section
// per subsystem with activity, listing each of its families (counter
// totals split by label, gauges, histogram volume and percentiles in the
// family's unit), the catalog's derived ratios, and the reading of each
// conservation law. The flat series tables follow.
//
// Both commands also accept a morph-telemetry-v1 document (a collector
// dump from `morph-trace dump`): rendering shows the per-process ledger,
// stitched traces, and the morph-attribution table; --check validates span
// conservation (every span a process exported was ingested; attributed
// morph spans reconcile with the counters).
//
// Flags combine: `morph-stat --check --scrape 127.0.0.1:9464` validates a
// live endpoint.
#include <array>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/catalog.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "transport/tcp.hpp"

namespace {

using morph::obs::JsonValue;
namespace obs = morph::obs;

struct Dump {
  obs::MetricsSnapshot m;
  /// p50, p90, p99 of each histogram as the dump states them (--check
  /// validates them; rendering recomputes from the buckets).
  std::map<std::string, std::array<uint64_t, 3>> stated;
  const JsonValue* spans = nullptr;   // borrowed from the parsed document
  const JsonValue* flight = nullptr;  // borrowed from the parsed document
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "morph-stat: %s\n", msg.c_str());
  std::exit(2);  // NOLINT(concurrency-mt-unsafe) — single-threaded CLI
}

Dump load_dump(const JsonValue& doc) {
  Dump d;
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != "morph-metrics-v1") {
    die("not a morph-metrics-v1 document");
  }
  if (const JsonValue* c = doc.find("counters")) {
    for (const auto& [name, v] : c->as_object()) d.m.counters.emplace_back(name, v.as_u64());
  }
  if (const JsonValue* g = doc.find("gauges")) {
    for (const auto& [name, v] : g->as_object()) d.m.gauges.emplace_back(name, v.as_number());
  }
  if (const JsonValue* h = doc.find("histograms")) {
    for (const auto& [name, v] : h->as_object()) {
      obs::HistogramSnapshot row;
      row.count = v.at("count").as_u64();
      row.sum = v.at("sum").as_u64();
      row.max = v.at("max").as_u64();
      for (const auto& b : v.at("buckets").as_array()) {
        const auto& pair = b.as_array();
        if (pair.size() != 2) die("histogram bucket is not an [upper, count] pair");
        row.buckets.emplace_back(pair[0].as_u64(), pair[1].as_u64());
      }
      d.stated[name] = {v.at("p50").as_u64(), v.at("p90").as_u64(), v.at("p99").as_u64()};
      d.m.histograms.emplace_back(name, std::move(row));
    }
  }
  d.spans = doc.find("spans");
  d.flight = doc.find("flight");
  return d;
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
  const auto ep = morph::transport::parse_endpoint(target);
  if (!ep) die("--scrape wants HOST:PORT, got " + target);
  const auto& [host, port] = *ep;

  auto link = morph::transport::TcpLink::connect(host, port);
  std::string request = "GET / HTTP/1.0\r\nHost: " + host + "\r\n\r\n";
  link->send(request.data(), request.size());

  std::string response;
  link->set_on_data([&](const uint8_t* d, size_t n) {
    response.append(reinterpret_cast<const char*>(d), n);
  });
  // Read to EOF within one deadline for the whole response.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) die("timed out reading " + target);
    if (!link->pump(static_cast<int>(left))) break;
  }
  // StatsServer's head; a body shorter than its Content-Length is truncated.
  const size_t head_end = response.find("\r\n\r\n");
  const size_t field = response.find("\r\nContent-Length: ");
  if (head_end == std::string::npos || field >= head_end) {
    die("malformed HTTP response from " + target + " (no Content-Length)");
  }
  size_t length = 0;
  const auto parsed =
      std::from_chars(response.data() + field + 18, response.data() + head_end, length);
  if (parsed.ec != std::errc()) die("bad Content-Length from " + target);
  std::string body = response.substr(head_end + 4);
  if (body.size() != length) {
    die("response from " + target + " has " + std::to_string(body.size()) +
        " body bytes, Content-Length says " + std::to_string(length));
  }
  return body;
}

/// `v` in `unit`: nanoseconds auto-scale to us/ms/s, other units print as is.
std::string fmt_in(double v, const std::string& unit) {
  const char* u = unit.c_str();
  if (unit == "ns") {
    if (v >= 1e9) { v /= 1e9; u = "s "; }
    else if (v >= 1e6) { v /= 1e6; u = "ms"; }
    else if (v >= 1e3) { v /= 1e3; u = "us"; }
  }
  char buf[48];
  std::snprintf(buf, sizeof buf, "%8.2f %s", v, u);
  return buf;
}

std::string fmt_ns(uint64_t ns) { return fmt_in(static_cast<double>(ns), "ns"); }

/// The catalog unit of a series; "ns" for an uncatalogued histogram.
std::string unit_of(const std::string& series) {
  const obs::MetricInfo* f = obs::find_family(obs::split_metric_name(series).first);
  return f != nullptr ? f->unit : "ns";
}

/// One family's digest row: its total over every series in the dump (a
/// label breakdown when labeled), or the merged histogram. Empty when the
/// dump holds no series of the family; `active` turns true on any count.
std::string family_row(const Dump& d, const obs::MetricInfo& f, bool& active) {
  auto mine = [&](const std::string& name) { return obs::split_metric_name(name).first == f.name; };
  char buf[160];
  std::string detail;
  size_t seen = 0;
  if (f.kind == obs::Kind::kHistogram) {
    obs::HistogramSnapshot all;
    std::map<uint64_t, uint64_t> buckets;
    for (const auto& [name, h] : d.m.histograms) {
      if (!mine(name)) continue;
      ++seen;
      all.count += h.count;
      all.sum += h.sum;
      all.max = std::max(all.max, h.max);
      for (const auto& [upper, n] : h.buckets) buckets[upper] += n;
    }
    if (seen == 0) return "";
    all.buckets.assign(buckets.begin(), buckets.end());
    active |= all.count > 0;
    const double mean = all.count > 0 ? static_cast<double>(all.sum) / all.count : 0.0;
    std::snprintf(buf, sizeof buf, "%" PRIu64 " samples", all.count);
    detail = "mean " + fmt_in(mean, f.unit) + ", p50 " +
             fmt_in(static_cast<double>(all.percentile(0.50)), f.unit) + ", p99 " +
             fmt_in(static_cast<double>(all.percentile(0.99)), f.unit) + ", max " +
             fmt_in(static_cast<double>(all.max), f.unit);
  } else if (f.kind == obs::Kind::kGauge) {
    double value = 0;
    for (const auto& [name, v] : d.m.gauges) {
      if (!mine(name)) continue;
      value = v;
      ++seen;
    }
    if (seen == 0) return "";
    if (seen == 1) std::snprintf(buf, sizeof buf, "%.6g %s", value, f.unit);
    else std::snprintf(buf, sizeof buf, "%zu series", seen);
  } else {
    uint64_t sum = 0;
    for (const auto& [name, v] : d.m.counters) {
      if (!mine(name)) continue;
      ++seen;
      sum += v;
      const std::string labels = obs::split_metric_name(name).second;
      if (labels.empty()) continue;
      const size_t q = labels.find('"');
      detail += (detail.empty() ? "" : ", ") + labels.substr(q + 1, labels.size() - q - 2) + " " +
                std::to_string(v);
    }
    if (seen == 0) return "";
    active |= sum > 0;
    std::snprintf(buf, sizeof buf, "%" PRIu64 " %s", sum, f.unit);
  }
  std::string row = "  " + std::string(f.name);
  row.resize(std::max<size_t>(row.size() + 1, 48), ' ');
  return row + buf + (detail.empty() ? "" : "  (" + detail + ")") + "\n";
}

/// The catalog digest: per subsystem with activity, its families, the
/// ratios over them and the reading of each law whose first term it owns.
void render_digest(const Dump& d) {
  std::vector<std::pair<std::string_view, std::vector<const obs::MetricInfo*>>> owners;
  for (const obs::MetricInfo& f : obs::kCatalog) {
    if (owners.empty() || owners.back().first != f.subsystem) owners.push_back({f.subsystem, {}});
    owners.back().second.push_back(&f);
  }
  const auto readings = obs::evaluate_laws(d.m);
  auto owned = [](const std::vector<obs::Term>& t, std::string_view sub) {
    return sub == obs::info(t.front().family).subsystem;
  };
  for (const auto& [sub, families] : owners) {
    bool active = false;
    std::string rows;
    for (const obs::MetricInfo* f : families) rows += family_row(d, *f, active);
    if (!active) continue;
    std::printf("== %s ==\n%s", std::string(sub).c_str(), rows.c_str());
    for (const obs::Ratio& r : obs::ratios()) {
      auto v = owned(r.den, sub) ? obs::ratio_value(r, d.m) : std::nullopt;
      if (v) std::printf("  %-45s %.2f\n", r.name, *v);
    }
    for (const obs::LawReading& r : readings) {
      if (!owned(r.law->lhs, sub)) continue;
      std::printf("  law %-41s %" PRIu64 " %s %" PRIu64 "%s\n", r.law->name, r.lhs,
                  r.holds() ? "<=" : ">", r.rhs, r.holds() ? "" : "  VIOLATED");
    }
  }
}

void render(const Dump& d, bool with_spans, bool with_flight) {
  render_digest(d);
  const uint64_t ring_dropped = obs::total(d.m, {{obs::Metric::morph_obs_spans_dropped_total}});
  const uint64_t export_dropped =
      obs::total(d.m, {{obs::Metric::morph_telemetry_export_dropped_total}});
  if (ring_dropped + export_dropped > 0) {
    std::printf("WARNING: %" PRIu64 " spans evicted from the ring and %" PRIu64
                " dropped by the exporter — traces are incomplete; raise the ring\n"
                "         capacity or the export rate before trusting attribution\n",
                ring_dropped, export_dropped);
  }
  if (!d.m.counters.empty()) {
    std::printf("== counters ==\n");
    for (const auto& [name, v] : d.m.counters) {
      std::printf("  %-56s %12" PRIu64 "\n", name.c_str(), v);
    }
  }
  if (!d.m.gauges.empty()) {
    std::printf("== gauges ==\n");
    for (const auto& [name, v] : d.m.gauges) std::printf("  %-56s %12.4f\n", name.c_str(), v);
  }
  if (!d.m.histograms.empty()) {
    std::printf("== histograms ==\n");
    std::printf("  %-44s %10s %11s %11s %11s %11s %11s\n", "name", "count", "mean", "p50", "p90",
                "p99", "max");
    for (const auto& [name, h] : d.m.histograms) {
      const std::string unit = unit_of(name);
      auto at = [&](double v) { return fmt_in(v, unit); };
      const double mean = h.count > 0 ? static_cast<double>(h.sum / h.count) : 0.0;
      std::printf("  %-44s %10" PRIu64 " %s %s %s %s %s\n", name.c_str(), h.count, at(mean).c_str(),
                  at(static_cast<double>(h.percentile(0.50))).c_str(),
                  at(static_cast<double>(h.percentile(0.90))).c_str(),
                  at(static_cast<double>(h.percentile(0.99))).c_str(),
                  at(static_cast<double>(h.max)).c_str());
    }
  }
  if (with_spans && d.spans != nullptr) {
    std::printf("== spans ==\n");
    for (const auto& span : d.spans->as_array()) {
      std::printf("  %-20s trace=%s start=%12" PRIu64 " dur=%s thread=%" PRIu64 "\n",
                  span.at("name").as_string().c_str(), span.at("trace").as_string().c_str(),
                  span.at("start_ns").as_u64(), fmt_ns(span.at("dur_ns").as_u64()).c_str(),
                  span.at("thread").as_u64());
    }
  }
  if (with_flight && d.flight != nullptr) {
    std::printf("== flight recorder ==\n");
    for (const auto& e : d.flight->as_array()) {
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

void render_delta(const Dump& older, const Dump& newer) {
  const std::map<std::string, uint64_t> oc(older.m.counters.begin(), older.m.counters.end());
  const std::map<std::string, double> og(older.m.gauges.begin(), older.m.gauges.end());
  const std::map<std::string, obs::HistogramSnapshot> oh(older.m.histograms.begin(),
                                                         older.m.histograms.end());
  std::printf("== counter deltas (new - old) ==\n");
  for (const auto& [name, nv] : newer.m.counters) {
    auto it = oc.find(name);
    uint64_t ov = it == oc.end() ? 0 : it->second;
    if (nv != ov) std::printf("  %-56s %+12" PRId64 "\n", name.c_str(), static_cast<int64_t>(nv - ov));
  }
  std::printf("== gauge changes (old -> new) ==\n");
  for (const auto& [name, nv] : newer.m.gauges) {
    auto it = og.find(name);
    double ov = it == og.end() ? 0.0 : it->second;
    if (nv != ov) std::printf("  %-56s %12.4f -> %.4f\n", name.c_str(), ov, nv);
  }
  std::printf("== histogram deltas ==\n");
  std::printf("  %-44s %10s %11s\n", "name", "count", "mean");
  for (const auto& [name, nh] : newer.m.histograms) {
    auto it = oh.find(name);
    uint64_t oc_n = it == oh.end() ? 0 : it->second.count;
    uint64_t os = it == oh.end() ? 0 : it->second.sum;
    uint64_t dc = nh.count - oc_n;
    if (dc == 0) continue;
    std::printf("  %-44s %10" PRIu64 " %s\n", name.c_str(), dc,
                fmt_in(static_cast<double>((nh.sum - os) / dc), unit_of(name)).c_str());
  }
}

/// Validation used by tests and the CI bench-smoke job.
int check(const Dump& d) {
  int failures = 0;
  auto fail = [&](const std::string& msg) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", msg.c_str());
    ++failures;
  };

  for (const auto& [name, h] : d.m.histograms) {
    const auto [p50, p90, p99] = d.stated.at(name);
    if (!(p50 <= p90 && p90 <= p99)) {
      fail(name + ": percentiles out of order (p50 " + std::to_string(p50) + ", p90 " +
           std::to_string(p90) + ", p99 " + std::to_string(p99) + ")");
    }
    // Percentiles are bucket midpoints, so they may exceed the exact max by
    // up to one log-linear sub-bucket (1/16 relative).
    if (h.count > 0 && p99 > h.max + h.max / 16 + 1) {
      fail(name + ": p99 " + std::to_string(p99) + " above max " + std::to_string(h.max));
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
  for (const obs::LawReading& r : obs::evaluate_laws(d.m)) {
    if (!r.holds()) fail(r.describe());
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

    Dump dump = load_dump(doc);

    if (delta_old) {
      JsonValue old_doc = morph::obs::json_parse(read_file(*delta_old));
      render_delta(load_dump(old_doc), dump);
    } else {
      render(dump, with_spans, with_flight);
    }
    if (do_check) return check(dump);
    return 0;
  } catch (const std::exception& e) {
    die(e.what());
  }
}
