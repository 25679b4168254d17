#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>

namespace morph::obs {

namespace {

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  out += buf;
}

/// JSON string escape (quotes, backslash, control characters).
void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// The series of one snapshot section grouped by family name, each
/// family's series in name order.
template <class Value>
std::map<std::string, std::vector<const std::pair<std::string, Value>*>> by_family(
    const std::vector<std::pair<std::string, Value>>& section) {
  std::map<std::string, std::vector<const std::pair<std::string, Value>*>> out;
  for (const auto& s : section) out[split_metric_name(s.first).first].push_back(&s);
  return out;
}

/// A family's `# HELP` (catalogued families only) and `# TYPE` lines. The
/// type is the catalog's; an uncatalogued family (a test's private
/// registry) takes the kind of the snapshot section it sits in.
void family_header(std::string& out, const std::string& family, Kind section) {
  const MetricInfo* entry = find_family(family);
  if (entry != nullptr) out += "# HELP " + family + ' ' + entry->help + '\n';
  out += "# TYPE " + family + ' ' + kind_name(entry != nullptr ? entry->kind : section) + '\n';
}

/// `base_suffix{labels,extra}` or `base_suffix{extra}` or plain. `labels`
/// must already be escaped (append_series is called per bucket; escaping
/// once per metric keeps the hot rendering loop cheap).
void append_series(std::string& out, const std::string& base, const char* suffix,
                   const std::string& labels, const std::string& extra) {
  out += base;
  out += suffix;
  if (!labels.empty() || !extra.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extra.empty()) out += ',';
    out += extra;
    out += '}';
  }
  out += ' ';
}

/// True when `s` continues at `at` with `ident="` — i.e. a new label
/// assignment starts there. Used to find the real closing quote of a raw
/// (unescaped) label value.
bool label_starts_at(const std::string& s, size_t at) {
  size_t i = at;
  if (i >= s.size()) return false;
  auto ident_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_';
  };
  if (!ident_char(s[i])) return false;
  while (i < s.size() && ident_char(s[i])) ++i;
  return i + 1 < s.size() && s[i] == '=' && s[i + 1] == '"';
}

void append_escaped_label_value(std::string& out, const std::string& v) {
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

}  // namespace

std::pair<std::string, std::string> split_metric_name(const std::string& name) {
  size_t brace = name.find('{');
  if (brace == std::string::npos) return {name, ""};
  size_t end = name.rfind('}');
  if (end == std::string::npos || end <= brace) return {name.substr(0, brace), ""};
  return {name.substr(0, brace), name.substr(brace + 1, end - brace - 1)};
}

std::string escape_label_values(const std::string& labels) {
  // Baked label strings store values raw, so a value may itself contain
  // quotes or commas. The closing quote of a value is the `"` followed by
  // end-of-string or `,` + the start of another `ident="` assignment —
  // unambiguous because label names can't contain quotes.
  std::string out;
  size_t i = 0;
  while (i < labels.size()) {
    size_t eq = labels.find("=\"", i);
    if (eq == std::string::npos) {
      out.append(labels, i, std::string::npos);  // malformed tail: pass through
      break;
    }
    out.append(labels, i, eq + 2 - i);  // name=" verbatim
    size_t vstart = eq + 2;
    size_t vend = vstart;
    while (vend < labels.size()) {
      if (labels[vend] == '"' &&
          (vend + 1 == labels.size() ||
           (labels[vend + 1] == ',' && label_starts_at(labels, vend + 2)))) {
        break;
      }
      ++vend;
    }
    append_escaped_label_value(out, labels.substr(vstart, vend - vstart));
    if (vend < labels.size()) {
      out += '"';
      ++vend;
      if (vend < labels.size()) {
        out += ',';  // separator before the next assignment
        ++vend;
      }
    }
    i = vend;
  }
  return out;
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [family, series] : by_family(snapshot.counters)) {
    family_header(out, family, Kind::kCounter);
    for (const auto* s : series) {
      append_series(out, family, "", escape_label_values(split_metric_name(s->first).second), "");
      append_u64(out, s->second);
      out += '\n';
    }
  }
  for (const auto& [family, series] : by_family(snapshot.gauges)) {
    family_header(out, family, Kind::kGauge);
    for (const auto* s : series) {
      append_series(out, family, "", escape_label_values(split_metric_name(s->first).second), "");
      append_double(out, s->second);
      out += '\n';
    }
  }
  for (const auto& [family, series] : by_family(snapshot.histograms)) {
    family_header(out, family, Kind::kHistogram);
    for (const auto* s : series) {
      const std::string labels = escape_label_values(split_metric_name(s->first).second);
      const HistogramSnapshot& h = s->second;
      uint64_t cum = 0;
      for (const auto& [upper, count] : h.buckets) {
        cum += count;
        append_series(out, family, "_bucket", labels, "le=\"" + std::to_string(upper) + '"');
        append_u64(out, cum);
        out += '\n';
      }
      append_series(out, family, "_bucket", labels, "le=\"+Inf\"");
      append_u64(out, h.count);
      out += '\n';
      append_series(out, family, "_sum", labels, "");
      append_u64(out, h.sum);
      out += '\n';
      append_series(out, family, "_count", labels, "");
      append_u64(out, h.count);
      out += '\n';
    }
  }
  return out;
}

namespace {

void append_span_json(std::string& out, const SpanRecord& s) {
  out += "{\"name\": ";
  append_json_string(out, s.name);
  char buf[32];
  std::snprintf(buf, sizeof buf, "\"0x%016" PRIx64 "\"", s.trace_id);
  out += ", \"trace\": ";
  out += buf;
  std::snprintf(buf, sizeof buf, "\"0x%016" PRIx64 "\"", s.span_id);
  out += ", \"span\": ";
  out += buf;
  std::snprintf(buf, sizeof buf, "\"0x%016" PRIx64 "\"", s.parent_id);
  out += ", \"parent\": ";
  out += buf;
  out += ", \"detail\": ";
  append_json_string(out, s.detail);
  out += ", \"start_ns\": ";
  append_u64(out, s.start_ns);
  out += ", \"dur_ns\": ";
  append_u64(out, s.dur_ns);
  out += ", \"thread\": ";
  append_u64(out, s.thread);
  out += '}';
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot, const std::vector<SpanRecord>& spans,
                    const std::vector<FlightEvent>& flight) {
  std::string out;
  out += "{\n  \"schema\": \"morph-metrics-v1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": ";
    append_u64(out, value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": ";
    append_double(out, value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": {\"count\": ";
    append_u64(out, h.count);
    out += ", \"sum\": ";
    append_u64(out, h.sum);
    out += ", \"max\": ";
    append_u64(out, h.max);
    out += ", \"p50\": ";
    append_u64(out, h.percentile(0.50));
    out += ", \"p90\": ";
    append_u64(out, h.percentile(0.90));
    out += ", \"p99\": ";
    append_u64(out, h.percentile(0.99));
    out += ", \"buckets\": [";
    bool bfirst = true;
    for (const auto& [upper, count] : h.buckets) {
      if (!bfirst) out += ", ";
      bfirst = false;
      out += '[';
      append_u64(out, upper);
      out += ", ";
      append_u64(out, count);
      out += ']';
    }
    out += "]}";
  }
  out += first ? "}" : "\n  }";

  if (!spans.empty()) {
    out += ",\n  \"spans\": [";
    first = true;
    for (const auto& s : spans) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      append_span_json(out, s);
    }
    out += "\n  ]";
  }
  if (!flight.empty()) {
    out += ",\n  \"flight\": [";
    first = true;
    for (const auto& e : flight) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      out += "{\"ts_ns\": ";
      append_u64(out, e.ts_ns);
      out += ", \"kind\": ";
      append_json_string(out, flight_kind_name(e.kind));
      out += ", \"trace\": ";
      char buf[32];
      std::snprintf(buf, sizeof buf, "\"0x%016" PRIx64 "\"", e.trace_id);
      out += buf;
      out += ", \"detail\": ";
      append_json_string(out, e.detail);
      out += ", \"spans\": [";
      bool sfirst = true;
      for (const auto& s : e.spans) {
        if (!sfirst) out += ", ";
        sfirst = false;
        append_span_json(out, s);
      }
      out += "]}";
    }
    out += "\n  ]";
  }
  out += "\n}\n";
  return out;
}

}  // namespace morph::obs
