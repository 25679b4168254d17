// Unit tests for the observability layer: histogram math against a
// brute-force oracle, registry behavior, exporters, the JSON reader, and
// the trace span machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace morph::obs {
namespace {

// ---------------------------------------------------------------- buckets

TEST(HistogramBuckets, SmallValuesAreExact) {
  for (uint64_t v = 0; v < 16; ++v) {
    size_t idx = Histogram::bucket_index(v);
    EXPECT_EQ(idx, v);
    EXPECT_EQ(Histogram::bucket_upper(idx), v);
    EXPECT_EQ(Histogram::bucket_mid(idx), v);
  }
}

TEST(HistogramBuckets, IndexIsMonotoneAndContainsValue) {
  // Sweep values across every octave; each value must land in a bucket
  // whose range contains it, and bucket indices must be non-decreasing.
  size_t prev_idx = 0;
  for (int shift = 0; shift < 40; ++shift) {
    for (uint64_t off : {0ull, 1ull, 3ull, 7ull}) {
      uint64_t v = (1ull << shift) + off * (1ull << shift) / 8;
      if (v > Histogram::kMaxValue) continue;
      size_t idx = Histogram::bucket_index(v);
      ASSERT_LT(idx, Histogram::kBuckets) << "v=" << v;
      EXPECT_GE(idx, prev_idx) << "v=" << v;
      prev_idx = idx;
      EXPECT_LE(v, Histogram::bucket_upper(idx)) << "v=" << v;
      if (idx > 0) {
        EXPECT_GT(v, Histogram::bucket_upper(idx - 1)) << "v=" << v;
      }
    }
  }
}

TEST(HistogramBuckets, UpperBoundRoundTrips) {
  for (size_t idx = 0; idx < Histogram::kBuckets; ++idx) {
    uint64_t upper = Histogram::bucket_upper(idx);
    EXPECT_EQ(Histogram::bucket_index(upper), idx) << "idx=" << idx;
    uint64_t mid = Histogram::bucket_mid(idx);
    EXPECT_EQ(Histogram::bucket_index(mid), idx) << "idx=" << idx;
    EXPECT_LE(mid, upper);
  }
}

TEST(HistogramBuckets, RelativeErrorIsBounded) {
  // A bucket's width is at most 2^-4 of its lower bound (one sub-bucket per
  // 16th of an octave), so the midpoint representative is within ~2^-4 of
  // any member value. Allow a little slack over the sweep.
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = rng.next_u64() % Histogram::kMaxValue;
    uint64_t mid = Histogram::bucket_mid(Histogram::bucket_index(v));
    double rel = std::abs(static_cast<double>(mid) - static_cast<double>(v)) /
                 std::max<double>(1.0, static_cast<double>(v));
    EXPECT_LE(rel, 1.0 / 16.0 + 1e-9) << "v=" << v << " mid=" << mid;
  }
}

TEST(HistogramBuckets, OverflowClampsToLastBucket) {
  Histogram h;
  h.record(~0ull);
  auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.max, ~0ull);  // max keeps the true value
  ASSERT_EQ(snap.buckets.size(), 1u);
  EXPECT_EQ(snap.buckets[0].first, Histogram::kMaxValue);
}

// ------------------------------------------------------------ percentiles

TEST(HistogramPercentiles, MatchBruteForceOracle) {
  Rng rng(42);
  Histogram h;
  std::vector<uint64_t> values;
  // A mix of scales, like real latencies: mostly ~1us, a ~1ms tail.
  for (int i = 0; i < 5000; ++i) {
    uint64_t v = 200 + rng.next_u64() % 2000;
    if (i % 50 == 0) v = 500000 + rng.next_u64() % 1000000;
    values.push_back(v);
    h.record(v);
  }
  std::sort(values.begin(), values.end());
  auto snap = h.snapshot();
  ASSERT_EQ(snap.count, values.size());

  for (double q : {0.10, 0.50, 0.90, 0.99}) {
    uint64_t exact =
        values[std::min(values.size() - 1,
                        static_cast<size_t>(std::ceil(q * static_cast<double>(values.size()))) -
                            1)];
    uint64_t approx = snap.percentile(q);
    double rel = std::abs(static_cast<double>(approx) - static_cast<double>(exact)) /
                 static_cast<double>(exact);
    EXPECT_LE(rel, 0.10) << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

TEST(HistogramPercentiles, AreMonotoneAndBelowMax) {
  Rng rng(3);
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(rng.next_u64() % 1000000);
  auto snap = h.snapshot();
  uint64_t p50 = snap.percentile(0.50);
  uint64_t p90 = snap.percentile(0.90);
  uint64_t p99 = snap.percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // The p99 estimate is a bucket midpoint, which can sit up to one
  // sub-bucket above the true max when max falls in the bucket's lower half.
  EXPECT_LE(p99, snap.max + snap.max / 16 + 1);
  EXPECT_GT(p50, 0u);
}

TEST(HistogramPercentiles, EmptyAndSingle) {
  Histogram h;
  EXPECT_EQ(h.snapshot().percentile(0.5), 0u);
  h.record(777);
  auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.max, 777u);
  uint64_t p50 = snap.percentile(0.5);
  EXPECT_EQ(Histogram::bucket_index(p50), Histogram::bucket_index(777));
}

TEST(HistogramPercentiles, SumAndCountAreExact) {
  Histogram h;
  uint64_t expect_sum = 0;
  for (uint64_t v = 0; v < 1000; ++v) {
    h.record(v);
    expect_sum += v;
  }
  auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, expect_sum);
  uint64_t bucket_total = 0;
  for (auto& [upper, count] : snap.buckets) bucket_total += count;
  EXPECT_EQ(bucket_total, snap.count);
}

// -------------------------------------------------------- counters/gauges

TEST(CounterGauge, Basics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);

  Gauge g;
  g.set(2.5);
  g.add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(Registry, SameNameSameMetric) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x_total");
  Counter& b = reg.counter("x_total");
  EXPECT_EQ(&a, &b);
  // Kind namespaces are distinct: a gauge named like a counter is its own
  // metric.
  Gauge& g = reg.gauge("x_total");
  g.set(7);
  a.inc();
  EXPECT_EQ(reg.counter("x_total").value(), 1u);
  EXPECT_DOUBLE_EQ(reg.gauge("x_total").value(), 7.0);
}

TEST(Registry, SnapshotIsSortedAndComplete) {
  MetricsRegistry reg;
  reg.counter("b_total").inc();
  reg.counter("a_total").add(2);
  reg.gauge("depth").set(3);
  reg.histogram("lat_ns").record(100);
  auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a_total");
  EXPECT_EQ(snap.counters[0].second, 2u);
  EXPECT_EQ(snap.counters[1].first, "b_total");
  ASSERT_EQ(snap.gauges.size(), 1u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
}

// --------------------------------------------------------------- exporters

TEST(Exporters, SplitMetricName) {
  auto [base1, labels1] = split_metric_name("plain_total");
  EXPECT_EQ(base1, "plain_total");
  EXPECT_EQ(labels1, "");
  auto [base2, labels2] = split_metric_name("x_total{fmt=\"a\",k=\"v\"}");
  EXPECT_EQ(base2, "x_total");
  EXPECT_EQ(labels2, "fmt=\"a\",k=\"v\"");
}

TEST(Exporters, PrometheusShape) {
  MetricsRegistry reg;
  reg.counter("rx_total{outcome=\"exact\"}").add(3);
  reg.counter("rx_total{outcome=\"morphed\"}").add(1);
  reg.gauge("depth").set(2.5);
  reg.histogram("lat_ns").record(5);
  reg.histogram("lat_ns").record(1000);
  std::string text = to_prometheus(reg.snapshot());

  EXPECT_NE(text.find("# TYPE rx_total counter\n"), std::string::npos);
  // One TYPE line even with two labeled series.
  EXPECT_EQ(text.find("# TYPE rx_total counter"), text.rfind("# TYPE rx_total counter"));
  EXPECT_NE(text.find("rx_total{outcome=\"exact\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("rx_total{outcome=\"morphed\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("depth 2.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ns histogram\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"5\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_sum 1005\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_count 2\n"), std::string::npos);
}

TEST(Exporters, JsonRoundTripsThroughParser) {
  MetricsRegistry reg;
  reg.counter("msgs_total").add(12);
  reg.gauge("q\"uote").set(-0.5);  // name needing escapes
  Histogram& h = reg.histogram("lat_ns");
  for (uint64_t v = 1; v <= 100; ++v) h.record(v * 10);

  JsonValue doc = json_parse(to_json(reg.snapshot()));
  EXPECT_EQ(doc.at("schema").as_string(), "morph-metrics-v1");
  EXPECT_EQ(doc.at("counters").at("msgs_total").as_u64(), 12u);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("q\"uote").as_number(), -0.5);
  const JsonValue& lat = doc.at("histograms").at("lat_ns");
  EXPECT_EQ(lat.at("count").as_u64(), 100u);
  EXPECT_EQ(lat.at("sum").as_u64(), 50500u);
  EXPECT_EQ(lat.at("max").as_u64(), 1000u);
  EXPECT_LE(lat.at("p50").as_u64(), lat.at("p90").as_u64());
  EXPECT_LE(lat.at("p90").as_u64(), lat.at("p99").as_u64());
  uint64_t bucket_total = 0;
  for (const auto& b : lat.at("buckets").as_array()) bucket_total += b.as_array()[1].as_u64();
  EXPECT_EQ(bucket_total, 100u);
}

TEST(Exporters, JsonIncludesSpans) {
  MetricsRegistry reg;
  std::vector<SpanRecord> spans;
#if defined(__GNUC__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
#endif
  // Pre-linkage aggregate initializer: span_id/parent_id/detail were
  // appended to SpanRecord, so five-field initializers must keep compiling
  // and default the new fields to "unlinked root".
  spans.push_back({"port.send", 0xabcdef, 10, 250, 3});
#if defined(__GNUC__)
#pragma GCC diagnostic pop
#endif
  EXPECT_EQ(spans[0].span_id, 0u);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[0].detail, "");
  JsonValue doc = json_parse(to_json(reg.snapshot(), spans));
  const auto& arr = doc.at("spans").as_array();
  ASSERT_EQ(arr.size(), 1u);
  EXPECT_EQ(arr[0].at("name").as_string(), "port.send");
  EXPECT_EQ(arr[0].at("trace").as_string(), "0x0000000000abcdef");
  EXPECT_EQ(arr[0].at("span").as_string(), "0x0000000000000000");
  EXPECT_EQ(arr[0].at("parent").as_string(), "0x0000000000000000");
  EXPECT_EQ(arr[0].at("dur_ns").as_u64(), 250u);
}

TEST(Exporters, EscapeLabelValues) {
  // Values are stored raw in metric names; the Prometheus renderer escapes
  // backslash, double-quote, and line-feed per the 0.0.4 text format.
  EXPECT_EQ(escape_label_values("k=\"plain\""), "k=\"plain\"");
  EXPECT_EQ(escape_label_values("k=\"a\"b\""), "k=\"a\\\"b\"");
  EXPECT_EQ(escape_label_values("k=\"a\\b\""), "k=\"a\\\\b\"");
  EXPECT_EQ(escape_label_values("k=\"a\nb\""), "k=\"a\\nb\"");
  EXPECT_EQ(escape_label_values("k=\"a\",k2=\"b\"b\""), "k=\"a\",k2=\"b\\\"b\"");
  EXPECT_EQ(escape_label_values(""), "");
}

TEST(Exporters, PrometheusEscapesHostileLabelValues) {
  // A format legitimately named `Weird"Fmt` (or carrying a newline) must
  // not corrupt the exposition: one series line, value escaped.
  MetricsRegistry reg;
  reg.counter("rx_total{fmt=\"Weird\"Fmt\"}").add(2);
  reg.counter("rx_total{fmt=\"two\nlines\"}").add(1);
  std::string text = to_prometheus(reg.snapshot());
  EXPECT_NE(text.find("rx_total{fmt=\"Weird\\\"Fmt\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("rx_total{fmt=\"two\\nlines\"} 1\n"), std::string::npos);
  // The raw (unescaped) forms must not appear anywhere.
  EXPECT_EQ(text.find("Weird\"Fmt"), std::string::npos);
  EXPECT_EQ(text.find("two\nlines"), std::string::npos);
}

// ------------------------------------------------------------- JSON parser

TEST(Json, ParsesScalarsAndNesting) {
  JsonValue v = json_parse(R"({"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x\ny"})");
  EXPECT_EQ(v.at("a").as_array().size(), 3u);
  EXPECT_EQ(v.at("a").as_array()[0].as_u64(), 1u);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[1].as_number(), 2.5);
  EXPECT_DOUBLE_EQ(v.at("a").as_array()[2].as_number(), -3.0);
  EXPECT_TRUE(v.at("b").at("c").as_bool());
  EXPECT_TRUE(v.at("b").at("d").is_null());
  EXPECT_EQ(v.at("e").as_string(), "x\ny");
  EXPECT_EQ(v.find("zzz"), nullptr);
}

TEST(Json, ParsesUnicodeEscapes) {
  JsonValue v = json_parse(R"(["\u0041\u00e9"])");
  EXPECT_EQ(v.as_array()[0].as_string(), "A\xc3\xa9");
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(json_parse(""), JsonError);
  EXPECT_THROW(json_parse("{"), JsonError);
  EXPECT_THROW(json_parse("{} trailing"), JsonError);
  EXPECT_THROW(json_parse("[1,]"), JsonError);
  EXPECT_THROW(json_parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(json_parse("\"\\ud800\""), JsonError);  // lone surrogate
  EXPECT_THROW(json_parse("nul"), JsonError);
  EXPECT_THROW(json_parse("[999999999999999999999999999999e999999]"), JsonError);
  // Peer input: nesting past the cap throws instead of overflowing the
  // stack, and a count past u64 throws instead of an undefined cast.
  EXPECT_THROW(json_parse(std::string(1000000, '[')), JsonError);
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(json_parse(objects), JsonError);
  EXPECT_NO_THROW(json_parse(std::string(200, '[') + std::string(200, ']')));
  EXPECT_THROW(json_parse("18446744073709551616").as_u64(), JsonError);
  EXPECT_THROW(json_parse("1e300").as_u64(), JsonError);
  EXPECT_EQ(json_parse("9007199254740992").as_u64(), 9007199254740992u);
}

TEST(Json, TypeMismatchesThrow) {
  JsonValue v = json_parse(R"({"n": -1})");
  EXPECT_THROW(v.at("n").as_string(), JsonError);
  EXPECT_THROW(v.at("n").as_u64(), JsonError);  // negative
  EXPECT_THROW(v.at("missing"), JsonError);
  EXPECT_THROW(v.as_array(), JsonError);
}

// ------------------------------------------------------------------ traces

TEST(Trace, NewIdsAreNonZeroAndDistinct) {
  uint64_t a = new_trace_id();
  uint64_t b = new_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(Trace, ScopeInstallsAndRestores) {
  EXPECT_EQ(current_trace().trace_id, 0u);
  {
    TraceScope outer(TraceContext{11});
    EXPECT_EQ(current_trace().trace_id, 11u);
    {
      TraceScope inner(TraceContext{22});
      EXPECT_EQ(current_trace().trace_id, 22u);
    }
    EXPECT_EQ(current_trace().trace_id, 11u);
  }
  EXPECT_EQ(current_trace().trace_id, 0u);
}

TEST(Trace, SpanRecordsHistogramAlways) {
  set_tracing(false);
  clear_spans();
  Histogram h;
  { TraceSpan span("test.work", &h); }
  auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 1u);
  // Ring untouched when tracing is off.
  EXPECT_TRUE(recent_spans().empty());
}

TEST(Trace, SpanEntersRingWhenEnabled) {
  set_tracing(true);
  clear_spans();
  {
    TraceScope scope(TraceContext{0xbeef});
    TraceSpan span("test.ringed");
    EXPECT_EQ(span.trace_id(), 0xbeefu);
  }
  set_tracing(false);
  auto spans = recent_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "test.ringed");
  EXPECT_EQ(spans[0].trace_id, 0xbeefu);
  clear_spans();
}

TEST(Trace, RingIsBounded) {
  set_tracing(true);
  clear_spans();
  for (size_t i = 0; i < kSpanRingCapacity + 50; ++i) {
    TraceSpan span("test.flood");
  }
  set_tracing(false);
  EXPECT_EQ(recent_spans().size(), kSpanRingCapacity);
  clear_spans();
}

TEST(Trace, MonotonicClockAdvances) {
  uint64_t a = monotonic_ns();
  uint64_t b = monotonic_ns();
  EXPECT_LE(a, b);
}

TEST(Trace, RingEvictionBumpsDropCounter) {
  Counter& dropped = metrics().counter("morph_obs_spans_dropped_total");
  set_tracing(true);
  clear_spans();
  const uint64_t before = dropped.value();
  for (size_t i = 0; i < kSpanRingCapacity + 50; ++i) {
    TraceSpan span("test.flood");
  }
  set_tracing(false);
  // Exactly the overflow is counted: saturation is visible, never silent.
  EXPECT_EQ(dropped.value() - before, 50u);
  clear_spans();
}

TEST(Trace, NestedSpansLinkParentToChild) {
  set_tracing(true);
  clear_spans();
  {
    TraceScope scope(TraceContext{0xF00});
    TraceSpan outer("test.outer");
    EXPECT_NE(outer.span_id(), 0u);
    {
      TraceSpan inner("test.inner");
      inner.set_detail("FmtA");
      EXPECT_NE(inner.span_id(), outer.span_id());
    }
  }
  set_tracing(false);
  auto spans = recent_spans();
  ASSERT_EQ(spans.size(), 2u);
  // Inner finishes (and rings) first.
  EXPECT_EQ(spans[0].name, "test.inner");
  EXPECT_EQ(spans[0].detail, "FmtA");
  EXPECT_EQ(spans[1].name, "test.outer");
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
  EXPECT_EQ(spans[1].parent_id, 0u);  // root: no enclosing span
  EXPECT_NE(spans[0].span_id, 0u);
  clear_spans();
}

TEST(Trace, RecordSpanAdoptsCurrentParent) {
  set_tracing(true);
  clear_spans();
  {
    TraceScope scope(TraceContext{0xF01});
    TraceSpan outer("test.outer");
    record_span("test.timed", "FmtB", 123, 456);
  }
  set_tracing(false);
  auto spans = recent_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "test.timed");
  EXPECT_EQ(spans[0].detail, "FmtB");
  EXPECT_EQ(spans[0].start_ns, 123u);
  EXPECT_EQ(spans[0].dur_ns, 456u);
  EXPECT_EQ(spans[0].trace_id, 0xF01u);
  EXPECT_EQ(spans[0].parent_id, spans[1].span_id);
  clear_spans();
}

TEST(Trace, RecordSpanIsNoOpWhenTracingOff) {
  set_tracing(false);
  clear_spans();
  record_span("test.ghost", "", 1, 2);
  EXPECT_TRUE(recent_spans().empty());
}

TEST(Trace, DrainMovesSpansOutExactlyOnce) {
  set_tracing(true);
  clear_spans();
  {
    TraceScope scope(TraceContext{0xD1});
    TraceSpan span("test.drained");
  }
  set_tracing(false);
  auto drained = drain_spans();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].name, "test.drained");
  EXPECT_TRUE(recent_spans().empty());
  EXPECT_TRUE(drain_spans().empty());
}

TEST(Trace, SpansForTraceFiltersById) {
  set_tracing(true);
  clear_spans();
  {
    TraceScope scope(TraceContext{0xAA});
    TraceSpan span("test.a");
  }
  {
    TraceScope scope(TraceContext{0xBB});
    TraceSpan span("test.b");
  }
  set_tracing(false);
  auto only_a = spans_for_trace(0xAA);
  ASSERT_EQ(only_a.size(), 1u);
  EXPECT_EQ(only_a[0].name, "test.a");
  EXPECT_TRUE(spans_for_trace(0xCC).empty());
  // Non-destructive: the ring still holds both.
  EXPECT_EQ(recent_spans().size(), 2u);
  clear_spans();
}

TEST(Trace, ProcessNameOverridable) {
  std::string original = process_name();
  EXPECT_FALSE(original.empty());
  set_process_name("unit-proc");
  EXPECT_EQ(process_name(), "unit-proc");
  set_process_name(original);
}

}  // namespace
}  // namespace morph::obs
