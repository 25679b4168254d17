// Telemetry plane tests: the morph-telemetry-v1 wire codec (including
// hostile inputs), the TraceStitcher (stitching, critical paths, morph
// attribution, conservation checks, retention caps), the flight recorder,
// and the SpanExporter -> TelemetryCollector path over real TCP (including
// the collector's golden reply stream and its admission cap).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "core/receiver.hpp"
#include "golden.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stitch.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "pbio/encode.hpp"
#include "pbio/record.hpp"
#include "transport/framing.hpp"
#include "transport/tcp.hpp"
#include "transport/telemetry_endpoint.hpp"

namespace morph::obs {
namespace {

SpanRecord make_span(const char* name, uint64_t trace, uint64_t span, uint64_t parent,
                     uint64_t start, uint64_t dur, const std::string& detail = "") {
  SpanRecord s;
  s.name = name;
  s.trace_id = trace;
  s.span_id = span;
  s.parent_id = parent;
  s.start_ns = start;
  s.dur_ns = dur;
  s.thread = 1;
  s.detail = detail;
  return s;
}

// ---------------------------------------------------------------------------
// morph-telemetry-v1 wire codec
// ---------------------------------------------------------------------------

TEST(TelemetryWire, SpanBatchRoundTrips) {
  SpanBatch batch;
  batch.process = "proc-a";
  batch.exported_total = 42;
  batch.dropped_total = 3;
  batch.morphs_total = 7;
  batch.spans.push_back(make_span("rx.morph", 0x1111, 2, 1, 100, 250, "ChannelOpen"));
  batch.spans.push_back(make_span("port.send", 0xFFFFFFFFFFFFFFFFull, 9, 0, 5, 10));

  auto wire = encode_span_batch(batch);
  EXPECT_EQ(telemetry_op(wire.data(), wire.size()),
            static_cast<uint8_t>(TelemetryOp::kSpanBatch));

  SpanBatch out = decode_span_batch(wire.data(), wire.size());
  EXPECT_EQ(out.process, "proc-a");
  EXPECT_EQ(out.exported_total, 42u);
  EXPECT_EQ(out.dropped_total, 3u);
  EXPECT_EQ(out.morphs_total, 7u);
  ASSERT_EQ(out.spans.size(), 2u);
  EXPECT_EQ(out.spans[0].name, "rx.morph");
  EXPECT_EQ(out.spans[0].detail, "ChannelOpen");
  EXPECT_EQ(out.spans[0].trace_id, 0x1111u);
  EXPECT_EQ(out.spans[0].span_id, 2u);
  EXPECT_EQ(out.spans[0].parent_id, 1u);
  EXPECT_EQ(out.spans[0].start_ns, 100u);
  EXPECT_EQ(out.spans[0].dur_ns, 250u);
  EXPECT_EQ(out.spans[0].thread, 1u);
  EXPECT_EQ(out.spans[1].trace_id, 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(out.spans[1].parent_id, 0u);
}

TEST(TelemetryWire, RejectsWrongOp) {
  auto wire = encode_dump_request();
  EXPECT_THROW(decode_span_batch(wire.data(), wire.size()), DecodeError);
  auto batch = encode_span_batch(SpanBatch{});
  EXPECT_THROW(decode_dump_reply(batch.data(), batch.size()), DecodeError);
}

TEST(TelemetryWire, RejectsTruncation) {
  SpanBatch batch;
  batch.process = "p";
  batch.spans.push_back(make_span("a", 1, 1, 0, 0, 1));
  auto wire = encode_span_batch(batch);
  for (size_t cut = 1; cut < wire.size(); ++cut) {
    EXPECT_THROW(decode_span_batch(wire.data(), wire.size() - cut), DecodeError)
        << "cut " << cut << " bytes";
  }
}

TEST(TelemetryWire, RejectsSpanCountAboveCap) {
  // A 13-byte header claiming 2^20 spans must be rejected before any
  // allocation: patch the trailing span-count field of an empty batch.
  SpanBatch batch;
  batch.process = "p";
  auto wire = encode_span_batch(batch);
  const uint32_t evil = kMaxSpansPerBatch + 1;
  std::memcpy(wire.data() + wire.size() - 4, &evil, 4);
  EXPECT_THROW(decode_span_batch(wire.data(), wire.size()), DecodeError);
}

TEST(TelemetryWire, RejectsTrailingBytes) {
  auto wire = encode_span_batch(SpanBatch{});
  wire.push_back(0xAA);
  EXPECT_THROW(decode_span_batch(wire.data(), wire.size()), DecodeError);
}

TEST(TelemetryWire, DumpRequestReplyRoundTrip) {
  auto req = encode_dump_request();
  EXPECT_EQ(telemetry_op(req.data(), req.size()),
            static_cast<uint8_t>(TelemetryOp::kDumpRequest));

  auto reply = encode_dump_reply("{\"schema\":\"morph-telemetry-v1\"}");
  EXPECT_EQ(decode_dump_reply(reply.data(), reply.size()),
            "{\"schema\":\"morph-telemetry-v1\"}");

  EXPECT_EQ(telemetry_op(nullptr, 0), 0u);
}

// ---------------------------------------------------------------------------
// TraceStitcher
// ---------------------------------------------------------------------------

SpanBatch batch_for(const std::string& process, std::vector<SpanRecord> spans,
                    uint64_t morphs = 0, uint64_t dropped = 0) {
  SpanBatch b;
  b.process = process;
  b.spans = std::move(spans);
  b.exported_total = b.spans.size();
  b.dropped_total = dropped;
  b.morphs_total = morphs;
  return b;
}

TEST(Stitcher, StitchesOneTraceAcrossProcesses) {
  TraceStitcher st;
  st.ingest(batch_for("pub", {make_span("pub.event", 0xAB, 1, 0, 0, 100)}));
  st.ingest(batch_for("broker", {make_span("port.deliver", 0xAB, 7, 0, 0, 80)}));

  auto ids = st.trace_ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 0xABu);

  auto spans = st.trace(0xAB);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].process, "pub");
  EXPECT_EQ(spans[1].process, "broker");
  EXPECT_TRUE(st.trace(0xDEAD).empty());
}

TEST(Stitcher, ZeroTraceIdNeverStitchesButStillCounts) {
  TraceStitcher st;
  st.ingest(batch_for("p", {make_span("untraced", 0, 1, 0, 0, 5)}));
  EXPECT_TRUE(st.trace_ids().empty());
  auto procs = st.processes();
  ASSERT_EQ(procs.size(), 1u);
  EXPECT_EQ(procs[0].second.spans_ingested, 1u);
}

TEST(Stitcher, CriticalPathPicksHeaviestChainAndComputesSelf) {
  // root(100) -> a(60) -> grand(50)
  //          \-> b(20)
  TraceStitcher st;
  st.ingest(batch_for("p", {
                               make_span("root", 0xC0, 1, 0, 0, 100),
                               make_span("a", 0xC0, 2, 1, 10, 60),
                               make_span("b", 0xC0, 3, 1, 75, 20),
                               make_span("grand", 0xC0, 4, 2, 15, 50),
                           }));
  auto path = st.critical_path(0xC0);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0].name, "root");
  EXPECT_EQ(path[0].dur_ns, 100u);
  EXPECT_EQ(path[0].self_ns, 20u);  // 100 - (60 + 20)
  EXPECT_EQ(path[1].name, "a");
  EXPECT_EQ(path[1].self_ns, 10u);  // 60 - 50
  EXPECT_EQ(path[2].name, "grand");
  EXPECT_EQ(path[2].self_ns, 50u);
}

TEST(Stitcher, CriticalPathCoversEveryContributingProcess) {
  TraceStitcher st;
  st.ingest(batch_for("pub", {make_span("pub.event", 0xD1, 1, 0, 0, 40)}));
  st.ingest(batch_for("rcv", {make_span("port.deliver", 0xD1, 1, 0, 0, 30)}));
  auto path = st.critical_path(0xD1);
  ASSERT_EQ(path.size(), 2u);
  // Processes ordered by name: cross-process clocks are not comparable.
  EXPECT_EQ(path[0].process, "pub");
  EXPECT_EQ(path[1].process, "rcv");
}

TEST(Stitcher, CriticalPathSurvivesParentCycles) {
  // A hostile exporter can claim span 1 parents span 2 parents span 1;
  // critical_path must terminate, not spin.
  TraceStitcher st;
  st.ingest(batch_for("p", {
                               make_span("x", 0xE0, 1, 2, 0, 10),
                               make_span("y", 0xE0, 2, 1, 0, 10),
                           }));
  auto path = st.critical_path(0xE0);  // must return, contents best-effort
  EXPECT_LE(path.size(), 2u);
}

TEST(Stitcher, AttributionAggregatesMorphSpansByProcessAndFormat) {
  TraceStitcher st;
  st.ingest(batch_for("broker",
                      {
                          make_span("rx.morph", 1, 1, 0, 0, 100, "Resp"),
                          make_span("rx.morph", 2, 2, 0, 0, 300, "Resp"),
                          make_span("fanout.morph", 3, 3, 0, 0, 50, "RespV1"),
                          make_span("port.send", 4, 4, 0, 0, 999),  // not a morph
                      },
                      3));
  auto rows = st.attribution();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].process, "broker");
  EXPECT_EQ(rows[0].format, "Resp");
  EXPECT_EQ(rows[0].morphs, 2u);
  EXPECT_EQ(rows[0].total_ns, 400u);
  EXPECT_EQ(rows[0].max_ns, 300u);
  EXPECT_EQ(rows[1].format, "RespV1");
  EXPECT_EQ(rows[1].morphs, 1u);
}

TEST(Stitcher, CheckPassesWhenEverythingAccounts) {
  TraceStitcher st;
  st.ingest(batch_for("p", {make_span("rx.morph", 1, 1, 0, 0, 10, "F")}, /*morphs=*/1));
  EXPECT_TRUE(st.check().empty());
}

TEST(Stitcher, CheckFlagsSpansLostInTransit) {
  TraceStitcher st;
  SpanBatch b = batch_for("p", {make_span("s", 1, 1, 0, 0, 10)});
  b.exported_total = 5;  // sender claims 5, we got 1
  st.ingest(b);
  auto violations = st.check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("p"), std::string::npos);
}

TEST(Stitcher, CheckFlagsUnattributedMorphs) {
  TraceStitcher st;
  // Sender's counters say 2 morphs, only 1 morph span arrived, zero ring
  // drops: a span went missing somewhere other than the ring.
  st.ingest(batch_for("p", {make_span("rx.morph", 1, 1, 0, 0, 10, "F")}, /*morphs=*/2));
  EXPECT_FALSE(st.check().empty());
}

TEST(Stitcher, CheckTolerantOfRingDrops) {
  TraceStitcher st;
  // Same mismatch, but the sender admits ring drops: attributed <= total is
  // the best provable bound, so this must pass.
  st.ingest(batch_for("p", {make_span("rx.morph", 1, 1, 0, 0, 10, "F")}, /*morphs=*/2,
                      /*dropped=*/1));
  EXPECT_TRUE(st.check().empty());
}

TEST(Stitcher, TraceRetentionCapCountsDrops) {
  TraceStitcher st;
  for (size_t i = 0; i < kMaxTracesRetained + 5; ++i) {
    st.ingest(batch_for("p", {make_span("s", i + 1, 1, 0, 0, 1)}));
  }
  EXPECT_EQ(st.trace_ids().size(), kMaxTracesRetained);
  EXPECT_EQ(st.traces_dropped(), 5u);
}

TEST(Stitcher, PerTraceSpanCapCountsOverflow) {
  TraceStitcher st;
  std::vector<SpanRecord> spans;
  for (size_t i = 0; i < kMaxSpansPerTrace + 3; ++i) {
    spans.push_back(make_span("s", 0xF00D, i + 1, 0, i, 1));
  }
  st.ingest(batch_for("p", std::move(spans)));
  EXPECT_EQ(st.trace(0xF00D).size(), kMaxSpansPerTrace);
  EXPECT_EQ(st.spans_overflowed(), 3u);
}

TEST(Stitcher, CumulativeCountersMaxMergeAcrossBatches) {
  TraceStitcher st;
  SpanBatch b1 = batch_for("p", {make_span("s", 1, 1, 0, 0, 1)});
  b1.exported_total = 1;
  st.ingest(b1);
  SpanBatch b2 = batch_for("p", {make_span("s", 2, 1, 0, 0, 1)});
  b2.exported_total = 2;  // cumulative, includes b1's span
  st.ingest(b2);
  auto procs = st.processes();
  ASSERT_EQ(procs.size(), 1u);
  EXPECT_EQ(procs[0].second.batches, 2u);
  EXPECT_EQ(procs[0].second.spans_ingested, 2u);
  EXPECT_EQ(procs[0].second.exported_total, 2u);
  EXPECT_TRUE(st.check().empty());
}

TEST(Stitcher, ToJsonParsesAndCarriesSchema) {
  TraceStitcher st;
  st.ingest(batch_for("broker", {make_span("rx.morph", 0xAB, 1, 0, 0, 10, "F")},
                      /*morphs=*/1));
  JsonValue doc = json_parse(st.to_json());
  EXPECT_EQ(doc.at("schema").as_string(), "morph-telemetry-v1");
  EXPECT_TRUE(doc.at("conservation").at("ok").as_bool());
  ASSERT_EQ(doc.at("traces").as_array().size(), 1u);
  const JsonValue& trace = doc.at("traces").as_array()[0];
  EXPECT_EQ(trace.at("spans").as_array().size(), 1u);
  EXPECT_EQ(trace.at("spans").as_array()[0].at("process").as_string(), "broker");
  ASSERT_EQ(doc.at("attribution").as_array().size(), 1u);
  EXPECT_EQ(doc.at("attribution").as_array()[0].at("format").as_string(), "F");
  EXPECT_EQ(doc.at("processes").as_object().count("broker"), 1u);
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

TEST(Flight, RingBoundsAndCountersKeepTotals) {
  clear_flight_events();
  Counter& total = metrics().counter("morph_flight_events_total{kind=\"reject\"}");
  const uint64_t before = total.value();
  for (size_t i = 0; i < kFlightRingCapacity + 10; ++i) {
    flight_record(FlightKind::kReject, 0, "evt-" + std::to_string(i));
  }
  auto events = flight_events();
  ASSERT_EQ(events.size(), kFlightRingCapacity);
  // Oldest evicted: the ring starts at evt-10.
  EXPECT_EQ(events.front().detail, "evt-10");
  EXPECT_EQ(events.back().detail, "evt-" + std::to_string(kFlightRingCapacity + 9));
  // The per-kind counter remembers what the ring forgot.
  EXPECT_EQ(total.value() - before, kFlightRingCapacity + 10);
  clear_flight_events();
}

TEST(Flight, KindNames) {
  EXPECT_STREQ(flight_kind_name(FlightKind::kReject), "reject");
  EXPECT_STREQ(flight_kind_name(FlightKind::kResolverRetry), "resolver_retry");
  EXPECT_STREQ(flight_kind_name(FlightKind::kFanoutFallback), "fanout_fallback");
  EXPECT_STREQ(flight_kind_name(FlightKind::kSlowMorph), "slow_morph");
}

TEST(Flight, SlowThresholdOverridable) {
  const uint64_t prev = flight_slow_ns();
  set_flight_slow_ns(123);
  EXPECT_EQ(flight_slow_ns(), 123u);
  set_flight_slow_ns(prev);
  EXPECT_EQ(flight_slow_ns(), prev);
}

TEST(Flight, SlowMorphTailSamplesItsTrace) {
  clear_flight_events();
  const bool was_tracing = tracing_enabled();
  set_tracing(true);
  clear_spans();

  const uint64_t trace = new_trace_id();
  {
    TraceScope scope(TraceContext{trace});
    record_span("rx.morph", "F", 10, 999);
  }
  record_span("other.work", "", 5, 1);  // different (absent) trace: not sampled

  flight_record(FlightKind::kSlowMorph, trace, "slow morph");
  flight_record(FlightKind::kReject, trace, "reject");  // no tail sample

  auto events = flight_events();
  ASSERT_EQ(events.size(), 2u);
  ASSERT_EQ(events[0].spans.size(), 1u);
  EXPECT_EQ(events[0].spans[0].name, "rx.morph");
  EXPECT_EQ(events[0].spans[0].trace_id, trace);
  EXPECT_TRUE(events[1].spans.empty());

  std::string text = flight_dump_text();
  EXPECT_NE(text.find("slow_morph"), std::string::npos);
  EXPECT_NE(text.find("slow morph"), std::string::npos);

  clear_flight_events();
  clear_spans();
  set_tracing(was_tracing);
}

}  // namespace
}  // namespace morph::obs

// ---------------------------------------------------------------------------
// SpanExporter -> TelemetryCollector over real TCP
// ---------------------------------------------------------------------------

namespace morph::transport {
namespace {

TEST(TelemetryEndpoint, ExportIngestDumpRoundTrip) {
  obs::clear_spans();
  obs::set_process_name("itest-proc");
  TelemetryCollector collector(CollectorOptions{});

  ExporterOptions opts;
  opts.port = collector.port();
  opts.interval_ms = 10;
  SpanExporter exporter(opts);  // enables tracing

  const uint64_t trace = obs::new_trace_id();
  {
    obs::TraceScope scope(obs::TraceContext{trace});
    obs::TraceSpan outer("itest.outer");
    obs::record_span("itest.inner", "detail", obs::monotonic_ns(), 100);
  }
  ASSERT_TRUE(exporter.flush());
  EXPECT_GE(exporter.exported(), 2u);

  // Ingest happens on the collector's connection thread; wait for it.
  for (int i = 0; i < 100 && collector.stats().spans < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  CollectorStats stats = collector.stats();
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.spans, 2u);
  EXPECT_EQ(stats.bad_frames, 0u);

  auto spans = collector.stitcher().trace(trace);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].process, "itest-proc");
  // Linkage survived the wire: the record_span interval parents under the
  // enclosing TraceSpan.
  EXPECT_EQ(spans[0].span.name, "itest.inner");
  EXPECT_EQ(spans[1].span.name, "itest.outer");
  EXPECT_EQ(spans[0].span.parent_id, spans[1].span.span_id);

  std::string dump = fetch_telemetry_dump("127.0.0.1", collector.port());
  obs::JsonValue doc = obs::json_parse(dump);
  EXPECT_EQ(doc.at("schema").as_string(), "morph-telemetry-v1");
  EXPECT_EQ(doc.at("processes").as_object().count("itest-proc"), 1u);

  obs::set_tracing(false);
  obs::clear_spans();
}

TEST(TelemetryEndpoint, MorphsTotalCountsLiveAndDestroyedReceivers) {
  // A batch's morphs_total reads morph_rx_morphs_total, whose value lives
  // in each receiver's counters: it must include the receiver still alive
  // and keep what a destroyed one counted.
  obs::clear_spans();
  obs::set_process_name("morphs-proc");
  const uint64_t base = obs::metrics().counter("morph_rx_morphs_total").value() +
                        obs::metrics().counter("echo_fanout_morphs_total").value();
  const auto v1 = pbio::FormatBuilder("Tick").add_int("seq", 4).build();
  const auto v2 = pbio::FormatBuilder("Tick").add_int("seq", 4).add_int("extra", 4).build();
  core::TransformSpec down;
  down.src = v2;
  down.dst = v1;
  down.code = "old.seq = new.seq;";
  auto morph = [&](core::Receiver& rx, int n) {
    rx.register_handler(v1, [](const core::Delivery&) {});
    rx.learn_format(v2);
    rx.learn_transform(down);
    RecordArena arena;
    void* rec = pbio::alloc_record(*v2, arena);
    ByteBuffer wire;
    pbio::Encoder(v2).encode(rec, wire);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(rx.process(wire.data(), wire.size(), arena), core::Outcome::kMorphed);
    }
  };
  {
    core::Receiver gone;
    morph(gone, 1);
  }
  core::Receiver live;
  morph(live, 2);

  TelemetryCollector collector(CollectorOptions{});
  ExporterOptions opts;
  opts.port = collector.port();
  opts.interval_ms = 60000;  // flushed by hand
  SpanExporter exporter(opts);
  { obs::TraceSpan span("morphs.probe"); }
  ASSERT_TRUE(exporter.flush());
  for (int i = 0; i < 100 && collector.stats().batches == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  obs::ProcessRecord rec;
  for (const auto& [name, r] : collector.stitcher().processes()) {
    if (name == "morphs-proc") rec = r;
  }
  EXPECT_EQ(rec.batches, 1u);
  EXPECT_EQ(rec.morphs_total, base + 3);

  obs::set_tracing(false);
  obs::clear_spans();
}

TEST(TelemetryEndpoint, ExporterKeepsSpansWhenCollectorUnreachable) {
  obs::clear_spans();
  // Grab an ephemeral port with nothing behind it.
  uint16_t dead_port;
  {
    TcpListener probe(0);
    dead_port = probe.port();
  }
  ExporterOptions opts;
  opts.port = dead_port;
  opts.interval_ms = 60000;  // effectively manual
  SpanExporter exporter(opts);

  {
    obs::TraceScope scope(obs::TraceContext{obs::new_trace_id()});
    obs::TraceSpan span("doomed.work");
  }
  EXPECT_FALSE(exporter.flush());
  EXPECT_EQ(exporter.exported(), 0u);

  obs::set_tracing(false);
  obs::clear_spans();
}

TEST(TelemetryEndpoint, MalformedFrameKillsOnlyItsConnection) {
  TelemetryCollector collector(CollectorOptions{});

  // A well-framed kTelemetry frame whose payload is garbage.
  auto link = TcpLink::connect("127.0.0.1", collector.port());
  ByteBuffer frame;
  const uint8_t junk[3] = {99, 1, 2};
  write_frame(frame, FrameType::kTelemetry, junk, sizeof junk);
  link->send(frame);

  for (int i = 0; i < 100 && collector.stats().bad_frames == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(collector.stats().bad_frames, 1u);

  // The collector still serves a fresh connection.
  std::string dump = fetch_telemetry_dump("127.0.0.1", collector.port());
  EXPECT_EQ(obs::json_parse(dump).at("schema").as_string(), "morph-telemetry-v1");
}

TEST(TelemetryEndpoint, DumpReplyBytesMatchGolden) {
  // One fixed three-span batch, then a dump request, on one connection: the
  // stitched-state reply must equal the recorded golden bytes.
  obs::set_tracing(false);
  TelemetryCollector collector;
  golden::check("telemetry_dump", collector.port());
  EXPECT_EQ(collector.stats().spans, 3u);
}

TEST(TelemetryEndpoint, MaxConnectionsRefusesExtraClients) {
  CollectorOptions opts;
  opts.max_connections = 1;
  TelemetryCollector collector(opts);

  auto held = TcpLink::connect("127.0.0.1", collector.port());
  for (int i = 0; i < 200 && collector.stats().connections == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(collector.stats().connections, 1u);

  // A dump client beyond the cap is closed on accept and gets no reply.
  EXPECT_THROW(fetch_telemetry_dump("127.0.0.1", collector.port(), 2000), TransportError);
  EXPECT_EQ(collector.stats().connections, 1u);
  EXPECT_EQ(collector.stats().dumps, 0u);

  // Freeing the slot serves the next client.
  held->close();
  std::string dump;
  for (int i = 0; i < 200 && dump.empty(); ++i) {
    try {
      dump = fetch_telemetry_dump("127.0.0.1", collector.port(), 2000);
    } catch (const TransportError&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_EQ(obs::json_parse(dump).at("schema").as_string(), "morph-telemetry-v1");
}

TEST(TelemetryEndpoint, FetchDumpWaitsOutADribbledReply) {
  // A collector that writes its reply in 30 pieces, 5 ms apart (~150 ms in
  // all), well inside the client's 1 s budget. Every piece ends one pump,
  // so a deadline that counts pump calls instead of elapsed time gives up
  // a third of the way through the reply.
  auto payload = obs::encode_dump_reply("{\"schema\": \"morph-telemetry-v1\", \"pad\": \"" +
                                        std::string(150, 'x') + "\"}");
  ByteBuffer reply;
  write_frame(reply, FrameType::kTelemetry, payload.data(), payload.size());

  TcpListener listener(0);
  std::thread server([&] {
    auto conn = listener.accept(2000);
    if (!conn) return;
    bool asked = false;
    conn->set_on_data([&](const uint8_t*, size_t) { asked = true; });
    try {
      while (!asked && conn->pump(100)) {
      }
      constexpr size_t kPieces = 30;
      const size_t step = (reply.size() + kPieces - 1) / kPieces;
      for (size_t off = 0; off < reply.size(); off += step) {
        conn->send(reply.data() + off, std::min(step, reply.size() - off));
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      conn->pump(1000);  // hold the connection until the client is done
    } catch (const TransportError&) {
      // The client gave up and closed; its own assertion reports that.
    }
  });

  std::string dump;
  EXPECT_NO_THROW(dump = fetch_telemetry_dump("127.0.0.1", listener.port(), 1000));
  server.join();
  EXPECT_NE(dump.find(std::string(150, 'x')), std::string::npos);
}

}  // namespace
}  // namespace morph::transport
