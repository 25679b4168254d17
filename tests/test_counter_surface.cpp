// The scrape surface of the per-instance counters. A fixed scenario drives
// every subsystem that keeps its counters in an obs::CounterSet: an ECho
// publish with one morphing and one fallback sink, a MessagePort exchange,
// a resolver fetch from an in-process format service, a reactor server
// accept (and a refusal) and a telemetry batch. Each step checks that its
// instances' stats() equal the scrape deltas of their counters, before and
// after the instances are destroyed. Finally every counter name in
// tests/golden/counter_names.txt (the names this scenario registered
// before the counters moved into the instances) must still be scraped,
// exactly once. Every scrape satisfies the catalog's conservation laws,
// and every family the scenario registers is catalogued.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "echo/process.hpp"
#include "fmtsvc/resolver.hpp"
#include "fmtsvc/server.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "pbio/record.hpp"
#include "scrape_check.hpp"
#include "transport/framing.hpp"
#include "transport/port.hpp"
#include "transport/reactor.hpp"
#include "transport/telemetry_endpoint.hpp"

namespace morph {
namespace {

using pbio::FormatBuilder;

template <class Pred>
bool wait_for(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

void echo_step() {
  const auto old_fmt = FormatBuilder("Tick").add_int("seq", 4).add_float("v", 8).build();
  const auto new_fmt =
      FormatBuilder("Tick").add_int("seq", 8).add_float("v", 8).add_int("quality", 4).build();
  // No chain reaches this revision: its sink gets the per-sink fallback.
  const auto other_fmt =
      FormatBuilder("Tick").add_int("seq", 4).add_float("v", 8).add_int("flag", 4).build();
  core::TransformSpec spec;
  spec.src = new_fmt;
  spec.dst = old_fmt;
  spec.code = "old.seq = new.seq; old.v = new.v;";

  const auto before = scrape::counters();
  scrape::Counters live;
  // Field-wise sums over the domain's processes.
  core::ReceiverStats rx;
  core::FanoutPlannerStats planner;
  echo::EchoProcess::ProcessStats process;
  echo::PublisherStats publisher;
  {
    echo::EchoDomain dom;
    auto& creator = dom.spawn("creator", echo::EchoVersion::kV1);
    auto& source = dom.spawn("source", echo::EchoVersion::kV2);
    auto& morphing = dom.spawn("morphing", echo::EchoVersion::kV1);
    auto& fallback = dom.spawn("fallback", echo::EchoVersion::kV1);
    for (auto* p : {&source, &morphing, &fallback}) dom.connect(creator, *p);
    dom.connect(source, morphing);
    dom.connect(source, fallback);
    dom.pump();

    creator.create_channel("ticks");
    int delivered = 0;
    morphing.on_event("ticks", old_fmt, [&](const echo::Event&) { ++delivered; });
    fallback.on_event("ticks", other_fmt, [&](const echo::Event&) { ++delivered; });
    source.declare_event_transform(spec);
    morphing.open_channel("ticks", "creator", false, true);
    fallback.open_channel("ticks", "creator", false, true);
    source.open_channel("ticks", "creator", true, false);
    dom.pump();

    RecordArena arena;
    void* rec = pbio::alloc_record(*new_fmt, arena);
    pbio::RecordRef(rec, new_fmt).set_int("seq", 7);
    EXPECT_EQ(source.publish("ticks", new_fmt, rec), 2u);
    dom.pump();
    EXPECT_EQ(delivered, 2);

    for (auto* p : {&creator, &source, &morphing, &fallback}) {
      rx += p->receiver_totals();
      obs::stats_add(planner, p->fanout_planner().stats());
      const auto s = p->stats();
      obs::stats_add(process, s);
      obs::stats_add(publisher, static_cast<const echo::PublisherStats&>(s));
    }
    EXPECT_EQ(publisher.fanout_morphs, 1u);
    EXPECT_EQ(publisher.fanout_fallbacks, 1u);
    live = scrape::counters();
  }
  scrape::expect_one_store(before, live, rx, planner, process, publisher);
}

void port_step() {
  const auto fmt = FormatBuilder("Ping").add_int("n", 4).build();
  const auto before = scrape::counters();
  scrape::Counters live;
  transport::MessagePort::PortStats ports;
  {
    transport::InprocPair pair;
    core::Receiver rx;
    int got = 0;
    rx.register_handler(fmt, [&](const core::Delivery&) { ++got; });
    transport::MessagePort tx(pair.a(), nullptr);
    transport::MessagePort rx_port(pair.b(), &rx);
    RecordArena arena;
    void* rec = pbio::alloc_record(*fmt, arena);
    tx.send_record(fmt, rec);
    tx.send_record(fmt, rec);
    const uint8_t junk[2] = {1, 2};
    tx.send_control(junk, sizeof junk);
    pair.pump();
    EXPECT_EQ(got, 2);

    ports = tx.stats();
    obs::stats_add(ports, rx_port.stats());
    EXPECT_EQ(ports.data_sent, 2u);
    EXPECT_EQ(ports.data_received, 2u);
    EXPECT_GT(ports.control_bytes_sent, 0u);
    live = scrape::counters();
  }
  scrape::expect_one_store(before, live, ports);
}

void fmtsvc_step() {
  const auto fmt = FormatBuilder("Resolved").add_int("a", 4).build();
  const auto before = scrape::counters();
  scrape::Counters live;
  fmtsvc::ResolverStats rs;
  fmtsvc::ServiceStats ss;
  {
    fmtsvc::FormatStore store;
    fmtsvc::FormatService service(store);
    fmtsvc::ResolverOptions opts;
    opts.port = service.port();
    fmtsvc::FormatResolver resolver(opts);
    ASSERT_TRUE(resolver.publish(fmt));
    resolver.flush_cache();
    ASSERT_TRUE(resolver.resolve(fmt->fingerprint()).has_value());  // fetched
    ASSERT_TRUE(resolver.resolve(fmt->fingerprint()).has_value());  // cached
    EXPECT_FALSE(resolver.resolve(0xdead).has_value());             // not found

    rs = resolver.stats();
    ss = service.stats();
    EXPECT_EQ(rs.fetched, 1u);
    EXPECT_EQ(rs.cache_hits, 1u);
    EXPECT_EQ(ss.not_found, 1u);
    EXPECT_EQ(ss.requests, ss.register_requests + ss.fetch_requests);
    live = scrape::counters();
  }
  scrape::expect_one_store(before, live, rs, ss);
}

void reactor_step() {
  const auto before = scrape::counters();
  scrape::Counters live;
  transport::Reactor::Stats s;
  {
    transport::TcpListener listener(0);
    transport::ReactorServer server(listener, transport::ReactorOptions{.max_connections = 1},
                                    [](transport::AsyncTcpLink&) {});
    auto first = transport::TcpLink::connect("127.0.0.1", server.port());
    ASSERT_TRUE(wait_for([&] { return server.stats().accepted == 1; }));
    auto second = transport::TcpLink::connect("127.0.0.1", server.port());
    ASSERT_TRUE(wait_for([&] { return server.refused() == 1; }));
    first.reset();
    second.reset();
    // Quiesce: the close is the last event the loop counts.
    ASSERT_TRUE(wait_for([&] { return server.stats().closed == 1; }));
    s = server.stats();
    live = scrape::counters();
  }
  scrape::expect_one_store(before, live, s);
}

void telemetry_step() {
  const auto before = scrape::counters();
  scrape::Counters live;
  transport::CollectorStats s;
  {
    transport::TelemetryCollector collector;
    obs::SpanBatch batch;
    batch.process = "surface";
    batch.spans.emplace_back();
    batch.spans.back().name = "surface.step";
    batch.spans.back().trace_id = 1;
    batch.exported_total = 1;
    const auto payload = obs::encode_span_batch(batch);
    ByteBuffer frame;
    transport::write_frame(frame, transport::FrameType::kTelemetry, payload.data(),
                           payload.size());
    auto link = transport::TcpLink::connect("127.0.0.1", collector.port());
    link->send(frame);
    ASSERT_TRUE(wait_for([&] { return collector.stats().batches == 1; }));
    s = collector.stats();
    EXPECT_EQ(s.spans, 1u);
    live = scrape::counters();
  }
  scrape::expect_one_store(before, live, s);
}

TEST(CounterSurface, StatsAreTheScrapedStore) {
  echo_step();
  port_step();
  fmtsvc_step();
  reactor_step();
  telemetry_step();
  scrape::expect_value_matches_snapshot();

  std::ifstream golden(std::string(MORPH_GOLDEN_DIR) + "/counter_names.txt");
  ASSERT_TRUE(golden.good()) << "missing golden file counter_names.txt";
  const auto snap = obs::metrics().snapshot();
  size_t names = 0;
  for (std::string name; std::getline(golden, name); ++names) {
    size_t seen = 0;
    for (const auto& [n, v] : snap.counters) seen += n == name ? 1 : 0;
    EXPECT_EQ(seen, 1u) << name;
  }
  EXPECT_GT(names, 0u);
}

TEST(CounterSurface, EveryFamilyIsCataloguedAndDocumentedOnce) {
  echo_step();
  port_step();
  fmtsvc_step();
  reactor_step();
  telemetry_step();

  // Every family the scenario left in the global registry (this test runs
  // in a process of its own) is declared in the catalog with its kind.
  const auto snap = obs::metrics().snapshot();
  std::set<std::string> families;
  auto expect_catalogued = [&](const std::string& name, obs::Kind kind) {
    const std::string family = obs::split_metric_name(name).first;
    families.insert(family);
    const obs::MetricInfo* entry = obs::find_family(family);
    ASSERT_NE(entry, nullptr) << family << " is not in the catalog";
    EXPECT_EQ(entry->kind, kind) << family;
  };
  for (const auto& [name, v] : snap.counters) expect_catalogued(name, obs::Kind::kCounter);
  for (const auto& [name, v] : snap.gauges) expect_catalogued(name, obs::Kind::kGauge);
  for (const auto& [name, h] : snap.histograms) expect_catalogued(name, obs::Kind::kHistogram);
  EXPECT_GT(families.size(), 40u);

  // The exposition types and documents each of them exactly once.
  std::map<std::string, size_t> headers;
  std::istringstream exposition(obs::to_prometheus(snap));
  for (std::string line; std::getline(exposition, line);) {
    if (line.rfind("# ", 0) == 0) ++headers[line.substr(0, line.find(' ', 7))];
  }
  for (const std::string& family : families) {
    EXPECT_EQ(headers["# TYPE " + family], 1u) << family;
    EXPECT_EQ(headers["# HELP " + family], 1u) << family;
  }
  EXPECT_EQ(headers.size(), 2 * families.size());
}

}  // namespace
}  // namespace morph
