// Format service: protocol round trips, store + spill durability, live
// server/resolver integration over loopback TCP, the receiver's
// out-of-band resolution policies, and graceful degradation when the
// service is unreachable.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/clock.hpp"
#include "core/receiver.hpp"
#include "fmtsvc/resolver.hpp"
#include "fmtsvc/server.hpp"
#include "fmtsvc/store.hpp"
#include "golden.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pbio/encode.hpp"
#include "pbio/record.hpp"
#include "transport/link.hpp"
#include "transport/port.hpp"
#include "transport/tcp.hpp"

namespace morph {
namespace {

using core::Outcome;
using pbio::FormatBuilder;
using pbio::FormatPtr;

/// Revision k of a telemetry format: fields f0..fk.
FormatPtr rev(int k) {
  FormatBuilder b("Telemetry");
  for (int i = 0; i <= k; ++i) b.add_int("f" + std::to_string(i), 4);
  return b.build();
}

core::TransformSpec down(int k) {
  core::TransformSpec s;
  s.src = rev(k);
  s.dst = rev(k - 1);
  for (int i = 0; i <= k - 1; ++i) {
    s.code += "old.f" + std::to_string(i) + " = new.f" + std::to_string(i) + ";";
  }
  return s;
}

/// A format morph-lint flags with an error (duplicate field name).
/// FormatBuilder refuses to construct one locally, but a descriptor
/// arriving off the wire parses fine — exactly what lint is for. Patch a
/// serialized two-field descriptor so both fields share a name.
FormatPtr bad_format() {
  FormatPtr good = FormatBuilder("Bad").add_int("dup_a", 4).add_int("dup_b", 4).build();
  ByteBuffer buf;
  good->serialize(buf);
  std::vector<uint8_t> bytes(buf.data(), buf.data() + buf.size());
  const std::string from = "dup_b", to = "dup_a";
  auto it = std::search(bytes.begin(), bytes.end(), from.begin(), from.end());
  EXPECT_NE(it, bytes.end());
  std::copy(to.begin(), to.end(), it);
  ByteReader r(bytes.data(), bytes.size());
  return pbio::FormatDescriptor::deserialize(r);
}

ByteBuffer encode_rev(int k, int f0_value) {
  RecordArena arena;
  FormatPtr fmt = rev(k);
  void* rec = pbio::alloc_record(*fmt, arena);
  pbio::RecordRef(rec, fmt).set_int("f0", f0_value);
  ByteBuffer wire;
  pbio::Encoder(fmt).encode(rec, wire);
  return wire;
}

fmtsvc::ResolverOptions client_for(uint16_t port) {
  fmtsvc::ResolverOptions opts;
  opts.port = port;
  return opts;
}

// --- protocol ---------------------------------------------------------------

TEST(FmtsvcProtocol, RequestRoundTripsAllOps) {
  fmtsvc::Request reg;
  reg.op = fmtsvc::Op::kRegister;
  reg.request_id = 7;
  reg.entries.push_back(fmtsvc::FormatEntry{rev(1), {down(1)}});

  fmtsvc::Request fetch;
  fetch.op = fmtsvc::Op::kFetch;
  fetch.request_id = 8;
  fetch.fingerprints = {rev(1)->fingerprint()};

  fmtsvc::Request multi;
  multi.op = fmtsvc::Op::kFetchMulti;
  multi.request_id = 9;
  multi.fingerprints = {1, 2, 3};

  fmtsvc::Request list;
  list.op = fmtsvc::Op::kList;
  list.request_id = 10;

  for (const auto* req : {&reg, &fetch, &multi, &list}) {
    ByteBuffer buf;
    req->serialize(buf);
    ByteReader r(buf.data(), buf.size());
    fmtsvc::Request back = fmtsvc::Request::deserialize(r);
    EXPECT_EQ(back.op, req->op);
    EXPECT_EQ(back.request_id, req->request_id);
    EXPECT_EQ(back.fingerprints, req->fingerprints);
    ASSERT_EQ(back.entries.size(), req->entries.size());
    for (size_t i = 0; i < back.entries.size(); ++i) {
      EXPECT_EQ(back.entries[i].format->fingerprint(), req->entries[i].format->fingerprint());
      EXPECT_EQ(back.entries[i].transforms.size(), req->entries[i].transforms.size());
    }
  }
}

TEST(FmtsvcProtocol, ReplyRoundTripsWithEntries) {
  fmtsvc::Reply rep;
  rep.op = fmtsvc::Op::kFetchMulti;
  rep.request_id = 42;
  rep.status = fmtsvc::Status::kOk;
  fmtsvc::ReplyItem hit;
  hit.fingerprint = rev(2)->fingerprint();
  hit.found = true;
  hit.entry = fmtsvc::FormatEntry{rev(2), {down(2)}};
  fmtsvc::ReplyItem miss;
  miss.fingerprint = 0x1234;
  rep.items = {std::move(hit), std::move(miss)};

  ByteBuffer buf;
  rep.serialize(buf);
  ByteReader r(buf.data(), buf.size());
  fmtsvc::Reply back = fmtsvc::Reply::deserialize(r);
  EXPECT_EQ(back.op, rep.op);
  EXPECT_EQ(back.request_id, 42u);
  ASSERT_EQ(back.items.size(), 2u);
  EXPECT_TRUE(back.items[0].found);
  EXPECT_EQ(back.items[0].entry.format->fingerprint(), rev(2)->fingerprint());
  ASSERT_EQ(back.items[0].entry.transforms.size(), 1u);
  EXPECT_EQ(back.items[0].entry.transforms[0].dst->fingerprint(), rev(1)->fingerprint());
  EXPECT_FALSE(back.items[1].found);
}

TEST(FmtsvcProtocol, RegisterReplyCarriesAcceptedCount) {
  fmtsvc::Reply rep;
  rep.op = fmtsvc::Op::kRegister;
  rep.request_id = 1;
  rep.status = fmtsvc::Status::kRejected;
  rep.accepted = 3;
  ByteBuffer buf;
  rep.serialize(buf);
  ByteReader r(buf.data(), buf.size());
  fmtsvc::Reply back = fmtsvc::Reply::deserialize(r);
  EXPECT_EQ(back.status, fmtsvc::Status::kRejected);
  EXPECT_EQ(back.accepted, 3u);
}

// --- store ------------------------------------------------------------------

TEST(FmtsvcStore, PutGetListAndIdempotentReput) {
  fmtsvc::FormatStore store;
  EXPECT_TRUE(store.put(fmtsvc::FormatEntry{rev(0), {}}));
  EXPECT_TRUE(store.put(fmtsvc::FormatEntry{rev(1), {down(1)}}));
  EXPECT_FALSE(store.put(fmtsvc::FormatEntry{rev(1), {}}));  // first writer wins
  EXPECT_EQ(store.size(), 2u);

  auto entry = store.get(rev(1)->fingerprint());
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->format->fingerprint(), rev(1)->fingerprint());
  ASSERT_EQ(entry->transforms.size(), 1u);  // the re-put did not clobber them
  EXPECT_FALSE(store.get(0xabcdef).has_value());
  EXPECT_EQ(store.list().size(), 2u);
}

TEST(FmtsvcStore, SpillReplaySurvivesRestartAndTruncatedTail) {
  std::string path = ::testing::TempDir() + "fmtsvc_spill_test.bin";
  std::remove(path.c_str());

  {
    fmtsvc::FormatStore store;
    EXPECT_EQ(store.attach_spill(path), 0u);
    store.put(fmtsvc::FormatEntry{rev(0), {}});
    store.put(fmtsvc::FormatEntry{rev(1), {down(1)}});
  }
  // Simulate a crash mid-append: a dangling half-record at the tail.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    uint32_t len = 1000;
    std::fwrite(&len, sizeof len, 1, f);
    std::fwrite("partial", 1, 7, f);
    std::fclose(f);
  }
  {
    fmtsvc::FormatStore store;
    EXPECT_EQ(store.attach_spill(path), 2u);  // both entries, tail ignored
    auto entry = store.get(rev(1)->fingerprint());
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->transforms.size(), 1u);
    // And the re-attached spill still accepts appends.
    store.put(fmtsvc::FormatEntry{rev(2), {down(2)}});
  }
  {
    fmtsvc::FormatStore store;
    EXPECT_EQ(store.attach_spill(path), 3u);
  }
  std::remove(path.c_str());
}

// --- server + resolver ------------------------------------------------------

TEST(FmtsvcService, PublishThenFetchRoundTrip) {
  fmtsvc::FormatStore store;
  fmtsvc::FormatService service(store);

  fmtsvc::FormatResolver writer(client_for(service.port()));
  ASSERT_TRUE(writer.publish(rev(1), {down(1)}));

  fmtsvc::FormatResolver reader(client_for(service.port()));
  auto resolved = reader.resolve(rev(1)->fingerprint());
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(resolved->format->fingerprint(), rev(1)->fingerprint());
  ASSERT_EQ(resolved->transforms.size(), 1u);
  EXPECT_EQ(resolved->transforms[0].dst->fingerprint(), rev(0)->fingerprint());

  fmtsvc::ResolverStats rs = reader.stats();
  EXPECT_EQ(rs.fetched, 1u);
  EXPECT_EQ(rs.rpcs, 1u);

  // Steady state: served from cache, no more socket traffic.
  ASSERT_TRUE(reader.resolve(rev(1)->fingerprint()).has_value());
  rs = reader.stats();
  EXPECT_EQ(rs.cache_hits, 1u);
  EXPECT_EQ(rs.rpcs, 1u);
}

TEST(FmtsvcService, NotFoundIsNegativeCached) {
  fmtsvc::FormatStore store;
  fmtsvc::FormatService service(store);
  fmtsvc::ResolverOptions opts = client_for(service.port());
  opts.negative_ttl_ms = 3'600'000;
  fmtsvc::FormatResolver resolver(opts);

  EXPECT_FALSE(resolver.resolve(0xfeed).has_value());
  EXPECT_FALSE(resolver.resolve(0xfeed).has_value());
  fmtsvc::ResolverStats rs = resolver.stats();
  EXPECT_EQ(rs.failed, 1u);
  EXPECT_EQ(rs.negative_hits, 1u);
  EXPECT_EQ(rs.rpcs, 1u);  // the second miss never touched the wire
  EXPECT_EQ(service.stats().not_found, 1u);
}

TEST(FmtsvcService, CacheTtlExpiresEntries) {
  fmtsvc::FormatStore store;
  store.put(fmtsvc::FormatEntry{rev(0), {}});
  fmtsvc::FormatService service(store);
  fmtsvc::ResolverOptions opts = client_for(service.port());
  opts.ttl_ms = 20;
  fmtsvc::FormatResolver resolver(opts);

  ASSERT_TRUE(resolver.resolve(rev(0)->fingerprint()).has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  ASSERT_TRUE(resolver.resolve(rev(0)->fingerprint()).has_value());
  fmtsvc::ResolverStats rs = resolver.stats();
  EXPECT_EQ(rs.rpcs, 2u);  // expiry forced a refetch
  EXPECT_EQ(rs.expired, 1u);
  EXPECT_EQ(rs.fetched, 2u);
}

TEST(FmtsvcService, LruCapacityEvictsColdEntries) {
  fmtsvc::FormatStore store;
  for (int k = 0; k < 4; ++k) store.put(fmtsvc::FormatEntry{rev(k), {}});
  fmtsvc::FormatService service(store);
  fmtsvc::ResolverOptions opts = client_for(service.port());
  opts.cache_capacity = 2;
  fmtsvc::FormatResolver resolver(opts);

  for (int k = 0; k < 4; ++k) ASSERT_TRUE(resolver.resolve(rev(k)->fingerprint()).has_value());
  fmtsvc::ResolverStats rs = resolver.stats();
  EXPECT_EQ(rs.evicted, 2u);
  // rev0 was evicted: resolving it again refetches.
  ASSERT_TRUE(resolver.resolve(rev(0)->fingerprint()).has_value());
  EXPECT_EQ(resolver.stats().rpcs, 5u);
}

TEST(FmtsvcService, PrefetchWarmsTheCacheInOneRpc) {
  fmtsvc::FormatStore store;
  store.put(fmtsvc::FormatEntry{rev(0), {}});
  store.put(fmtsvc::FormatEntry{rev(1), {down(1)}});
  fmtsvc::FormatService service(store);
  fmtsvc::FormatResolver resolver(client_for(service.port()));

  EXPECT_EQ(resolver.prefetch({rev(0)->fingerprint(), rev(1)->fingerprint(), 0xdead}), 2u);
  fmtsvc::ResolverStats rs = resolver.stats();
  EXPECT_EQ(rs.rpcs, 1u);
  ASSERT_TRUE(resolver.resolve(rev(0)->fingerprint()).has_value());
  EXPECT_FALSE(resolver.resolve(0xdead).has_value());  // negative-cached
  rs = resolver.stats();
  EXPECT_EQ(rs.rpcs, 1u);
  EXPECT_EQ(rs.cache_hits, 1u);
  EXPECT_EQ(rs.negative_hits, 1u);
}

TEST(FmtsvcService, ListReturnsEverything) {
  fmtsvc::FormatStore store;
  store.put(fmtsvc::FormatEntry{rev(0), {}});
  store.put(fmtsvc::FormatEntry{rev(1), {down(1)}});
  fmtsvc::FormatService service(store);
  fmtsvc::FormatResolver resolver(client_for(service.port()));
  EXPECT_EQ(resolver.list().size(), 2u);
}

TEST(FmtsvcService, ServerLintEnforceRejectsRegistration) {
  fmtsvc::FormatStore store;
  fmtsvc::ServiceOptions sopts;
  sopts.lint = core::LintPolicy::kEnforce;
  fmtsvc::FormatService service(store, sopts);
  fmtsvc::FormatResolver writer(client_for(service.port()));

  EXPECT_FALSE(writer.publish(bad_format()));
  EXPECT_EQ(service.stats().lint_rejected, 1u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(writer.publish(rev(0)));  // clean formats still accepted
  EXPECT_EQ(store.size(), 1u);
}

TEST(FmtsvcService, ClientLintEnforceRefusesFetchedFormat) {
  fmtsvc::FormatStore store;
  store.put(fmtsvc::FormatEntry{bad_format(), {}});  // store-level put skips lint
  fmtsvc::FormatService service(store);
  fmtsvc::ResolverOptions opts = client_for(service.port());
  opts.lint = core::LintPolicy::kEnforce;
  fmtsvc::FormatResolver resolver(opts);

  EXPECT_FALSE(resolver.resolve(bad_format()->fingerprint()).has_value());
  EXPECT_EQ(resolver.stats().lint_rejected, 1u);
}

TEST(FmtsvcService, MalformedFrameKillsOnlyThatConnection) {
  fmtsvc::FormatStore store;
  store.put(fmtsvc::FormatEntry{rev(0), {}});
  fmtsvc::FormatService service(store);

  // A data-plane frame on a service connection is a protocol violation.
  auto rogue = transport::TcpLink::connect("127.0.0.1", service.port());
  ByteBuffer frame;
  transport::write_frame(frame, transport::FrameType::kData, "xx", 2);
  rogue->send(frame);
  while (rogue->pump(2000)) {
  }
  EXPECT_EQ(service.stats().bad_frames, 1u);

  // The service keeps answering well-formed clients.
  fmtsvc::FormatResolver resolver(client_for(service.port()));
  EXPECT_TRUE(resolver.resolve(rev(0)->fingerprint()).has_value());
}

TEST(FmtsvcService, BackoffRetriesStayWithinBounds) {
  // A freshly closed listener's port: connects fail immediately, so the
  // elapsed time is dominated by the backoff sleeps.
  uint16_t dead_port = 0;
  {
    transport::TcpListener listener(0);
    dead_port = listener.port();
  }
  fmtsvc::ResolverOptions opts = client_for(dead_port);
  opts.max_attempts = 3;
  opts.base_backoff_ms = 40;
  opts.deadline_ms = 10'000;
  fmtsvc::FormatResolver resolver(opts);

  Stopwatch sw;
  EXPECT_FALSE(resolver.resolve(0x1).has_value());
  double elapsed = sw.elapsed_millis();
  // Two sleeps with +/-50% jitter: at least 40/2 + 80/2 ms, at most
  // 3*(40+80)/2 plus scheduling slack.
  EXPECT_GE(elapsed, 60.0);
  EXPECT_LT(elapsed, 2'000.0);
  fmtsvc::ResolverStats rs = resolver.stats();
  EXPECT_EQ(rs.retries, 2u);
  EXPECT_EQ(rs.failed, 1u);
}

TEST(FmtsvcService, DeadlineCapsTheRetryLoop) {
  uint16_t dead_port = 0;
  {
    transport::TcpListener listener(0);
    dead_port = listener.port();
  }
  fmtsvc::ResolverOptions opts = client_for(dead_port);
  opts.max_attempts = 100;
  opts.base_backoff_ms = 30;
  opts.deadline_ms = 100;
  fmtsvc::FormatResolver resolver(opts);

  Stopwatch sw;
  EXPECT_FALSE(resolver.resolve(0x2).has_value());
  EXPECT_LT(sw.elapsed_millis(), 1'000.0);
  EXPECT_LT(resolver.stats().retries, 100u);
}

TEST(FmtsvcService, TraceIdPropagatesAcrossTheFetchRpc) {
  fmtsvc::FormatStore store;
  store.put(fmtsvc::FormatEntry{rev(0), {}});
  fmtsvc::FormatService service(store);
  fmtsvc::FormatResolver resolver(client_for(service.port()));

  obs::set_tracing(true);
  obs::clear_spans();
  uint64_t trace_id = obs::new_trace_id();
  {
    obs::TraceScope scope(obs::TraceContext{trace_id});
    ASSERT_TRUE(resolver.resolve(rev(0)->fingerprint()).has_value());
  }
  obs::set_tracing(false);

  // The server records its span after sending the reply; give it a moment.
  bool server_span_seen = false;
  for (int spin = 0; spin < 100 && !server_span_seen; ++spin) {
    for (const auto& span : obs::recent_spans()) {
      if (span.name == "fmtsvc.handle" && span.trace_id == trace_id) server_span_seen = true;
    }
    if (!server_span_seen) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(server_span_seen) << "server-side span did not adopt the wire trace id";
}

// --- receiver integration ---------------------------------------------------

TEST(FmtsvcReceiver, ResolvesUnseenFormatOutOfBand) {
  // The acceptance scenario: a receiver with an empty learned registry gets
  // a data frame for a format it has never seen, fetches the definition
  // (plus the attached retro-transform) from the service, morphs, delivers.
  fmtsvc::FormatStore store;
  fmtsvc::FormatService service(store);
  fmtsvc::FormatResolver writer(client_for(service.port()));
  ASSERT_TRUE(writer.publish(rev(1), {down(1)}));

  fmtsvc::FormatResolver source(client_for(service.port()));
  core::ReceiverOptions opt;
  opt.thresholds = {0, 0.0};
  opt.format_source = &source;
  opt.resolve = core::ResolvePolicy::kFetch;
  core::Receiver rx(opt);
  int value = -1;
  rx.register_handler(rev(0), [&](const core::Delivery& d) {
    EXPECT_EQ(d.outcome, Outcome::kMorphed);
    value = static_cast<int>(pbio::RecordRef(d.record, d.format).get_int("f0"));
  });

  ByteBuffer wire = encode_rev(1, 4242);
  RecordArena arena;
  EXPECT_EQ(rx.process(wire.data(), wire.size(), arena), Outcome::kMorphed);
  EXPECT_EQ(value, 4242);
  core::ReceiverStats rs = rx.stats();
  EXPECT_EQ(rs.resolve_fetched, 1u);
  EXPECT_EQ(rs.resolve_degraded, 0u);

  // Second message: cached decision, no resolver involvement.
  arena.reset();
  EXPECT_EQ(rx.process(wire.data(), wire.size(), arena), Outcome::kMorphed);
  EXPECT_EQ(source.stats().resolves, 1u);
}

TEST(FmtsvcReceiver, PortMetaPublisherSkipsInlineFrames) {
  // Sender publishes meta-data to the service; only data frames travel on
  // the port. The receiver resolves out-of-band on first contact.
  fmtsvc::FormatStore store;
  fmtsvc::FormatService service(store);
  fmtsvc::FormatResolver writer(client_for(service.port()));
  fmtsvc::FormatResolver source(client_for(service.port()));

  core::ReceiverOptions opt;
  opt.thresholds = {0, 0.0};
  opt.format_source = &source;
  opt.resolve = core::ResolvePolicy::kFetch;
  core::Receiver rx(opt);
  int value = -1;
  rx.register_handler(rev(0), [&](const core::Delivery& d) {
    value = static_cast<int>(pbio::RecordRef(d.record, d.format).get_int("f0"));
  });

  transport::InprocPair pair;
  transport::MessagePort rx_port(pair.b(), &rx);
  transport::MessagePort tx(pair.a(), nullptr);
  tx.set_meta_publisher([&](const pbio::FormatPtr& fmt,
                            const std::vector<core::TransformSpec>& transforms) {
    return writer.publish(fmt, transforms);
  });
  tx.declare_transform(down(1));

  RecordArena arena;
  FormatPtr fmt1 = rev(1);
  void* msg = pbio::alloc_record(*fmt1, arena);
  pbio::RecordRef(msg, fmt1).set_int("f0", 99);
  tx.send_record(fmt1, msg);
  pair.pump();

  EXPECT_EQ(value, 99);
  EXPECT_EQ(tx.stats().meta_frames_sent, 0u);  // nothing traveled inline
  EXPECT_EQ(tx.stats().meta_published, 2u);    // rev1 and the chain target rev0
  EXPECT_EQ(rx.stats().resolve_fetched, 1u);
}

TEST(FmtsvcReceiver, PortDegradesToInlineWhenServiceDown) {
  // The publisher fails (service unreachable): the port must fall back to
  // inline meta-data frames and delivery still works end to end.
  uint16_t dead_port = 0;
  {
    transport::TcpListener listener(0);
    dead_port = listener.port();
  }
  fmtsvc::ResolverOptions wopts = client_for(dead_port);
  wopts.max_attempts = 1;
  wopts.deadline_ms = 200;
  fmtsvc::FormatResolver writer(wopts);

  core::ReceiverOptions opt;
  opt.thresholds = {0, 0.0};
  core::Receiver rx(opt);
  int value = -1;
  rx.register_handler(rev(0), [&](const core::Delivery& d) {
    value = static_cast<int>(pbio::RecordRef(d.record, d.format).get_int("f0"));
  });

  transport::InprocPair pair;
  transport::MessagePort rx_port(pair.b(), &rx);
  transport::MessagePort tx(pair.a(), nullptr);
  tx.set_meta_publisher([&](const pbio::FormatPtr& fmt,
                            const std::vector<core::TransformSpec>& transforms) {
    return writer.publish(fmt, transforms);
  });
  tx.declare_transform(down(1));

  RecordArena arena;
  FormatPtr fmt1 = rev(1);
  void* msg = pbio::alloc_record(*fmt1, arena);
  pbio::RecordRef(msg, fmt1).set_int("f0", 55);
  tx.send_record(fmt1, msg);
  pair.pump();

  EXPECT_EQ(value, 55);
  EXPECT_EQ(tx.stats().meta_published, 0u);
  EXPECT_GT(tx.stats().meta_frames_sent, 0u);  // inline fallback
}

TEST(FmtsvcReceiver, FetchPolicyCachesTheRejection) {
  // kFetch: a failed fetch is authoritative — the rejection is cached like
  // any other decision, so the resolver is consulted once, not per message.
  uint16_t dead_port = 0;
  {
    transport::TcpListener listener(0);
    dead_port = listener.port();
  }
  fmtsvc::ResolverOptions sopts = client_for(dead_port);
  sopts.max_attempts = 1;
  sopts.deadline_ms = 200;
  fmtsvc::FormatResolver source(sopts);

  core::ReceiverOptions opt;
  opt.thresholds = {0, 0.0};
  opt.format_source = &source;
  opt.resolve = core::ResolvePolicy::kFetch;
  core::Receiver rx(opt);
  rx.register_handler(rev(0), [](const core::Delivery&) {});

  ByteBuffer wire = encode_rev(1, 1);
  RecordArena arena;
  EXPECT_EQ(rx.process(wire.data(), wire.size(), arena), Outcome::kRejected);
  EXPECT_EQ(rx.process(wire.data(), wire.size(), arena), Outcome::kRejected);
  core::ReceiverStats rs = rx.stats();
  EXPECT_EQ(rs.resolve_degraded, 1u);  // second message hit the cached reject
  EXPECT_EQ(rs.cache_hits, 1u);
  EXPECT_EQ(source.stats().resolves, 1u);

  // Late inline meta-data recovers: learn_format evicts the stale decision.
  rx.learn_format(rev(1));
  rx.learn_transform(down(1));
  EXPECT_EQ(rx.process(wire.data(), wire.size(), arena), Outcome::kMorphed);
}

TEST(FmtsvcReceiver, FetchOrInlineRetriesProvisionalRejections) {
  // kFetchOrInline: a fetch that failed because the service is down is NOT
  // cached — later messages retry (rate-limited by the resolver's negative
  // cache), so the service coming back heals the receiver.
  fmtsvc::FormatStore store;
  std::unique_ptr<fmtsvc::FormatService> service;  // not started yet

  // Bind a listener to reserve a port, then release it so the resolver
  // fails fast until the real service starts on that same port.
  uint16_t port = 0;
  {
    transport::TcpListener listener(0);
    port = listener.port();
  }
  fmtsvc::ResolverOptions sopts = client_for(port);
  sopts.max_attempts = 1;
  sopts.deadline_ms = 200;
  sopts.negative_ttl_ms = 0;  // retry every message (tests drive the cadence)
  fmtsvc::FormatResolver source(sopts);

  core::ReceiverOptions opt;
  opt.thresholds = {0, 0.0};
  opt.format_source = &source;
  opt.resolve = core::ResolvePolicy::kFetchOrInline;
  core::Receiver rx(opt);
  int value = -1;
  rx.register_handler(rev(0), [&](const core::Delivery& d) {
    value = static_cast<int>(pbio::RecordRef(d.record, d.format).get_int("f0"));
  });

  ByteBuffer wire = encode_rev(1, 31);
  RecordArena arena;
  EXPECT_EQ(rx.process(wire.data(), wire.size(), arena), Outcome::kRejected);
  EXPECT_EQ(rx.cached_decisions(), 0u);  // provisional: not cached

  // Service comes up with the format; the next message self-heals.
  try {
    fmtsvc::ServiceOptions svc_opts;
    svc_opts.port = port;
    service = std::make_unique<fmtsvc::FormatService>(store, svc_opts);
  } catch (const Error&) {
    GTEST_SKIP() << "reserved port got reused; cannot exercise service restart";
  }
  store.put(fmtsvc::FormatEntry{rev(1), {down(1)}});
  EXPECT_EQ(rx.process(wire.data(), wire.size(), arena), Outcome::kMorphed);
  EXPECT_EQ(value, 31);
  core::ReceiverStats rs = rx.stats();
  EXPECT_EQ(rs.resolve_degraded, 1u);
  EXPECT_EQ(rs.resolve_fetched, 1u);
}

// --- reactor transport ------------------------------------------------------

TEST(FmtsvcReactor, ServesResolversOverTheEventLoop) {
  fmtsvc::FormatStore store;
  fmtsvc::FormatService service(store);

  fmtsvc::FormatResolver writer(client_for(service.port()));
  ASSERT_TRUE(writer.publish(rev(1), {down(1)}));

  // Several resolvers pipelining over their own long-lived connections.
  for (int i = 0; i < 4; ++i) {
    fmtsvc::FormatResolver reader(client_for(service.port()));
    auto resolved = reader.resolve(rev(1)->fingerprint());
    ASSERT_TRUE(resolved.has_value());
    EXPECT_EQ(resolved->format->fingerprint(), rev(1)->fingerprint());
    ASSERT_EQ(resolved->transforms.size(), 1u);
  }
  EXPECT_GE(service.stats().requests, 5u);
}

TEST(FmtsvcReactor, MalformedFrameKillsOnlyThatConnection) {
  fmtsvc::FormatStore store;
  store.put(fmtsvc::FormatEntry{rev(0), {}});
  fmtsvc::FormatService service(store);

  // Hostile client: garbage that fails frame validation.
  auto hostile = transport::TcpLink::connect("127.0.0.1", service.port());
  const uint8_t junk[8] = {0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3, 4};
  hostile->send(junk, sizeof junk);
  while (hostile->pump(200)) {
  }
  EXPECT_FALSE(hostile->connected());  // server closed us

  // A well-behaved resolver on a fresh connection is unaffected.
  fmtsvc::FormatResolver reader(client_for(service.port()));
  EXPECT_TRUE(reader.resolve(rev(0)->fingerprint()).has_value());
  EXPECT_EQ(service.stats().bad_frames, 1u);
}

TEST(FmtsvcReactor, ReplyBytesMatchGolden) {
  // FETCH, FETCH_MULTI (one hit, one miss) and LIST, pipelined on one
  // connection: the reply stream must equal the recorded golden bytes.
  obs::set_tracing(false);  // trace headers would change the frames
  fmtsvc::FormatStore store;
  store.put(fmtsvc::FormatEntry{rev(1), {down(1)}});
  store.put(fmtsvc::FormatEntry{rev(2), {down(2)}});
  fmtsvc::FormatService service(store);
  golden::check("fmtsvc_fetch_list", service.port());
}

TEST(FmtsvcReactor, MaxConnectionsRefusesExtraClients) {
  fmtsvc::FormatStore store;
  fmtsvc::ServiceOptions opts;
  opts.max_connections = 2;
  fmtsvc::FormatService service(store, opts);

  // Fill the cap with two idle clients; wait until both are admitted.
  auto a = transport::TcpLink::connect("127.0.0.1", service.port());
  auto b = transport::TcpLink::connect("127.0.0.1", service.port());
  for (int i = 0; i < 200 && service.stats().connections < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(service.stats().connections, 2u);

  // The third is closed on accept: it reads EOF without sending anything.
  auto c = transport::TcpLink::connect("127.0.0.1", service.port());
  EXPECT_FALSE(c->pump(2000));
  EXPECT_EQ(service.stats().connections, 2u);

  // Freeing a slot admits the next client again.
  a->close();
  fmtsvc::FormatResolver reader(client_for(service.port()));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (!reader.publish(rev(0), {}) && std::chrono::steady_clock::now() < deadline) {
  }
  EXPECT_EQ(service.stats().registered, 1u);
}

TEST(FmtsvcReactor, LiveConnectionGaugeSettlesWhenServiceStops) {
  obs::Gauge& live = obs::metrics().gauge("morph_fmtsvc_server_connections");
  const double before = live.value();
  fmtsvc::FormatStore store;
  auto service = std::make_unique<fmtsvc::FormatService>(store);
  auto idle = transport::TcpLink::connect("127.0.0.1", service->port());
  for (int i = 0; i < 200 && live.value() == before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(live.value(), before + 1);
  service.reset();  // the client is still connected
  EXPECT_EQ(live.value(), before);
}

}  // namespace
}  // namespace morph
