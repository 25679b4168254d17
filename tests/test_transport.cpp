// Transport tests: framing, in-process links, TCP links, and the
// MessagePort out-of-band meta-data protocol.
#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "core/receiver.hpp"
#include "echo/messages.hpp"
#include "obs/trace.hpp"
#include "pbio/record.hpp"
#include "transport/framing.hpp"
#include "transport/link.hpp"
#include "transport/port.hpp"
#include "transport/stats_endpoint.hpp"
#include "transport/tcp.hpp"

namespace morph::transport {
namespace {

TEST(Framing, RoundTripsFrames) {
  ByteBuffer out;
  write_frame(out, FrameType::kFormatDef, "abc", 3);
  write_frame(out, FrameType::kData, "defg", 4);
  write_frame(out, FrameType::kControl, nullptr, 0);

  FrameAssembler asm_;
  std::vector<Frame> frames;
  asm_.feed(out.data(), out.size(), [&](Frame& f) { frames.push_back(std::move(f)); });
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kFormatDef);
  EXPECT_EQ(std::string(frames[0].payload.begin(), frames[0].payload.end()), "abc");
  EXPECT_EQ(frames[1].payload.size(), 4u);
  EXPECT_TRUE(frames[2].payload.empty());
  EXPECT_EQ(asm_.buffered_bytes(), 0u);
}

TEST(Framing, HandlesBytewiseDelivery) {
  ByteBuffer out;
  write_frame(out, FrameType::kData, "payload", 7);
  FrameAssembler asm_;
  std::vector<Frame> frames;
  for (size_t i = 0; i < out.size(); ++i) {
    asm_.feed(out.data() + i, 1, [&](Frame& f) { frames.push_back(std::move(f)); });
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].payload.size(), 7u);
}

TEST(Framing, HandlesEverySplitBoundary) {
  // A traced + an untraced frame, delivered as two chunks split at every
  // possible byte position: every header/payload straddle (length field
  // split, type byte alone, trace id split, payload split) must reassemble
  // to the identical frames.
  ByteBuffer out;
  write_frame(out, FrameType::kData, "straddle", 8, 0xABCDEF0102030405ull);
  write_frame(out, FrameType::kControl, "ok", 2);
  for (size_t split = 0; split <= out.size(); ++split) {
    FrameAssembler asm_;
    std::vector<Frame> frames;
    auto sink = [&](Frame& f) { frames.push_back(std::move(f)); };
    asm_.feed(out.data(), split, sink);
    asm_.feed(out.data() + split, out.size() - split, sink);
    ASSERT_EQ(frames.size(), 2u) << "split at " << split;
    EXPECT_EQ(frames[0].trace_id, 0xABCDEF0102030405ull) << "split at " << split;
    EXPECT_EQ(std::string(frames[0].payload.begin(), frames[0].payload.end()), "straddle");
    EXPECT_EQ(frames[1].type, FrameType::kControl);
    EXPECT_EQ(asm_.buffered_bytes(), 0u);
  }
}

TEST(Framing, ManyFramesFedAsOneBatch) {
  // The reactor delivers whole read batches (many frames per dispatch);
  // the assembler must peel every complete frame out of one feed call.
  ByteBuffer out;
  constexpr int kFrames = 257;
  for (int i = 0; i < kFrames; ++i) {
    const auto byte = static_cast<uint8_t>(i);
    write_frame(out, FrameType::kData, &byte, 1);
  }
  FrameAssembler asm_;
  std::vector<Frame> frames;
  asm_.feed(out.data(), out.size(), [&](Frame& f) { frames.push_back(std::move(f)); });
  ASSERT_EQ(frames.size(), static_cast<size_t>(kFrames));
  EXPECT_EQ(frames[256].payload[0], static_cast<uint8_t>(256 & 0xFF));
  EXPECT_EQ(asm_.buffered_bytes(), 0u);
}

TEST(Framing, RejectsGarbage) {
  FrameAssembler asm_;
  uint8_t bad_len[8] = {0, 0, 0, 0};  // length 0
  EXPECT_THROW(asm_.feed(bad_len, 8, [](Frame&) {}), TransportError);

  FrameAssembler asm2;
  uint8_t bad_type[6] = {2, 0, 0, 0, 99, 0};  // type 99
  EXPECT_THROW(asm2.feed(bad_type, 6, [](Frame&) {}), TransportError);

  FrameAssembler asm3;
  uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_THROW(asm3.feed(huge, 4, [](Frame&) {}), TransportError);
}

TEST(Framing, TraceIdRoundTrips) {
  ByteBuffer out;
  write_frame(out, FrameType::kData, "abc", 3, 0x1122334455667788ull);
  write_frame(out, FrameType::kData, "de", 2);  // untraced in the same stream
  write_frame(out, FrameType::kControl, nullptr, 0, 7);

  FrameAssembler asm_;
  std::vector<Frame> frames;
  asm_.feed(out.data(), out.size(), [&](Frame& f) { frames.push_back(std::move(f)); });
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].trace_id, 0x1122334455667788ull);
  EXPECT_EQ(std::string(frames[0].payload.begin(), frames[0].payload.end()), "abc");
  EXPECT_EQ(frames[1].trace_id, 0u);
  EXPECT_EQ(frames[1].payload.size(), 2u);
  EXPECT_EQ(frames[2].trace_id, 7u);
  EXPECT_TRUE(frames[2].payload.empty());
}

TEST(Framing, TracedFramesSurviveBytewiseDelivery) {
  ByteBuffer out;
  write_frame(out, FrameType::kData, "payload", 7, 42);
  FrameAssembler asm_;
  std::vector<Frame> frames;
  for (size_t i = 0; i < out.size(); ++i) {
    asm_.feed(out.data() + i, 1, [&](Frame& f) { frames.push_back(std::move(f)); });
  }
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].trace_id, 42u);
  EXPECT_EQ(frames[0].payload.size(), 7u);
}

TEST(Framing, LegacyPeersWithoutTraceHeaderStillParse) {
  // A frame exactly as a pre-trace peer would emit it: length counts only
  // the type byte + payload, the type byte carries no trace bit.
  uint8_t legacy[4 + 1 + 3] = {4, 0, 0, 0, /*kData*/ 3, 'x', 'y', 'z'};
  FrameAssembler asm_;
  std::vector<Frame> frames;
  asm_.feed(legacy, sizeof legacy, [&](Frame& f) { frames.push_back(std::move(f)); });
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kData);
  EXPECT_EQ(frames[0].trace_id, 0u);
  EXPECT_EQ(std::string(frames[0].payload.begin(), frames[0].payload.end()), "xyz");

  // And an untraced frame we emit is byte-identical to the legacy layout,
  // so old peers can parse us when no trace is active.
  ByteBuffer out;
  write_frame(out, FrameType::kData, "xyz", 3);
  ASSERT_EQ(out.size(), sizeof legacy);
  EXPECT_EQ(0, std::memcmp(out.data(), legacy, sizeof legacy));
}

TEST(Framing, TruncatedTraceHeaderRejected) {
  // Trace bit set but the frame is too short to hold the 8-byte id.
  uint8_t bad[4 + 1 + 4] = {5, 0, 0, 0, static_cast<uint8_t>(1 | kFrameTraceBit), 1, 2, 3, 4};
  FrameAssembler asm_;
  EXPECT_THROW(asm_.feed(bad, sizeof bad, [](Frame&) {}), TransportError);
}

TEST(Framing, MaxTraceIdRoundTrips) {
  ByteBuffer out;
  write_frame(out, FrameType::kData, "x", 1, 0xFFFFFFFFFFFFFFFFull);
  FrameAssembler asm_;
  std::vector<Frame> frames;
  asm_.feed(out.data(), out.size(), [&](Frame& f) { frames.push_back(std::move(f)); });
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].trace_id, 0xFFFFFFFFFFFFFFFFull);
}

TEST(Framing, ZeroTraceIdEmitsLegacyLayout) {
  // An explicit zero id means "untraced": no trace bit, no 8-byte header,
  // byte-identical to what a pre-trace peer emits and expects.
  ByteBuffer traced, untraced;
  write_frame(traced, FrameType::kData, "x", 1, 0);
  write_frame(untraced, FrameType::kData, "x", 1);
  ASSERT_EQ(traced.size(), untraced.size());
  EXPECT_EQ(0, std::memcmp(traced.data(), untraced.data(), traced.size()));
  EXPECT_EQ(traced.data()[4] & kFrameTraceBit, 0);  // type byte carries no bit

  FrameAssembler asm_;
  std::vector<Frame> frames;
  asm_.feed(traced.data(), traced.size(), [&](Frame& f) { frames.push_back(std::move(f)); });
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].trace_id, 0u);
}

TEST(InprocPair, DeliversOnPumpOnly) {
  InprocPair pair;
  std::string got;
  pair.b().set_on_data([&](const uint8_t* d, size_t n) {
    got.assign(reinterpret_cast<const char*>(d), n);
  });
  pair.a().send("hi", 2);
  EXPECT_EQ(got, "");  // nothing until pump
  pair.pump();
  EXPECT_EQ(got, "hi");
}

TEST(InprocPair, PumpDrainsChains) {
  // b replies whenever it receives — pump must settle the whole exchange.
  InprocPair pair;
  int a_received = 0;
  pair.a().set_on_data([&](const uint8_t*, size_t) { ++a_received; });
  pair.b().set_on_data([&](const uint8_t* d, size_t n) {
    if (n == 4) pair.b().send("pong", 4);
    (void)d;
  });
  pair.a().send("ping", 4);
  pair.pump();
  EXPECT_EQ(a_received, 1);
}

TEST(MessagePort, MetaTravelsOnceDataRepeats) {
  InprocPair pair;
  core::Receiver rx;
  auto fmt = echo::channel_open_request_format();
  int delivered = 0;
  rx.register_handler(fmt, [&](const core::Delivery&) { ++delivered; });

  MessagePort sender(pair.a(), nullptr);
  MessagePort receiver_port(pair.b(), &rx);

  RecordArena arena;
  auto* req = static_cast<echo::ChannelOpenRequest*>(pbio::alloc_record(*fmt, arena));
  req->channel_id = "c";
  req->contact = "me";
  for (int i = 0; i < 3; ++i) sender.send_record(fmt, req);
  pair.pump();

  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(sender.stats().meta_frames_sent, 1u);  // one FormatDef
  EXPECT_EQ(sender.stats().data_sent, 3u);
  EXPECT_EQ(receiver_port.stats().data_received, 3u);
}

TEST(MessagePort, TransformsRideWithFormats) {
  InprocPair pair;
  core::Receiver rx;
  auto v1 = echo::channel_open_response_v1_format();
  int morphed = 0;
  rx.register_handler(v1, [&](const core::Delivery& d) {
    if (d.outcome == core::Outcome::kMorphed) ++morphed;
  });

  MessagePort sender(pair.a(), nullptr);
  MessagePort receiver_port(pair.b(), &rx);
  sender.declare_transform(echo::response_v2_to_v1_spec());

  Rng rng(3);
  RecordArena arena;
  echo::ResponseWorkload w;
  w.members = 4;
  auto* msg = echo::make_response_v2(w, rng, arena);
  sender.send_record(echo::channel_open_response_v2_format(), msg);
  pair.pump();

  EXPECT_EQ(morphed, 1);
  // FormatDef(v2) + TransformDef + FormatDef(v1, the chain target).
  EXPECT_EQ(sender.stats().meta_frames_sent, 3u);
  (void)receiver_port;
}

TEST(MessagePort, TransformDeclaredAfterFormatAlreadySent) {
  // The format went out before the transform existed; a late declaration
  // must reach peers immediately so the rejected format starts morphing.
  InprocPair pair;
  core::Receiver rx;
  auto v1 = echo::channel_open_response_v1_format();
  int morphed = 0, rejected = 0;
  rx.register_handler(v1, [&](const core::Delivery& d) {
    if (d.outcome == core::Outcome::kMorphed) ++morphed;
  });
  MessagePort sender(pair.a(), nullptr);
  MessagePort receiver_port(pair.b(), &rx);
  (void)receiver_port;

  Rng rng(8);
  RecordArena arena;
  echo::ResponseWorkload w;
  w.members = 2;
  auto* msg = echo::make_response_v2(w, rng, arena);
  sender.send_record(echo::channel_open_response_v2_format(), msg);
  pair.pump();
  rejected = static_cast<int>(rx.stats().rejected);
  EXPECT_EQ(rejected, 1);  // no transform yet: nothing matches the v1 reader

  sender.declare_transform(echo::response_v2_to_v1_spec());
  sender.send_record(echo::channel_open_response_v2_format(), msg);
  pair.pump();
  EXPECT_EQ(morphed, 1);
}

TEST(MessagePort, StatsCountTraffic) {
  InprocPair pair;
  core::Receiver rx;
  auto fmt = echo::channel_open_request_format();
  rx.register_handler(fmt, [](const core::Delivery&) {});
  MessagePort tx(pair.a(), nullptr);
  MessagePort rx_port(pair.b(), &rx);

  RecordArena arena;
  auto* req = static_cast<echo::ChannelOpenRequest*>(pbio::alloc_record(*fmt, arena));
  req->channel_id = "c";
  req->contact = "x";
  tx.send_record(fmt, req);
  tx.send_record(fmt, req);
  pair.pump();

  EXPECT_EQ(tx.stats().data_sent, 2u);
  EXPECT_EQ(tx.stats().meta_frames_sent, 1u);
  EXPECT_GT(tx.stats().bytes_sent, 0u);
  EXPECT_EQ(rx_port.stats().data_received, 2u);
  EXPECT_EQ(rx_port.stats().meta_frames_received, 1u);
}

TEST(MessagePort, ControlFramesBypassMorphing) {
  InprocPair pair;
  MessagePort a(pair.a(), nullptr);
  MessagePort b(pair.b(), nullptr);
  std::string got;
  b.set_on_control([&](const uint8_t* d, size_t n) {
    got.assign(reinterpret_cast<const char*>(d), n);
  });
  a.send_control("raw-bytes", 9);
  pair.pump();
  EXPECT_EQ(got, "raw-bytes");
}

TEST(MessagePort, TraceIdLinksSendToDeliver) {
  // With tracing on, a send stamps a fresh trace id into the frame header
  // and the receiving port adopts it — the sender-side port.send span and
  // the receiver-side port.deliver span share one id.
  obs::set_tracing(true);
  obs::clear_spans();

  InprocPair pair;
  core::Receiver rx;
  auto fmt = echo::channel_open_request_format();
  uint64_t handler_trace = 0;
  rx.register_handler(fmt, [&](const core::Delivery&) {
    handler_trace = obs::current_trace().trace_id;  // visible inside delivery
  });
  MessagePort sender(pair.a(), nullptr);
  MessagePort receiver_port(pair.b(), &rx);
  (void)receiver_port;

  RecordArena arena;
  auto* req = static_cast<echo::ChannelOpenRequest*>(pbio::alloc_record(*fmt, arena));
  req->channel_id = "c";
  req->contact = "me";
  sender.send_record(fmt, req);
  pair.pump();
  obs::set_tracing(false);

  uint64_t send_trace = 0, deliver_trace = 0;
  for (const auto& span : obs::recent_spans()) {
    if (span.name == "port.send") send_trace = span.trace_id;
    if (span.name == "port.deliver") deliver_trace = span.trace_id;
  }
  EXPECT_NE(send_trace, 0u);
  EXPECT_EQ(send_trace, deliver_trace);
  EXPECT_EQ(handler_trace, send_trace);
  obs::clear_spans();
}

TEST(MessagePort, NoTraceHeaderWhenTracingOff) {
  obs::set_tracing(false);
  obs::clear_spans();
  InprocPair pair;
  core::Receiver rx;
  auto fmt = echo::channel_open_request_format();
  rx.register_handler(fmt, [](const core::Delivery&) {});
  MessagePort sender(pair.a(), nullptr);
  MessagePort receiver_port(pair.b(), &rx);
  (void)receiver_port;

  RecordArena arena;
  auto* req = static_cast<echo::ChannelOpenRequest*>(pbio::alloc_record(*fmt, arena));
  req->channel_id = "c";
  req->contact = "me";
  sender.send_record(fmt, req);
  pair.pump();
  // Delivered fine and nothing landed in the span ring.
  EXPECT_EQ(rx.stats().messages, 1u);
  EXPECT_TRUE(obs::recent_spans().empty());
}

TEST(MessagePort, TruncatedTraceHeaderGoesWireDeadWithoutThrowing) {
  // A frame claiming the trace bit without room for the id is stream
  // corruption. The port must contain it: no exception may unwind through
  // the link's receive callback, and every later chunk is dropped.
  InprocPair pair;
  core::Receiver rx;
  auto fmt = echo::channel_open_request_format();
  rx.register_handler(fmt, [](const core::Delivery&) {});
  MessagePort sender(pair.a(), nullptr);
  MessagePort receiver_port(pair.b(), &rx);

  RecordArena arena;
  auto* req = static_cast<echo::ChannelOpenRequest*>(pbio::alloc_record(*fmt, arena));
  req->channel_id = "c";
  req->contact = "me";
  sender.send_record(fmt, req);
  pair.pump();
  ASSERT_EQ(rx.stats().messages, 1u);
  ASSERT_FALSE(receiver_port.wire_dead());

  uint8_t bad[4 + 1 + 4] = {5, 0, 0, 0, static_cast<uint8_t>(3 | kFrameTraceBit), 1, 2, 3, 4};
  pair.a().send(bad, sizeof bad);
  EXPECT_NO_THROW(pair.pump());
  EXPECT_TRUE(receiver_port.wire_dead());
  EXPECT_EQ(receiver_port.stats().bad_frames, 1u);

  // The stream is untrusted from here on: even a well-formed record is
  // dropped rather than risk resynchronizing mid-garbage.
  sender.send_record(fmt, req);
  EXPECT_NO_THROW(pair.pump());
  EXPECT_EQ(rx.stats().messages, 1u);
  EXPECT_EQ(receiver_port.stats().bad_frames, 1u);  // dropped, not re-counted
}

TEST(MessagePort, TelemetryFramesIgnoredOnDataPort) {
  // kTelemetry (type 7) is a service-plane frame; a data port must skip it
  // without feeding it to the receiver and without declaring the wire dead.
  InprocPair pair;
  core::Receiver rx;
  auto fmt = echo::channel_open_request_format();
  rx.register_handler(fmt, [](const core::Delivery&) {});
  MessagePort sender(pair.a(), nullptr);
  MessagePort receiver_port(pair.b(), &rx);

  const uint8_t junk[4] = {0xDE, 0xAD, 0xBE, 0xEF};
  ByteBuffer frame;
  write_frame(frame, FrameType::kTelemetry, junk, sizeof junk);
  pair.a().send(frame.data(), frame.size());
  EXPECT_NO_THROW(pair.pump());
  EXPECT_FALSE(receiver_port.wire_dead());
  EXPECT_EQ(rx.stats().messages, 0u);

  // The port keeps working after ignoring the service frame.
  RecordArena arena;
  auto* req = static_cast<echo::ChannelOpenRequest*>(pbio::alloc_record(*fmt, arena));
  req->channel_id = "c";
  req->contact = "me";
  sender.send_record(fmt, req);
  pair.pump();
  EXPECT_EQ(rx.stats().messages, 1u);
}

namespace {
/// Blocking HTTP/1.0 GET against a loopback StatsServer.
std::string http_get(uint16_t port, const std::string& path) {
  auto link = TcpLink::connect("127.0.0.1", port);
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  link->send(request.data(), request.size());
  std::string response;
  link->set_on_data([&](const uint8_t* d, size_t n) {
    response.append(reinterpret_cast<const char*>(d), n);
  });
  while (link->pump(2000)) {
  }
  return response;
}
}  // namespace

TEST(StatsServer, ServesPrometheusText) {
  // A series of its own under a catalogued family, so the global registry
  // holds only catalogued families (CounterSurface checks that).
  obs::metrics().counter(obs::Metric::morph_flight_events_total, {"stats_server_probe"}).inc();
  StatsServer server(0);
  ASSERT_GT(server.port(), 0);
  std::string response = http_get(server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("# HELP morph_flight_events_total "), std::string::npos);
  EXPECT_NE(response.find("# TYPE morph_flight_events_total counter"), std::string::npos);
  EXPECT_NE(response.find("morph_flight_events_total{kind=\"stats_server_probe\"} 1"),
            std::string::npos);
}

TEST(StatsServer, ServesJsonSnapshot) {
  StatsServer server(0);
  std::string response = http_get(server.port(), "/");
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("\"schema\": \"morph-metrics-v1\""), std::string::npos);
}

TEST(Tcp, LoopbackRoundTrip) {
  TcpListener listener(0);
  ASSERT_GT(listener.port(), 0);

  auto client = TcpLink::connect("127.0.0.1", listener.port());
  auto server = listener.accept(2000);
  ASSERT_NE(server, nullptr);

  std::string got;
  server->set_on_data([&](const uint8_t* d, size_t n) {
    got.append(reinterpret_cast<const char*>(d), n);
  });
  client->send("over tcp", 8);
  while (got.size() < 8) ASSERT_TRUE(server->pump(2000));
  EXPECT_EQ(got, "over tcp");

  // Close the client; the server pump must report disconnect.
  client->close();
  while (server->pump(2000)) {
  }
  EXPECT_FALSE(server->connected());
}

TEST(Tcp, MorphingAcrossRealSockets) {
  // Full stack: v2 response sent over TCP to a v1-only receiver.
  TcpListener listener(0);
  auto client = TcpLink::connect("127.0.0.1", listener.port());
  auto server = listener.accept(2000);
  ASSERT_NE(server, nullptr);

  core::Receiver rx;
  int morphed = 0;
  rx.register_handler(echo::channel_open_response_v1_format(), [&](const core::Delivery& d) {
    auto* rec = static_cast<echo::ChannelOpenResponseV1*>(d.record);
    EXPECT_EQ(rec->member_count, 5);
    if (d.outcome == core::Outcome::kMorphed) ++morphed;
  });
  MessagePort rx_port(*server, &rx);
  MessagePort tx_port(*client, nullptr);
  tx_port.declare_transform(echo::response_v2_to_v1_spec());

  Rng rng(9);
  RecordArena arena;
  echo::ResponseWorkload w;
  w.members = 5;
  auto* msg = echo::make_response_v2(w, rng, arena);
  tx_port.send_record(echo::channel_open_response_v2_format(), msg);

  while (morphed == 0) ASSERT_TRUE(server->pump(2000));
  EXPECT_EQ(morphed, 1);
}

TEST(Tcp, PumpDrainsWholeBacklogPerReadinessEvent) {
  // A sender that batched far more than one 64KB recv's worth must be
  // drained by a bounded number of pump calls (each pump loops to EAGAIN),
  // not one recv per poll round trip.
  TcpListener listener(0);
  auto client = TcpLink::connect("127.0.0.1", listener.port());
  auto server = listener.accept(2000);
  ASSERT_NE(server, nullptr);

  constexpr size_t kTotal = 512u * 1024;
  std::vector<uint8_t> blob(kTotal);
  for (size_t i = 0; i < kTotal; ++i) blob[i] = static_cast<uint8_t>(i * 131);

  size_t got = 0;
  bool ordered = true;
  server->set_on_data([&](const uint8_t* d, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      ordered = ordered && d[i] == static_cast<uint8_t>((got + i) * 131);
    }
    got += n;
  });

  std::thread sender([&] { client->send(blob.data(), blob.size()); });
  int pumps = 0;
  while (got < kTotal) {
    ASSERT_TRUE(server->pump(2000));
    ASSERT_LT(++pumps, 200) << "pump drains too little per readiness event";
  }
  sender.join();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(got, kTotal);
}

TEST(Tcp, AcceptTimesOutCleanly) {
  TcpListener listener(0);
  EXPECT_EQ(listener.accept(10), nullptr);  // nobody connects
}

TEST(Tcp, ConnectFailureThrows) {
  EXPECT_THROW(TcpLink::connect("127.0.0.1", 1), TransportError);
  EXPECT_THROW(TcpLink::connect("not an ip", 80), TransportError);
}

}  // namespace
}  // namespace morph::transport
