// Transport tests: framing, in-process links, TCP links, and the
// MessagePort out-of-band meta-data protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <thread>

#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "echo/messages.hpp"
#include "obs/trace.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/randgen.hpp"
#include "pbio/record.hpp"
#include "pbuf/schema.hpp"
#include "transport/framing.hpp"
#include "transport/link.hpp"
#include "transport/port.hpp"
#include "transport/reactor.hpp"
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

TEST(Framing, PbufFrameEncodedInPlaceMatchesOneBuiltAroundAPayload) {
  // write_pbuf_frame encodes straight into the frame; the bytes must be
  // those of a frame wrapped around [fingerprint][protobuf bytes].
  auto fmt = pbuf::annotate_field_numbers(*echo::channel_open_response_v2_format());
  Rng rng(5);
  RecordArena arena;
  void* rec = pbio::random_record(rng, fmt, arena);
  pbuf::EncodePlan plan(fmt);
  for (uint64_t trace_id : {uint64_t{0}, uint64_t{0x0102030405060708}}) {
    ByteBuffer payload;
    payload.append_u64(fmt->fingerprint());
    plan.encode(rec, payload);
    ByteBuffer want;
    write_frame(want, FrameType::kPbufData, payload.data(), payload.size(), trace_id);

    ByteBuffer got;
    got.append("xy", 2);  // frames append after whatever the buffer holds
    write_pbuf_frame(got, plan, rec, trace_id);
    ASSERT_EQ(got.size(), want.size() + 2);
    EXPECT_EQ(std::memcmp(got.data() + 2, want.data(), want.size()), 0);
    EXPECT_EQ(make_shared_pbuf_frame(plan, rec, trace_id)->vec(), want.vec());
  }
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
  // The series is process-global, so a repeated run (--gtest_repeat) finds
  // it already counted: expect whatever the registry holds after this inc.
  obs::Counter& probe =
      obs::metrics().counter(obs::Metric::morph_flight_events_total, {"stats_server_probe"});
  probe.inc();
  const std::string line =
      "morph_flight_events_total{kind=\"stats_server_probe\"} " + std::to_string(probe.value()) +
      "\n";
  StatsServer server(0);
  ASSERT_GT(server.port(), 0);
  std::string response = http_get(server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("# HELP morph_flight_events_total "), std::string::npos);
  EXPECT_NE(response.find("# TYPE morph_flight_events_total counter"), std::string::npos);
  EXPECT_NE(response.find(line), std::string::npos) << line << response;
}

TEST(StatsServer, ServesJsonSnapshot) {
  StatsServer server(0);
  std::string response = http_get(server.port(), "/");
  EXPECT_NE(response.find("application/json"), std::string::npos);
  EXPECT_NE(response.find("\"schema\": \"morph-metrics-v1\""), std::string::npos);
}

TEST(StatsServer, SilentClientDoesNotDelayScrape) {
  // A connected client that never sends its request holds nothing up: the
  // endpoint serves concurrent connections on its loop.
  StatsServer server(0);
  auto silent = TcpLink::connect("127.0.0.1", server.port());
  const auto start = std::chrono::steady_clock::now();
  const std::string response = http_get(server.port(), "/metrics");
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_LT(took, std::chrono::milliseconds(500));
}

TEST(StatsServer, OversizedRequestHeadIsClosed) {
  // A head past the cap is not a scrape: the connection ends at once,
  // without a reply and without waiting out the idle timeout.
  StatsServer server(0);
  auto link = TcpLink::connect("127.0.0.1", server.port());
  const std::string head = "GET /metrics HTTP/1.0\r\nX-Pad: " + std::string(16 * 1024, 'a');
  const auto start = std::chrono::steady_clock::now();
  link->send(head.data(), head.size());
  std::string response;
  link->set_on_data([&](const uint8_t* d, size_t n) {
    response.append(reinterpret_cast<const char*>(d), n);
  });
  while (link->pump(100) && std::chrono::steady_clock::now() - start < std::chrono::seconds(5)) {
  }
  EXPECT_FALSE(link->connected());
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  EXPECT_EQ(response, "");
}

TEST(Tcp, FailedBindLeaksNoDescriptor) {
  const auto open_fds = [] {
    const std::filesystem::directory_iterator fds("/proc/self/fd");
    return std::distance(begin(fds), end(fds));
  };
  TcpListener bound(0);
  const auto before = open_fds();
  for (int i = 0; i < 100; ++i) EXPECT_THROW(TcpListener{bound.port()}, TransportError);
  EXPECT_EQ(open_fds(), before);
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

// --- In-place delivery on every port ------------------------------------------

/// Strings, and a dynamic array of string-bearing structs: the in-place
/// walk rewrites slots in both the fixed and the variable part.
pbio::FormatPtr inplace_scan_format() {
  auto reading = pbio::FormatBuilder("PortReading")
                     .add_int("ts", 8)
                     .add_string("unit")
                     .add_float("v", 8)
                     .build();
  return pbio::FormatBuilder("PortScan")
      .add_int("seq", 8)
      .add_string("name")
      .add_int("n", 4)
      .add_dyn_array("readings", reading, "n")
      .build();
}

bool aligned8(const void* p) { return reinterpret_cast<uintptr_t>(p) % 8 == 0; }

/// A receiving port plus what its handler saw: every delivered record as
/// data, whether each record was 8-byte aligned, and the outcomes.
struct InPlaceSink {
  core::Receiver rx;
  std::unique_ptr<MessagePort> port;
  std::vector<pbio::DynValue> records;
  std::vector<core::Outcome> outcomes;
  bool all_aligned = true;

  InPlaceSink(Link& link, const pbio::FormatPtr& reader) {
    rx.register_handler(reader, [this](const core::Delivery& d) {
      all_aligned = all_aligned && aligned8(d.record);
      records.push_back(pbio::to_dyn(*d.format, d.record));
      outcomes.push_back(d.outcome);
    });
    port = std::make_unique<MessagePort>(link, &rx);
  }
};

/// Records of `fmt` and the data each reader revision should see, taken
/// from the copying path of a reference receiver.
struct Expected {
  std::vector<void*> records;
  std::vector<pbio::DynValue> seen;
};

Expected expected_records(const pbio::FormatPtr& fmt, const pbio::FormatPtr& reader,
                          const std::vector<core::TransformSpec>& specs, int n,
                          RecordArena& arena) {
  Expected out;
  core::Receiver ref;
  ref.register_handler(reader, [&](const core::Delivery& d) {
    out.seen.push_back(pbio::to_dyn(*d.format, d.record));
  });
  ref.learn_format(fmt);
  for (const auto& spec : specs) ref.learn_transform(spec);
  Rng rng(31);
  pbio::Encoder enc(fmt);
  for (int i = 0; i < n; ++i) {
    out.records.push_back(pbio::random_record(rng, fmt, arena));
    ByteBuffer wire;
    enc.encode(out.records.back(), wire);
    ref.process(wire.data(), wire.size(), arena);
  }
  return out;
}

TEST(MessagePortInPlace, ExactFramesDecodeInPlace) {
  auto fmt = inplace_scan_format();
  RecordArena arena;
  Expected want = expected_records(fmt, fmt, {}, 20, arena);
  InprocPair pair;
  MessagePort tx(pair.a(), nullptr);
  InPlaceSink sink(pair.b(), fmt);
  for (void* rec : want.records) tx.send_record(fmt, rec);
  pair.pump();

  ASSERT_EQ(sink.records.size(), want.seen.size());
  EXPECT_EQ(sink.records, want.seen);
  EXPECT_TRUE(sink.all_aligned);
  const core::ReceiverStats s = sink.rx.stats();
  EXPECT_EQ(s.exact, 20u);
  EXPECT_EQ(s.zero_copy, 20u);  // every exact delivery skipped the copy
}

TEST(MessagePortInPlace, MorphFromTheWireLayoutSkipsTheConversionCopy) {
  auto v2 = echo::channel_open_response_v2_format();
  auto v1 = echo::channel_open_response_v1_format();
  const std::vector<core::TransformSpec> specs = {echo::response_v2_to_v1_spec()};
  RecordArena arena;
  Expected want = expected_records(v2, v1, specs, 10, arena);
  InprocPair pair;
  MessagePort tx(pair.a(), nullptr);
  tx.declare_transform(specs[0]);
  InPlaceSink sink(pair.b(), v1);
  for (void* rec : want.records) tx.send_record(v2, rec);
  pair.pump();

  ASSERT_EQ(sink.records.size(), want.seen.size());
  EXPECT_EQ(sink.records, want.seen);
  EXPECT_TRUE(sink.all_aligned);
  const core::ReceiverStats s = sink.rx.stats();
  EXPECT_EQ(s.morphed, 10u);
  EXPECT_EQ(s.morph_inplace, 10u);
  EXPECT_EQ(s.zero_copy, 0u);
}

TEST(MessagePortInPlace, ForeignByteOrderFallsBackToTheCopyingPath) {
  auto fmt = inplace_scan_format();
  RecordArena arena;
  Expected want = expected_records(fmt, fmt, {}, 1, arena);
  ByteBuffer meta;
  fmt->serialize(meta);
  ByteBuffer wire;
  pbio::Encoder(fmt).encode(want.records[0], wire);
  pbio::reorder_encoded(wire, *fmt);
  ByteBuffer stream;
  write_frame(stream, FrameType::kFormatDef, meta.data(), meta.size());
  write_frame(stream, FrameType::kData, wire.data(), wire.size());

  InprocPair pair;
  InPlaceSink sink(pair.b(), fmt);
  pair.a().send(stream);
  pair.pump();

  ASSERT_EQ(sink.records.size(), 1u);
  EXPECT_EQ(sink.records[0], want.seen[0]);
  EXPECT_EQ(sink.outcomes[0], core::Outcome::kExact);
  EXPECT_EQ(sink.rx.stats().zero_copy, 0u);
  EXPECT_TRUE(sink.all_aligned);
}

/// A Link that only records what is sent through it.
class RecordingLink : public Link {
 public:
  void send(const void* data, size_t size) override { bytes.append(data, size); }
  bool connected() const override { return true; }
  ByteBuffer bytes;
};

TEST(MessagePortInPlace, BytewiseFeedDeliversIdentically) {
  // Every frame straddles feed() calls: headers and payloads assemble one
  // byte at a time, and the payload must still come out aligned.
  auto fmt = inplace_scan_format();
  RecordArena arena;
  Expected want = expected_records(fmt, fmt, {}, 5, arena);
  RecordingLink recorder;
  MessagePort tx(recorder, nullptr);
  for (void* rec : want.records) tx.send_record(fmt, rec);

  InprocPair pair;
  InPlaceSink sink(pair.b(), fmt);
  for (size_t i = 0; i < recorder.bytes.size(); ++i) pair.a().send(recorder.bytes.data() + i, 1);
  pair.pump();

  EXPECT_EQ(sink.records, want.seen);
  EXPECT_TRUE(sink.all_aligned);
  EXPECT_EQ(sink.rx.stats().zero_copy, 5u);
}

TEST(MessagePortInPlace, HostileFramesAreRefusedNotDelivered) {
  // The two in-place regressions, end to end: a count whose byte size
  // wraps, and a string aimed one byte into a pointer slot. Each poisons
  // its stream instead of reaching the handler.
  struct Samples {
    int64_t n;
    int64_t* xs;
    const char* label;
  };
  auto fmt = pbio::FormatBuilder("PortSamples", sizeof(Samples))
                 .add_int("n", 8, offsetof(Samples, n))
                 .add_dyn_array("xs", pbio::FieldKind::kInt, 8, "n", offsetof(Samples, xs))
                 .add_string("label", offsetof(Samples, label))
                 .build();
  int64_t xs[2] = {1, 2};
  Samples rec{2, xs, "hello"};
  ByteBuffer meta;
  fmt->serialize(meta);
  for (int which = 0; which < 2; ++which) {
    ByteBuffer wire;
    pbio::Encoder(fmt).encode(&rec, wire);
    if (which == 0) {
      wire.patch_u64(pbio::kWireHeaderSize + offsetof(Samples, n), uint64_t{1} << 61);
    } else {
      wire.patch_u64(pbio::kWireHeaderSize + offsetof(Samples, label), offsetof(Samples, xs) + 1);
    }
    ByteBuffer stream;
    write_frame(stream, FrameType::kFormatDef, meta.data(), meta.size());
    write_frame(stream, FrameType::kData, wire.data(), wire.size());

    InprocPair pair;
    InPlaceSink sink(pair.b(), fmt);
    pair.a().send(stream);
    pair.pump();
    EXPECT_TRUE(sink.records.empty()) << "frame " << which;
    EXPECT_TRUE(sink.port->wire_dead()) << "frame " << which;
  }
}

TEST(MessagePortInPlace, ReactorTcpLinkDecodesInPlace) {
  // The same paths over a real socket, assembled from the reactor's read
  // batches on its loop thread.
  auto scan = inplace_scan_format();
  auto v2 = echo::channel_open_response_v2_format();
  auto v1 = echo::channel_open_response_v1_format();
  const std::vector<core::TransformSpec> specs = {echo::response_v2_to_v1_spec()};
  RecordArena arena;
  Expected scans = expected_records(scan, scan, {}, 30, arena);
  Expected responses = expected_records(v2, v1, specs, 30, arena);

  struct Server {
    core::Receiver rx;
    std::unique_ptr<MessagePort> port;
  };
  std::mutex mu;
  std::vector<pbio::DynValue> got_scans, got_responses;
  std::atomic<bool> all_aligned{true};
  std::atomic<size_t> delivered{0};
  std::shared_ptr<Server> served;
  TcpListener listener(0);
  ReactorServer server(listener, ReactorOptions{}, [&](AsyncTcpLink& link) {
    auto srv = std::make_shared<Server>();
    auto on = [&](std::vector<pbio::DynValue>& into) {
      return [&](const core::Delivery& d) {
        if (!aligned8(d.record)) all_aligned.store(false);
        std::lock_guard<std::mutex> lock(mu);
        into.push_back(pbio::to_dyn(*d.format, d.record));
        delivered.fetch_add(1);
      };
    };
    srv->rx.register_handler(scan, on(got_scans));
    srv->rx.register_handler(v1, on(got_responses));
    srv->port = std::make_unique<MessagePort>(link, &srv->rx);
    link.set_user(srv);
    std::lock_guard<std::mutex> lock(mu);
    served = srv;
  });

  auto client = TcpLink::connect("127.0.0.1", server.port());
  MessagePort tx(*client, nullptr);
  tx.declare_transform(specs[0]);
  for (size_t i = 0; i < scans.records.size(); ++i) {
    tx.send_record(scan, scans.records[i]);
    tx.send_record(v2, responses.records[i]);
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (delivered.load() < 60 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(got_scans, scans.seen);
  EXPECT_EQ(got_responses, responses.seen);
  EXPECT_TRUE(all_aligned.load());
  const core::ReceiverStats s = served->rx.stats();
  EXPECT_EQ(s.zero_copy, 30u);
  EXPECT_EQ(s.morph_inplace, 30u);
}

}  // namespace
}  // namespace morph::transport
