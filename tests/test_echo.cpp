// ECho middleware tests: channel protocol, membership, event delivery, and
// the §4.1 evolution scenario (old subscribers of a new creator, and the
// other way around).
#include <gtest/gtest.h>

#include "echo/messages.hpp"
#include "echo/process.hpp"
#include "pbio/record.hpp"
#include "transport/link.hpp"
#include "transport/port.hpp"
#include "transport/tcp.hpp"

namespace morph::echo {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;

TEST(Echo, SameVersionJoinDeliversMembership) {
  EchoDomain dom;
  auto& creator = dom.spawn("creator", EchoVersion::kV1);
  auto& sub = dom.spawn("sub", EchoVersion::kV1);
  dom.connect(creator, sub);
  dom.pump();  // hellos

  creator.create_channel("weather");
  sub.open_channel("weather", "creator", /*source=*/false, /*sink=*/true);
  dom.pump();

  auto members = sub.members("weather");
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0].contact, "sub");
  EXPECT_TRUE(members[0].is_sink);
  EXPECT_FALSE(members[0].is_source);
  EXPECT_EQ(sub.stats().responses_received, 1u);
  EXPECT_EQ(sub.stats().responses_morphed, 0u);
}

TEST(Echo, V1SubscriberOfV2CreatorMorphs) {
  // The paper's scenario: the channel creator upgraded to v2.0; an old
  // v1.0 subscriber joins and must understand the v2.0 response.
  EchoDomain dom;
  auto& creator = dom.spawn("creator", EchoVersion::kV2);
  auto& old_sub = dom.spawn("old-sub", EchoVersion::kV1);
  dom.connect(creator, old_sub);
  dom.pump();

  creator.create_channel("weather");
  old_sub.open_channel("weather", "creator", true, true);
  dom.pump();

  auto members = old_sub.members("weather");
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0].contact, "old-sub");
  EXPECT_TRUE(members[0].is_source);
  EXPECT_TRUE(members[0].is_sink);
  EXPECT_EQ(old_sub.stats().responses_morphed, 1u);
  EXPECT_EQ(old_sub.receiver_totals().morphed, 1u);
}

TEST(Echo, V2SubscriberOfV1CreatorStillWorks) {
  // Forward direction: new client, old server. The v2 process registered
  // handlers for both formats, so the v1 response lands exactly.
  EchoDomain dom;
  auto& creator = dom.spawn("creator", EchoVersion::kV1);
  auto& new_sub = dom.spawn("new-sub", EchoVersion::kV2);
  dom.connect(creator, new_sub);
  dom.pump();

  creator.create_channel("metrics");
  new_sub.open_channel("metrics", "creator", false, true);
  dom.pump();

  ASSERT_EQ(new_sub.members("metrics").size(), 1u);
  EXPECT_EQ(new_sub.stats().responses_morphed, 0u);
  EXPECT_EQ(new_sub.receiver_totals().exact, 1u);
}

TEST(Echo, MembershipRenotifiesExistingMembers) {
  EchoDomain dom;
  auto& creator = dom.spawn("creator", EchoVersion::kV2);
  auto& a = dom.spawn("a", EchoVersion::kV1);
  auto& b = dom.spawn("b", EchoVersion::kV2);
  dom.connect(creator, a);
  dom.connect(creator, b);
  dom.pump();

  creator.create_channel("ch");
  a.open_channel("ch", "creator", true, false);
  dom.pump();
  EXPECT_EQ(a.members("ch").size(), 1u);

  b.open_channel("ch", "creator", false, true);
  dom.pump();
  // Both members now see both entries, in every version.
  ASSERT_EQ(a.members("ch").size(), 2u);
  ASSERT_EQ(b.members("ch").size(), 2u);
  EXPECT_TRUE(a.members("ch")[1].is_sink);
  EXPECT_EQ(a.stats().responses_received, 2u);
  EXPECT_EQ(a.stats().responses_morphed, 2u);  // v1 member of a v2 creator
}

FormatPtr sensor_format() {
  struct Reading {
    int32_t station;
    double value;
  };
  return FormatBuilder("SensorReading", sizeof(Reading))
      .add_int("station", 4, offsetof(Reading, station))
      .add_float("value", 8, offsetof(Reading, value))
      .build();
}

TEST(Echo, EventsFlowFromSourceToSinks) {
  EchoDomain dom;
  auto& creator = dom.spawn("creator", EchoVersion::kV1);
  auto& source = dom.spawn("source", EchoVersion::kV1);
  auto& sink1 = dom.spawn("sink1", EchoVersion::kV1);
  auto& sink2 = dom.spawn("sink2", EchoVersion::kV1);
  dom.connect(creator, source);
  dom.connect(creator, sink1);
  dom.connect(creator, sink2);
  dom.connect(source, sink1);
  dom.connect(source, sink2);
  dom.pump();

  creator.create_channel("sensors");
  auto fmt = sensor_format();
  int received = 0;
  for (auto* sink : {&sink1, &sink2}) {
    sink->on_event("sensors", fmt, [&](const Event& ev) {
      EXPECT_EQ(ev.channel, "sensors");
      EXPECT_EQ(pbio::RecordRef(ev.delivery->record, ev.delivery->format).get_int("station"),
                7);
      ++received;
    });
  }
  sink1.open_channel("sensors", "creator", false, true);
  sink2.open_channel("sensors", "creator", false, true);
  source.open_channel("sensors", "creator", true, false);
  dom.pump();

  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  pbio::RecordRef r(rec, fmt);
  r.set_int("station", 7);
  r.set_float("value", 21.5);
  EXPECT_EQ(source.publish("sensors", fmt, rec), 2u);
  dom.pump();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(sink1.stats().events_received, 1u);
}

struct TickFormats {
  FormatPtr old_fmt;
  FormatPtr new_fmt;
  core::TransformSpec spec;
};

TickFormats tick_formats() {
  TickFormats t;
  t.old_fmt = FormatBuilder("Tick").add_int("seq", 4).add_float("v", 8).build();
  t.new_fmt = FormatBuilder("Tick")
                  .add_int("seq", 8)
                  .add_float("v", 8)
                  .add_string("unit")
                  .add_int("quality", 4)
                  .build();
  t.spec.src = t.new_fmt;
  t.spec.dst = t.old_fmt;
  t.spec.code = "old.seq = new.seq; old.v = new.v;";
  return t;
}

TEST(Echo, EvolvedEventFormatMorphsOnceAtSource) {
  // An upgraded source publishes a richer event format and declares a
  // retro-transform; an old sink still registered for the narrow format
  // receives correct events. With grouped fan-out (the default) the morph
  // runs once at the publisher and the sink's delivery is exact.
  auto t = tick_formats();

  EchoDomain dom;
  auto& creator = dom.spawn("creator", EchoVersion::kV1);
  auto& source = dom.spawn("source", EchoVersion::kV2);
  auto& sink = dom.spawn("sink", EchoVersion::kV1);
  dom.connect(creator, source);
  dom.connect(creator, sink);
  dom.connect(source, sink);
  dom.pump();

  creator.create_channel("ticks");
  int exact_events = 0;
  sink.on_event("ticks", t.old_fmt, [&](const Event& ev) {
    pbio::RecordRef r(ev.delivery->record, ev.delivery->format);
    EXPECT_EQ(r.get_int("seq"), 100);
    EXPECT_DOUBLE_EQ(r.get_float("v"), 1.25);
    if (ev.delivery->outcome == core::Outcome::kExact) ++exact_events;
  });
  source.declare_event_transform(t.spec);

  sink.open_channel("ticks", "creator", false, true);
  source.open_channel("ticks", "creator", true, false);
  dom.pump();

  RecordArena arena;
  void* rec = pbio::alloc_record(*t.new_fmt, arena);
  pbio::RecordRef r(rec, t.new_fmt);
  r.set_int("seq", 100);
  r.set_float("v", 1.25);
  r.set_string("unit", "ms", arena);
  r.set_int("quality", 3);
  EXPECT_EQ(source.publish("ticks", t.new_fmt, rec), 1u);
  dom.pump();

  // The sink saw a pre-morphed record (no morph on its own receiver); the
  // one morph ran at the source, tracked by the fan-out counters.
  EXPECT_EQ(exact_events, 1);
  EXPECT_EQ(sink.stats().events_received, 1u);
  EXPECT_EQ(sink.stats().events_morphed, 0u);
  EXPECT_EQ(source.stats().fanout_morphs, 1u);
  EXPECT_EQ(source.stats().fanout_deliveries, 1u);
  EXPECT_EQ(source.stats().fanout_fallbacks, 0u);
}

TEST(Echo, EvolvedEventFormatMorphsAtOldSinkPerSubscriber) {
  // A sink the grouped engine does not cover — a bare port that never
  // announces its event format (no EVTSUB) — gets the per-sink fallback:
  // the source sends its own format and the sink's receiver runs the morph.
  auto t = tick_formats();

  EchoProcess source("source", EchoVersion::kV2);
  transport::InprocPair pair;
  core::Receiver sink_rx;
  transport::MessagePort sink_port(pair.b(), &sink_rx);
  source.attach_link(pair.a());

  int morphed_events = 0;
  sink_rx.register_handler(t.old_fmt, [&](const core::Delivery& d) {
    pbio::RecordRef r(d.record, d.format);
    EXPECT_EQ(r.get_int("seq"), 100);
    EXPECT_DOUBLE_EQ(r.get_float("v"), 1.25);
    if (d.outcome == core::Outcome::kMorphed) ++morphed_events;
  });
  source.create_channel("ticks");
  source.declare_event_transform(t.spec);

  RecordArena arena;
  auto req_fmt = channel_open_request_format();
  auto* req = static_cast<ChannelOpenRequest*>(pbio::alloc_record(*req_fmt, arena));
  req->channel_id = arena.copy_string("ticks");
  req->contact = arena.copy_string("sink");
  req->as_source = 0;
  req->as_sink = 1;
  sink_port.send_record(req_fmt, req);
  pair.pump();

  void* rec = pbio::alloc_record(*t.new_fmt, arena);
  pbio::RecordRef r(rec, t.new_fmt);
  r.set_int("seq", 100);
  r.set_float("v", 1.25);
  r.set_string("unit", "ms", arena);
  r.set_int("quality", 3);
  EXPECT_EQ(source.publish("ticks", t.new_fmt, rec), 1u);
  pair.pump();

  EXPECT_EQ(morphed_events, 1);
  EXPECT_EQ(sink_rx.stats().morphed, 1u);
  EXPECT_EQ(source.stats().fanout_morphs, 0u);
  EXPECT_EQ(source.stats().fanout_deliveries, 0u);
}

TEST(Echo, ReceiverTotalsSumEveryCounter) {
  // receiver_totals() aggregates every ReceiverStats field, the fusion
  // counters included: a bare-port publisher's event crosses a two-hop
  // chain, which the sink's receiver runs fused.
  auto rev = [](int n) {
    FormatBuilder b("Tick");
    b.add_int("seq", n == 0 ? 4 : 8).add_float("v", 8);
    for (int i = 1; i <= n; ++i) b.add_int("extra" + std::to_string(i), 4);
    return b.build();
  };
  auto hop = [&](int n, const std::string& code) {
    core::TransformSpec s;
    s.src = rev(n);
    s.dst = rev(n - 1);
    s.code = code;
    return s;
  };

  EchoProcess sink("sink", EchoVersion::kV1);
  transport::InprocPair pair;
  transport::MessagePort publisher(pair.b(), nullptr);
  sink.attach_link(pair.a());
  int received = 0;
  sink.on_event("ticks", rev(0), [&](const Event& ev) {
    EXPECT_EQ(pbio::RecordRef(ev.delivery->record, ev.delivery->format).get_int("seq"), 42);
    ++received;
  });
  publisher.declare_transform(hop(2, "old.seq = new.seq; old.v = new.v; old.extra1 = new.extra1;"));
  publisher.declare_transform(hop(1, "old.seq = new.seq; old.v = new.v;"));

  RecordArena arena;
  auto src = rev(2);
  void* rec = pbio::alloc_record(*src, arena);
  pbio::RecordRef r(rec, src);
  r.set_int("seq", 42);
  r.set_float("v", 0.5);
  r.set_int("extra1", 1);
  r.set_int("extra2", 2);
  publisher.send_record(src, rec);
  pair.pump();

  ASSERT_EQ(received, 1);
  auto totals = sink.receiver_totals();
  EXPECT_EQ(totals.morphed, 1u);
  EXPECT_EQ(totals.transforms_compiled, 2u);
  EXPECT_EQ(totals.chains_fused, 1u);
  EXPECT_EQ(totals.morph_fused, 1u);
  EXPECT_EQ(totals.morph_hopwise, 0u);
}

TEST(Echo, DuplicateEventFormatNameOnOtherChannelRejected) {
  EchoDomain dom;
  auto& p = dom.spawn("p", EchoVersion::kV1);
  auto fmt = sensor_format();
  p.on_event("a", fmt, [](const Event&) {});
  EXPECT_THROW(p.on_event("b", fmt, [](const Event&) {}), Error);
}

TEST(Echo, OpenUnknownPeerThrows) {
  EchoDomain dom;
  auto& p = dom.spawn("p", EchoVersion::kV1);
  EXPECT_THROW(p.open_channel("c", "ghost", true, true), Error);
}

TEST(Echo, LeaveChannelRemovesMemberEverywhere) {
  EchoDomain dom;
  auto& creator = dom.spawn("creator", EchoVersion::kV2);
  auto& a = dom.spawn("a", EchoVersion::kV1);
  auto& b = dom.spawn("b", EchoVersion::kV1);
  dom.connect(creator, a);
  dom.connect(creator, b);
  dom.pump();

  creator.create_channel("ch");
  a.open_channel("ch", "creator", true, true);
  b.open_channel("ch", "creator", false, true);
  dom.pump();
  ASSERT_EQ(a.members("ch").size(), 2u);
  int32_t b_id = a.members("ch")[1].id;

  a.leave_channel("ch", "creator");
  dom.pump();
  // The leaver saw the post-leave membership; b was re-notified.
  ASSERT_EQ(a.members("ch").size(), 1u);
  EXPECT_EQ(a.members("ch")[0].contact, "b");
  ASSERT_EQ(b.members("ch").size(), 1u);
  EXPECT_EQ(b.members("ch")[0].contact, "b");
  // Member IDs are stable across leaves (no renumbering).
  EXPECT_EQ(b.members("ch")[0].id, b_id);

  // Rejoining gets a fresh ID.
  a.open_channel("ch", "creator", true, false);
  dom.pump();
  ASSERT_EQ(b.members("ch").size(), 2u);
  EXPECT_GT(b.members("ch")[1].id, b_id);
}

TEST(EchoTcp, EvolutionAcrossRealSockets) {
  // The §4.1 scenario with the middleware running over genuine TCP links:
  // a v2.0 creator and a v1.0 subscriber in (conceptually) different
  // processes.
  transport::TcpListener listener(0);
  auto client_link = transport::TcpLink::connect("127.0.0.1", listener.port());
  auto server_link = listener.accept(2000);
  ASSERT_NE(server_link, nullptr);

  EchoProcess creator("creator", EchoVersion::kV2);
  EchoProcess old_sub("old-sub", EchoVersion::kV1);
  creator.attach_link(*server_link);
  old_sub.attach_link(*client_link);

  auto pump_both = [&] {
    server_link->pump(50);
    client_link->pump(50);
  };
  for (int i = 0; i < 10; ++i) pump_both();  // hellos

  creator.create_channel("remote");
  old_sub.open_channel("remote", "creator", true, true);
  for (int i = 0; i < 100 && old_sub.members("remote").empty(); ++i) pump_both();

  auto members = old_sub.members("remote");
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0].contact, "old-sub");
  EXPECT_EQ(old_sub.stats().responses_morphed, 1u);
  EXPECT_EQ(old_sub.receiver_totals().transforms_compiled, 1u);
}

TEST(Echo, RequestForUnknownChannelIgnored) {
  EchoDomain dom;
  auto& a = dom.spawn("a", EchoVersion::kV1);
  auto& b = dom.spawn("b", EchoVersion::kV1);
  dom.connect(a, b);
  dom.pump();
  b.open_channel("nope", "a", true, true);
  dom.pump();
  EXPECT_TRUE(b.members("nope").empty());
  EXPECT_EQ(a.stats().open_requests_handled, 1u);
}

}  // namespace
}  // namespace morph::echo
