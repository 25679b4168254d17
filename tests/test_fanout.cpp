// Format-grouped fan-out, differentially: grouped delivery (morph once at
// the publisher, share the encoded frame) must produce byte-identical
// records to the legacy per-subscriber morph path — for every bundle in the
// committed transform corpus, fused and hop-wise both — and the fan-out
// counters must obey their conservation invariants after any publish burst.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/fanout.hpp"
#include "core/receiver.hpp"
#include "echo/fanout.hpp"
#include "echo/messages.hpp"
#include "echo/process.hpp"
#include "transport/link.hpp"
#include "transport/port.hpp"
#include "obs/metrics.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/encode.hpp"
#include "pbio/randgen.hpp"
#include "pbio/record.hpp"

#ifndef MORPH_TRANSFORMS_DIR
#define MORPH_TRANSFORMS_DIR "examples/transforms"
#endif

namespace morph::core {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;

std::vector<TransformSpec> read_bundle(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open '" + path.string() + "'");
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ByteReader r(bytes.data(), bytes.size());
  if (r.read_u32() != 0x314F4345u) throw DecodeError("not an ECO1 bundle");
  uint32_t count = r.read_u32();
  std::vector<TransformSpec> specs;
  for (uint32_t i = 0; i < count; ++i) specs.push_back(TransformSpec::deserialize(r));
  return specs;
}

/// Encode `record` of `fmt` and return the wire bytes.
std::vector<uint8_t> encode_bytes(const FormatPtr& fmt, const void* record) {
  pbio::Encoder enc(fmt);
  ByteBuffer out;
  enc.encode(record, out);
  return {out.data(), out.data() + out.size()};
}

/// The legacy per-subscriber pipeline for one sink: a Receiver registered
/// for `target` that learned every spec, fed the publisher's wire bytes.
struct LegacySink {
  core::Receiver rx;
  void* record = nullptr;
  pbio::FormatPtr format;
  Outcome outcome = Outcome::kRejected;

  static ReceiverOptions make_options(bool fuse) {
    ReceiverOptions opts;
    opts.fuse = fuse;
    return opts;
  }

  LegacySink(const FormatPtr& target, const std::vector<TransformSpec>& specs, bool fuse)
      : rx(make_options(fuse)) {
    rx.register_handler(target, [this](const Delivery& d) {
      record = d.record;
      format = d.format;
      outcome = d.outcome;
    });
    for (const auto& s : specs) rx.learn_transform(s);
  }
};

// For every corpus bundle and every chain prefix, the publisher-side
// GroupPlan must deliver the same record the sink-side Receiver would have
// produced — compared boxed (semantically) and as encoded bytes.
TEST(FanoutDifferential, CorpusGroupedMatchesPerSubscriber) {
  int bundles = 0;
  for (const auto& entry : std::filesystem::directory_iterator(MORPH_TRANSFORMS_DIR)) {
    if (entry.path().extension() != ".eco") continue;
    SCOPED_TRACE(entry.path().string());
    auto specs = read_bundle(entry.path());
    ASSERT_FALSE(specs.empty());
    ++bundles;
    const FormatPtr& src = specs[0].src;

    for (bool fuse : {true, false}) {
      SCOPED_TRACE(fuse ? "fused" : "hop-wise");
      FanoutPlanner planner(fuse);
      for (const auto& s : specs) planner.learn_transform(s);

      for (size_t hops = 1; hops <= specs.size(); ++hops) {
        const FormatPtr& target = specs[hops - 1].dst;
        SCOPED_TRACE("target " + target->name());
        auto plan = planner.plan(src, target->fingerprint());
        ASSERT_TRUE(plan->reachable());
        ASSERT_FALSE(plan->identity());
        ASSERT_EQ(plan->chain()->hops(), hops);

        LegacySink sink(target, specs, fuse);
        Rng rng(0x9d2ull * (hops + 1) + (fuse ? 1 : 0));
        for (int iter = 0; iter < 8; ++iter) {
          RecordArena arena;
          pbio::DynValue input = pbio::random_dyn(rng, src);
          auto wire = encode_bytes(src, pbio::from_dyn(input, arena));

          // Legacy path: the sink's receiver decodes + morphs the wire.
          RecordArena sink_arena;
          sink.record = nullptr;
          ASSERT_EQ(sink.rx.process(wire.data(), wire.size(), sink_arena),
                    hops > 0 ? Outcome::kMorphed : Outcome::kExact);
          ASSERT_NE(sink.record, nullptr);

          // Grouped path: the publisher's plan morphs the same wire once.
          void* grouped = plan->morph(wire.data(), wire.size(), arena);
          void* grouped_hopwise = plan->morph_hopwise(wire.data(), wire.size(), arena);

          pbio::DynValue legacy_dyn = pbio::to_dyn(*sink.format, sink.record);
          pbio::DynValue grouped_dyn = pbio::to_dyn(*plan->target(), grouped);
          pbio::DynValue hopwise_dyn = pbio::to_dyn(*plan->target(), grouped_hopwise);
          ASSERT_EQ(grouped_dyn, legacy_dyn)
              << "iter " << iter << "\ninput:\n"
              << pbio::to_debug_string(input) << "\ngrouped:\n"
              << pbio::to_debug_string(grouped_dyn) << "\nlegacy:\n"
              << pbio::to_debug_string(legacy_dyn);
          ASSERT_EQ(hopwise_dyn, legacy_dyn);

          // Byte-identical on the wire: both ends re-encode to the same
          // bytes (the formats share a fingerprint on one host).
          ASSERT_EQ(plan->target()->fingerprint(), sink.format->fingerprint());
          ASSERT_EQ(encode_bytes(plan->target(), grouped),
                    encode_bytes(sink.format, sink.record));
        }
      }
    }
  }
  ASSERT_GE(bundles, 5) << "corpus went missing from " << MORPH_TRANSFORMS_DIR;
}

// The named headline bundle, end to end: sensor_fusion_chain must group-plan
// to every intermediate revision.
TEST(FanoutDifferential, SensorFusionChainPlansEveryPrefix) {
  auto specs =
      read_bundle(std::filesystem::path(MORPH_TRANSFORMS_DIR) / "sensor_fusion_chain.eco");
  FanoutPlanner planner;
  for (const auto& s : specs) planner.learn_transform(s);
  for (size_t hops = 1; hops <= specs.size(); ++hops) {
    auto plan = planner.plan(specs[0].src, specs[hops - 1].dst->fingerprint());
    EXPECT_TRUE(plan->reachable()) << hops;
  }
  auto stats = planner.stats();
  EXPECT_EQ(stats.plans_built, specs.size());
  EXPECT_EQ(stats.unreachable, 0u);
}

// --- planner unit behavior ---------------------------------------------------

TEST(FanoutPlanner2, IdentityUnreachableAndCacheBehavior) {
  auto a = FormatBuilder("A").add_int("x", 8).build();
  auto b = FormatBuilder("A").add_int("x", 4).build();
  FanoutPlanner planner;

  // Identity: same fingerprint needs no chain and reuses the wire bytes.
  auto ident = planner.plan(a, a->fingerprint());
  ASSERT_TRUE(ident->reachable());
  EXPECT_TRUE(ident->identity());

  // Unknown target: unreachable until a transform teaches the planner.
  auto missing = planner.plan(a, b->fingerprint());
  EXPECT_FALSE(missing->reachable());

  TransformSpec spec;
  spec.src = a;
  spec.dst = b;
  spec.code = "old.x = new.x;";
  planner.learn_transform(spec);  // flushes the cache

  auto now = planner.plan(a, b->fingerprint());
  ASSERT_TRUE(now->reachable());
  EXPECT_FALSE(now->identity());

  // Steady state: the same key is a cache hit.
  auto again = planner.plan(a, b->fingerprint());
  EXPECT_EQ(again.get(), now.get());
  auto stats = planner.stats();
  EXPECT_GE(stats.cache_hits, 1u);
  EXPECT_GE(stats.cache_flushes, 1u);
}

TEST(FanoutPlanner2, CacheFlushesPastItsBound) {
  // A peer streaming fresh target fingerprints costs time, not memory: the
  // plan cache flushes once it holds more than kMaxCachedPlans entries.
  auto a = FormatBuilder("A").add_int("x", 8).build();
  FanoutPlanner planner;
  for (uint64_t fp = 1; fp <= FanoutPlanner::kMaxCachedPlans; ++fp) {
    EXPECT_FALSE(planner.plan(a, fp)->reachable());
  }
  EXPECT_EQ(planner.cached_plans(), FanoutPlanner::kMaxCachedPlans);
  EXPECT_EQ(planner.stats().cache_flushes, 0u);

  EXPECT_FALSE(planner.plan(a, FanoutPlanner::kMaxCachedPlans + 1)->reachable());
  EXPECT_EQ(planner.stats().cache_flushes, 1u);
  EXPECT_EQ(planner.cached_plans(), 0u);
  EXPECT_EQ(planner.stats().unreachable, FanoutPlanner::kMaxCachedPlans + 1);
}

TEST(FanoutPlanner2, UnverifiableChainIsUnreachable) {
  // Planner chains come from peers too: one the verifier refuses leaves its
  // target unreachable (per-subscriber fallback) instead of compiling it.
  auto a =
      FormatBuilder("A").add_int("n", 4).add_dyn_array("xs", pbio::FieldKind::kInt, 4, "n").build();
  auto b = FormatBuilder("A").add_int("x", 4).build();
  TransformSpec spec;
  spec.src = a;
  spec.dst = b;
  spec.code = "old.x = new.xs[3];";  // no guard against n
  FanoutPlanner planner;
  planner.learn_transform(spec);
  EXPECT_FALSE(planner.plan(a, b->fingerprint())->reachable());
  EXPECT_EQ(planner.stats().verify_rejected, 1u);
}

// --- registry unit behavior --------------------------------------------------

TEST(FanoutRegistry2, GroupsMovesAndChurn) {
  echo::FanoutRegistry reg;
  std::string key = echo::FanoutRegistry::key("ch", "Tick");

  reg.subscribe(key, 1, 100);
  reg.subscribe(key, 2, 100);
  reg.subscribe(key, 3, 200);
  auto snap = reg.snapshot(key);
  ASSERT_EQ(snap->groups.size(), 2u);
  EXPECT_EQ(snap->total_sinks, 3u);
  EXPECT_EQ(snap->groups[0].target_fp, 100u);
  EXPECT_EQ(snap->groups[0].sinks, (std::vector<echo::SinkId>{1, 2}));

  // Same-fingerprint re-announce is no churn: the snapshot stays cached.
  reg.subscribe(key, 2, 100);
  EXPECT_EQ(reg.snapshot(key).get(), snap.get());

  // Moving a sink between groups invalidates and regroups.
  reg.subscribe(key, 2, 200);
  auto moved = reg.snapshot(key);
  ASSERT_EQ(moved->groups.size(), 2u);
  EXPECT_EQ(moved->groups[0].sinks, (std::vector<echo::SinkId>{1}));
  EXPECT_EQ(moved->groups[1].sinks, (std::vector<echo::SinkId>{2, 3}));

  reg.unsubscribe(key, 1);
  EXPECT_EQ(reg.snapshot(key)->groups.size(), 1u);

  // unsubscribe_all drops the sink from every key.
  std::string other = echo::FanoutRegistry::key("ch2", "Tick");
  reg.subscribe(other, 2, 300);
  reg.unsubscribe_all(2);
  EXPECT_EQ(reg.snapshot(key)->total_sinks, 1u);  // sink 3 remains
  EXPECT_EQ(reg.snapshot(other)->total_sinks, 0u);

  // Unknown keys yield the shared empty snapshot, never null.
  EXPECT_EQ(reg.snapshot("nope")->total_sinks, 0u);
}

// --- the invariant property: counters after an N x K burst -------------------

/// Build revision `i` of the bench/test event ladder ("FanTick"): rev 0 is
/// the narrowest; each later revision widens seq and appends a field.
FormatPtr rev_format(int rev) {
  FormatBuilder b("FanTick");
  b.add_int("seq", rev == 0 ? 4 : 8);
  b.add_float("v", 8);
  for (int i = 1; i <= rev; ++i) b.add_int("extra" + std::to_string(i), 4);
  return b.build();
}

/// Retro-transform from revision `rev` to `rev - 1`.
TransformSpec rev_spec(int rev) {
  TransformSpec s;
  s.src = rev_format(rev);
  s.dst = rev_format(rev - 1);
  std::string code = "old.seq = new.seq; old.v = new.v;";
  for (int i = 1; i < rev; ++i) {
    code += " old.extra" + std::to_string(i) + " = new.extra" + std::to_string(i) + ";";
  }
  s.code = code;
  return s;
}

TEST(FanoutInvariants, CountersConserveAcrossBurst) {
  // N sinks spread over K+1 revisions (K older revisions + the publisher's
  // own), E events: per-event morphs == K, deliveries == N x E.
  constexpr int kRevs = 3;   // publisher's revision index (rev 3 publishes)
  constexpr int kSinks = 8;  // spread over rev 0..3
  constexpr int kEvents = 5;

  auto& m = obs::metrics();
  uint64_t morphs0 = m.counter("echo_fanout_morphs_total").value();
  uint64_t deliveries0 = m.counter("echo_fanout_deliveries_total").value();
  uint64_t encodes0 = m.counter("echo_fanout_encodes_total").value();
  uint64_t events0 = m.counter("echo_fanout_events_total").value();
  uint64_t fallbacks0 = m.counter("echo_fanout_fallback_total").value();
  uint64_t rx_events0 = m.counter("morph_echo_events_total").value();

  echo::EchoDomain dom;
  auto& creator = dom.spawn("creator", echo::EchoVersion::kV1);
  auto& source = dom.spawn("source", echo::EchoVersion::kV2);
  dom.connect(creator, source);
  std::vector<echo::EchoProcess*> sinks;
  std::vector<int> received(kSinks, 0);
  for (int i = 0; i < kSinks; ++i) {
    auto& s = dom.spawn("sink" + std::to_string(i), echo::EchoVersion::kV1);
    dom.connect(creator, s);
    dom.connect(source, s);
    sinks.push_back(&s);
  }
  dom.pump();

  creator.create_channel("fan");
  for (int i = 0; i < kSinks; ++i) {
    sinks[i]->on_event("fan", rev_format(i % (kRevs + 1)),
                       [&received, i](const echo::Event&) { ++received[i]; });
  }
  for (int r = kRevs; r >= 1; --r) source.declare_event_transform(rev_spec(r));
  for (auto* s : sinks) s->open_channel("fan", "creator", false, true);
  source.open_channel("fan", "creator", true, false);
  dom.pump();

  auto pub_fmt = rev_format(kRevs);
  RecordArena arena;
  for (int e = 0; e < kEvents; ++e) {
    arena.reset();
    void* rec = pbio::alloc_record(*pub_fmt, arena);
    pbio::RecordRef r(rec, pub_fmt);
    r.set_int("seq", e);
    r.set_float("v", 0.5 * e);
    for (int i = 1; i <= kRevs; ++i) r.set_int("extra" + std::to_string(i), e + i);
    ASSERT_EQ(source.publish("fan", pub_fmt, rec), static_cast<size_t>(kSinks));
    dom.pump();
  }

  for (int i = 0; i < kSinks; ++i) EXPECT_EQ(received[i], kEvents) << "sink " << i;

  // The invariant: each event morphs once per older revision (K), never
  // once per subscriber, and every sink gets every event.
  uint64_t morphs = m.counter("echo_fanout_morphs_total").value() - morphs0;
  uint64_t deliveries = m.counter("echo_fanout_deliveries_total").value() - deliveries0;
  uint64_t encodes = m.counter("echo_fanout_encodes_total").value() - encodes0;
  uint64_t events = m.counter("echo_fanout_events_total").value() - events0;
  uint64_t fallbacks = m.counter("echo_fanout_fallback_total").value() - fallbacks0;
  EXPECT_EQ(events, static_cast<uint64_t>(kEvents));
  EXPECT_EQ(morphs, static_cast<uint64_t>(kEvents * kRevs));
  EXPECT_EQ(deliveries, static_cast<uint64_t>(kEvents * kSinks));
  EXPECT_EQ(encodes, static_cast<uint64_t>(kEvents * (kRevs + 1)));  // + identity group
  EXPECT_EQ(fallbacks, 0u);
  EXPECT_EQ(m.gauge("echo_fanout_event_morphs").value(), static_cast<double>(kRevs));

  // Conservation (what `morph-stat --check` enforces): morphs <= encodes <=
  // deliveries, events <= deliveries.
  EXPECT_LE(morphs, encodes);
  EXPECT_LE(encodes, deliveries);
  EXPECT_LE(events, deliveries);

  // The bugfix satellite: ProcessStats mirrors the obs registry exactly.
  EXPECT_EQ(source.stats().fanout_morphs, morphs);
  EXPECT_EQ(source.stats().fanout_deliveries, deliveries);
  EXPECT_EQ(source.stats().fanout_encodes, encodes);
  EXPECT_EQ(source.stats().events_published, static_cast<uint64_t>(kEvents));
  uint64_t rx_events = m.counter("morph_echo_events_total").value() - rx_events0;
  uint64_t sink_events = 0;
  for (auto* s : sinks) sink_events += s->stats().events_received;
  EXPECT_EQ(rx_events, sink_events);
}

// Grouped delivery end to end through a real EchoDomain: every sink's
// deliveries must be byte-identical to what the per-subscriber pipeline
// (a LegacySink fed the publisher's wire bytes) makes of the same events.
TEST(FanoutDifferential, EchoDomainsGroupedVsPerSubscriber) {
  constexpr int kSinks = 6;
  constexpr int kEvents = 4;
  constexpr int kRevs = 2;

  std::vector<std::vector<std::vector<uint8_t>>> frames(kSinks);  // per sink, in order
  echo::EchoDomain dom;
  auto& creator = dom.spawn("creator", echo::EchoVersion::kV1);
  auto& source = dom.spawn("source", echo::EchoVersion::kV2);
  dom.connect(creator, source);
  std::vector<echo::EchoProcess*> sinks;
  for (int i = 0; i < kSinks; ++i) {
    auto& s = dom.spawn("sink" + std::to_string(i), echo::EchoVersion::kV1);
    dom.connect(creator, s);
    dom.connect(source, s);
    sinks.push_back(&s);
  }
  dom.pump();
  creator.create_channel("fan");
  for (int i = 0; i < kSinks; ++i) {
    sinks[i]->on_event("fan", rev_format(i % (kRevs + 1)), [&frames, i](const echo::Event& ev) {
      frames[i].push_back(encode_bytes(ev.delivery->format, ev.delivery->record));
    });
  }
  std::vector<TransformSpec> specs;
  for (int r = kRevs; r >= 1; --r) {
    specs.push_back(rev_spec(r));
    source.declare_event_transform(specs.back());
  }
  for (auto* s : sinks) s->open_channel("fan", "creator", false, true);
  source.open_channel("fan", "creator", true, false);
  dom.pump();

  std::vector<std::unique_ptr<LegacySink>> oracles;
  for (int i = 0; i < kSinks; ++i) {
    oracles.push_back(std::make_unique<LegacySink>(rev_format(i % (kRevs + 1)), specs,
                                                   ReceiverOptions{}.fuse));
  }
  std::vector<std::vector<std::vector<uint8_t>>> expected(kSinks);
  auto pub_fmt = rev_format(kRevs);
  RecordArena arena;
  for (int e = 0; e < kEvents; ++e) {
    arena.reset();
    void* rec = pbio::alloc_record(*pub_fmt, arena);
    pbio::RecordRef r(rec, pub_fmt);
    r.set_int("seq", 7000 + e);
    r.set_float("v", 1.5 * e);
    for (int i = 1; i <= kRevs; ++i) r.set_int("extra" + std::to_string(i), 10 * e + i);
    ASSERT_EQ(source.publish("fan", pub_fmt, rec), static_cast<size_t>(kSinks));
    dom.pump();

    auto wire = encode_bytes(pub_fmt, rec);
    for (int i = 0; i < kSinks; ++i) {
      RecordArena sink_arena;
      oracles[i]->record = nullptr;
      oracles[i]->rx.process(wire.data(), wire.size(), sink_arena);
      ASSERT_NE(oracles[i]->record, nullptr) << "sink " << i;
      expected[i].push_back(encode_bytes(oracles[i]->format, oracles[i]->record));
    }
  }
  // Every delivery went through a group, none through the per-sink fallback.
  EXPECT_EQ(source.stats().fanout_deliveries, static_cast<uint64_t>(kSinks * kEvents));
  for (int i = 0; i < kSinks; ++i) {
    ASSERT_EQ(frames[i].size(), static_cast<size_t>(kEvents)) << "sink " << i;
    EXPECT_EQ(frames[i], expected[i]) << "sink " << i;
  }
}

// --- hostile control frames --------------------------------------------------

/// A bare MessagePort on one end of an InprocPair: the test acts as a
/// remote peer speaking raw frames, free of EchoProcess discipline (no
/// HELLO on attach, arbitrary control payloads).
struct RawPeer {
  transport::InprocPair pair;
  transport::MessagePort port;
  RawPeer() : port(pair.b(), nullptr) {}
  void control(const std::string& msg) { port.send_control(msg.data(), msg.size()); }
};

std::string evtsub_of(const std::string& channel, const FormatPtr& fmt) {
  std::ostringstream os;
  os << "EVTSUB " << std::hex << fmt->fingerprint() << '\x1f' << channel << '\x1f'
     << fmt->name();
  return os.str();
}

void send_open_as_sink(RawPeer& remote, const std::string& channel,
                       const std::string& contact) {
  RecordArena arena;
  auto req_fmt = echo::channel_open_request_format();
  auto* req = static_cast<echo::ChannelOpenRequest*>(pbio::alloc_record(*req_fmt, arena));
  req->channel_id = arena.copy_string(channel);
  req->contact = arena.copy_string(contact);
  req->as_source = 0;
  req->as_sink = 1;
  remote.port.send_record(req_fmt, req);
}

TEST(FanoutHostile, MalformedEvtsubIsDroppedNotFatal) {
  echo::EchoProcess broker("broker", echo::EchoVersion::kV1);
  RawPeer remote;
  broker.attach_link(remote.pair.a());
  remote.pair.pump();  // broker's HELLO; the raw peer ignores it

  broker.create_channel("chan");
  auto fmt = rev_format(0);
  std::string key = echo::FanoutRegistry::key("chan", fmt->name());

  // The fingerprint field must be 1..16 hex digits; anything else takes the
  // warn-and-drop path — never an exception through the link callback.
  remote.control("EVTSUB z\x1f" "chan\x1f" "FanTick");                  // non-hex
  remote.control("EVTSUB \x1f" "chan\x1f" "FanTick");                   // empty
  remote.control("EVTSUB 11112222333344445\x1f" "chan\x1f" "FanTick");  // > 64 bits
  remote.control("EVTSUB deadbeef");                                    // no separators
  EXPECT_NO_THROW(remote.pair.pump());
  EXPECT_EQ(broker.fanout_groups().snapshot(key)->total_sinks, 0u);

  // The same (still hostile-looking) peer recovers: a well-formed EVTSUB
  // followed by the open request that names it still forms the group.
  remote.control(evtsub_of("chan", fmt));
  send_open_as_sink(remote, "chan", "remote");
  remote.pair.pump();
  auto snap = broker.fanout_groups().snapshot(key);
  ASSERT_EQ(snap->total_sinks, 1u);
  EXPECT_EQ(snap->groups[0].target_fp, fmt->fingerprint());
}

TEST(FanoutHostile, EvtsubBeforeHelloRegroupsOnHello) {
  // A subscriber whose EVTSUB is processed before its HELLO must not be
  // stuck on the per-subscriber fallback: naming the peer re-syncs its
  // announced channels.
  echo::EchoProcess source("source", echo::EchoVersion::kV1);
  RawPeer remote;
  source.attach_link(remote.pair.a());
  remote.pair.pump();

  auto fmt = rev_format(0);
  std::string key = echo::FanoutRegistry::key("chan", fmt->name());

  // Membership arrives from a creator response listing "remote" as sink.
  RecordArena arena;
  auto resp_fmt = echo::channel_open_response_v1_format();
  auto* rec =
      static_cast<echo::ChannelOpenResponseV1*>(pbio::alloc_record(*resp_fmt, arena));
  rec->channel = arena.copy_string("chan");
  rec->member_count = 1;
  rec->member_list = static_cast<echo::MemberEntryV1*>(
      pbio::alloc_dyn_array(arena, sizeof(echo::MemberEntryV1), 1));
  rec->member_list[0].info = arena.copy_string("remote");
  rec->member_list[0].id = 1;
  rec->src_count = 0;
  rec->src_list = static_cast<echo::MemberEntryV1*>(
      pbio::alloc_dyn_array(arena, sizeof(echo::MemberEntryV1), 1));
  rec->sink_count = 1;
  rec->sink_list = static_cast<echo::MemberEntryV1*>(
      pbio::alloc_dyn_array(arena, sizeof(echo::MemberEntryV1), 1));
  rec->sink_list[0].info = arena.copy_string("remote");
  rec->sink_list[0].id = 1;
  remote.port.send_record(resp_fmt, rec);

  // Announce the event format while the peer is still anonymous: the sink
  // is a member, but sync cannot match it by name yet.
  remote.control(evtsub_of("chan", fmt));
  remote.pair.pump();
  EXPECT_EQ(source.fanout_groups().snapshot(key)->total_sinks, 0u);

  remote.control("HELLO remote");
  remote.pair.pump();
  auto snap = source.fanout_groups().snapshot(key);
  ASSERT_EQ(snap->total_sinks, 1u);
  EXPECT_EQ(snap->groups[0].target_fp, fmt->fingerprint());
}

TEST(FanoutHostile, EvtsubFloodIsCapped) {
  // event_subs is peer-controlled; past the per-peer cap fresh
  // announcements are dropped (delivery falls back per-subscriber, broker
  // memory stays bounded).
  echo::EchoProcess broker("broker", echo::EchoVersion::kV1);
  RawPeer remote;
  broker.attach_link(remote.pair.a());
  remote.control("HELLO remote");
  remote.pair.pump();

  for (int i = 0; i < 4096; ++i) {
    remote.control("EVTSUB 1\x1f" "junk" + std::to_string(i) + "\x1f" "F");
    if (i % 512 == 0) remote.pair.pump();
  }
  remote.pair.pump();

  broker.create_channel("chan");
  auto fmt = rev_format(0);
  remote.control(evtsub_of("chan", fmt));  // cap hit: dropped
  send_open_as_sink(remote, "chan", "remote");
  remote.pair.pump();
  std::string key = echo::FanoutRegistry::key("chan", fmt->name());
  EXPECT_EQ(broker.fanout_groups().snapshot(key)->total_sinks, 0u);

  // A re-announce of an already-known (channel, name) pair is not "fresh"
  // and still lands (upsert, no growth).
  remote.control("EVTSUB 2\x1f" "junk0\x1f" "F");
  EXPECT_NO_THROW(remote.pair.pump());
}

}  // namespace
}  // namespace morph::core
