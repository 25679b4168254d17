// Receiver (Algorithm 2): decision paths, caching, thresholds, default
// handler, and the full ECho v2 -> v1 morphing scenario end to end.
#include <gtest/gtest.h>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/compat.hpp"
#include "core/receiver.hpp"
#include "echo/messages.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/encode.hpp"
#include "pbio/record.hpp"
#include "scrape_check.hpp"

namespace morph::core {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;

FormatPtr fmt_v(int extra_fields) {
  FormatBuilder b("Msg");
  b.add_int("base", 4);
  for (int i = 0; i < extra_fields; ++i) b.add_int("x" + std::to_string(i), 4);
  return b.build();
}

/// One record of `fmt` with its "v" field set.
ByteBuffer encode_one_v(const FormatPtr& fmt) {
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  pbio::RecordRef(rec, fmt).set_int("v", 1);
  ByteBuffer buf;
  pbio::Encoder(fmt).encode(rec, buf);
  return buf;
}

ByteBuffer encode_one(const FormatPtr& fmt, int base_value) {
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  pbio::RecordRef(rec, fmt).set_int("base", base_value);
  ByteBuffer buf;
  pbio::Encoder(fmt).encode(rec, buf);
  return buf;
}

TEST(Receiver, ExactMatchInvokesHandler) {
  Receiver rx;
  auto fmt = fmt_v(0);
  int delivered = 0;
  rx.register_handler(fmt, [&](const Delivery& d) {
    EXPECT_EQ(d.outcome, Outcome::kExact);
    EXPECT_EQ(pbio::RecordRef(d.record, d.format).get_int("base"), 7);
    ++delivered;
  });
  rx.learn_format(fmt);

  auto buf = encode_one(fmt, 7);
  RecordArena arena;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), arena), Outcome::kExact);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rx.stats().exact, 1u);
  EXPECT_TRUE(rx.stats().consistent());
}

TEST(Receiver, StatsDeltaAndConsistency) {
  Receiver rx;
  auto fmt = fmt_v(0);
  rx.register_handler(fmt, [](const Delivery&) {});
  rx.learn_format(fmt);
  auto known = encode_one(fmt, 1);
  auto stranger = encode_one(fmt_v(2), 2);  // never learned: rejected

  RecordArena arena;
  rx.process(known.data(), known.size(), arena);
  ReceiverStats before = rx.stats();
  EXPECT_TRUE(before.consistent());
  EXPECT_EQ(before.outcome_sum(), before.messages);

  rx.process(known.data(), known.size(), arena);
  rx.process(known.data(), known.size(), arena);
  rx.process(stranger.data(), stranger.size(), arena);
  ReceiverStats after = rx.stats();
  EXPECT_TRUE(after.consistent());

  ReceiverStats d = after.delta(before);
  EXPECT_EQ(d.messages, 3u);
  EXPECT_EQ(d.exact, 2u);
  EXPECT_EQ(d.rejected, 1u);
  EXPECT_EQ(d.cache_hits, 2u);     // the known format was already decided
  EXPECT_EQ(d.cache_misses, 1u);   // the stranger triggered one build
  EXPECT_EQ(d.messages, d.outcome_sum());
  EXPECT_TRUE(d.consistent());

  // delta against itself is all-zero.
  ReceiverStats zero = after.delta(after);
  EXPECT_EQ(zero.messages, 0u);
  EXPECT_EQ(zero.outcome_sum(), 0u);
}

TEST(Receiver, PerfectMatchAcrossLayouts) {
  Receiver rx;
  auto reader = FormatBuilder("Msg").add_int("b", 8).add_int("base", 4).build();
  auto sender = FormatBuilder("Msg").add_int("base", 4).add_int("b", 2).build();
  int delivered = 0;
  rx.register_handler(reader, [&](const Delivery& d) {
    EXPECT_EQ(d.outcome, Outcome::kPerfect);
    EXPECT_EQ(pbio::RecordRef(d.record, d.format).get_int("base"), 9);
    ++delivered;
  });
  rx.learn_format(sender);
  auto buf = encode_one(sender, 9);
  RecordArena arena;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), arena), Outcome::kPerfect);
  EXPECT_EQ(delivered, 1);
}

TEST(Receiver, UnknownFormatRejectedOrDefaulted) {
  Receiver rx;
  auto fmt = fmt_v(0);
  rx.register_handler(fmt, [](const Delivery&) { FAIL() << "must not deliver"; });
  // NOTE: no learn_format for the sender's format.
  auto sender = fmt_v(3);
  auto buf = encode_one(sender, 1);
  RecordArena arena;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), arena), Outcome::kRejected);

  size_t default_bytes = 0;
  rx.set_default_handler([&](const void*, size_t n) { default_bytes = n; });
  EXPECT_EQ(rx.process(buf.data(), buf.size(), arena), Outcome::kDefaulted);
  EXPECT_EQ(default_bytes, buf.size());
}

TEST(Receiver, ReconciledDelivery) {
  // Sender has one extra field and lacks one reader field: an imperfect
  // but admissible match under relaxed thresholds.
  ReceiverOptions opt;
  opt.thresholds = {4, 0.9};
  Receiver rx(opt);
  auto reader = FormatBuilder("Msg")
                    .add_int("base", 4)
                    .add_int("fresh", 4)
                    .with_default(int64_t{5})
                    .build();
  auto sender = FormatBuilder("Msg").add_int("base", 4).add_int("legacy", 4).build();
  int delivered = 0;
  rx.register_handler(reader, [&](const Delivery& d) {
    EXPECT_EQ(d.outcome, Outcome::kReconciled);
    pbio::RecordRef r(d.record, d.format);
    EXPECT_EQ(r.get_int("base"), 3);
    EXPECT_EQ(r.get_int("fresh"), 5);
    ++delivered;
  });
  rx.learn_format(sender);
  auto buf = encode_one(sender, 3);
  RecordArena arena;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), arena), Outcome::kReconciled);
  EXPECT_EQ(delivered, 1);
}

TEST(Receiver, ZeroCopyInPlaceDelivery) {
  Receiver rx;
  auto fmt = FormatBuilder("Msg").add_int("base", 4).add_string("tag").build();
  const void* delivered_record = nullptr;
  rx.register_handler(fmt, [&](const Delivery& d) {
    EXPECT_EQ(d.outcome, Outcome::kExact);
    delivered_record = d.record;
    pbio::RecordRef r(d.record, d.format);
    EXPECT_EQ(r.get_int("base"), 5);
    EXPECT_EQ(r.get_string("tag"), "zc");
  });
  rx.learn_format(fmt);

  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  pbio::RecordRef r(rec, fmt);
  r.set_int("base", 5);
  r.set_string("tag", "zc", arena);
  ByteBuffer wire;
  pbio::Encoder(fmt).encode(rec, wire);

  RecordArena scratch;
  EXPECT_EQ(rx.process_in_place(wire.data(), wire.size(), scratch), Outcome::kExact);
  // The record aliases the wire buffer: true zero copy.
  EXPECT_GE(static_cast<const uint8_t*>(delivered_record), wire.data());
  EXPECT_LT(static_cast<const uint8_t*>(delivered_record), wire.data() + wire.size());
  EXPECT_EQ(rx.stats().zero_copy, 1u);

  // A second in-place decode of the same (already mutated) buffer is
  // rejected by the version guard.
  EXPECT_THROW(rx.process_in_place(wire.data(), wire.size(), scratch), DecodeError);
}

TEST(Receiver, InPlaceFallsBackForMorphedFormats) {
  Receiver rx;
  auto v1 = echo::channel_open_response_v1_format();
  int morphed = 0;
  rx.register_handler(v1, [&](const Delivery& d) {
    if (d.outcome == Outcome::kMorphed) ++morphed;
  });
  rx.learn_format(echo::channel_open_response_v2_format());
  rx.learn_transform(echo::response_v2_to_v1_spec());

  Rng rng(4);
  RecordArena arena;
  echo::ResponseWorkload w;
  w.members = 2;
  auto* msg = echo::make_response_v2(w, rng, arena);
  ByteBuffer wire;
  pbio::Encoder(echo::channel_open_response_v2_format()).encode(msg, wire);
  RecordArena scratch;
  EXPECT_EQ(rx.process_in_place(wire.data(), wire.size(), scratch), Outcome::kMorphed);
  EXPECT_EQ(morphed, 1);
  EXPECT_EQ(rx.stats().zero_copy, 0u);
}

FormatPtr scalar_rev(int n) {
  FormatBuilder b("Rev");
  b.add_int("v", 4);
  for (int i = 0; i <= n; ++i) b.add_int("f" + std::to_string(i), 8);
  return b.build();
}

TransformSpec scalar_rev_down(int n) {
  TransformSpec s;
  s.src = scalar_rev(n);
  s.dst = scalar_rev(n - 1);
  s.code = "old.v = new.v + 1;";
  for (int i = 0; i <= n - 1; ++i) {
    s.code += "old.f" + std::to_string(i) + " = new.f" + std::to_string(i) + " * 2;";
  }
  return s;
}

TEST(Receiver, FusedChainCountsInStats) {
  // All-scalar two-hop chain: the decision should carry a fused chain, and
  // every morphed message should land on the fused-execution counter.
  ReceiverOptions opt;
  opt.thresholds = {0, 0.0};
  Receiver rx(opt);
  int delivered = 0;
  rx.register_handler(scalar_rev(0), [&](const Delivery& d) {
    EXPECT_EQ(d.outcome, Outcome::kMorphed);
    EXPECT_EQ(pbio::RecordRef(d.record, d.format).get_int("v"), 12);  // two +1 hops
    ++delivered;
  });
  rx.learn_format(scalar_rev(2));
  rx.learn_transform(scalar_rev_down(2));
  rx.learn_transform(scalar_rev_down(1));

  RecordArena arena;
  auto wire_fmt = scalar_rev(2);
  void* rec = pbio::alloc_record(*wire_fmt, arena);
  pbio::RecordRef(rec, wire_fmt).set_int("v", 10);
  ByteBuffer buf;
  pbio::Encoder(wire_fmt).encode(rec, buf);

  RecordArena rx_arena;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), rx_arena), Outcome::kMorphed);
  EXPECT_EQ(rx.process(buf.data(), buf.size(), rx_arena), Outcome::kMorphed);
  EXPECT_EQ(delivered, 2);
  ReceiverStats s = rx.stats();
  EXPECT_EQ(s.chains_fused, 1u);       // one (wire format, chain) build
  EXPECT_EQ(s.fusion_bailouts, 0u);
  EXPECT_EQ(s.morph_fused, 2u);        // per message
  EXPECT_EQ(s.morph_hopwise, 0u);
  // Conservation: every morphed outcome was executed fused or hop-wise.
  EXPECT_EQ(s.morph_fused + s.morph_hopwise, s.morphed);
}

TEST(Receiver, FusionDisabledFallsBackHopwise) {
  ReceiverOptions opt;
  opt.thresholds = {0, 0.0};
  opt.fuse = false;
  Receiver rx(opt);
  int delivered = 0;
  rx.register_handler(scalar_rev(0), [&](const Delivery&) { ++delivered; });
  rx.learn_format(scalar_rev(2));
  rx.learn_transform(scalar_rev_down(2));
  rx.learn_transform(scalar_rev_down(1));

  RecordArena arena;
  auto wire_fmt = scalar_rev(2);
  void* rec = pbio::alloc_record(*wire_fmt, arena);
  pbio::RecordRef(rec, wire_fmt).set_int("v", 1);
  ByteBuffer buf;
  pbio::Encoder(wire_fmt).encode(rec, buf);

  RecordArena rx_arena;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), rx_arena), Outcome::kMorphed);
  EXPECT_EQ(delivered, 1);
  ReceiverStats s = rx.stats();
  EXPECT_EQ(s.chains_fused, 0u);
  EXPECT_EQ(s.fusion_bailouts, 1u);
  EXPECT_EQ(s.morph_fused, 0u);
  EXPECT_EQ(s.morph_hopwise, 1u);
}

TEST(Receiver, InPlaceDecodeFeedsMorphDirectly) {
  // The sender's wire layout equals the chain's source layout, so
  // process_in_place should decode in the caller's buffer and hand the
  // record straight to the (fused) chain: no conversion-plan copy at all.
  ReceiverOptions opt;
  opt.thresholds = {0, 0.0};
  Receiver rx(opt);
  int delivered = 0;
  rx.register_handler(scalar_rev(0), [&](const Delivery& d) {
    EXPECT_EQ(d.outcome, Outcome::kMorphed);
    EXPECT_EQ(pbio::RecordRef(d.record, d.format).get_int("v"), 5);
    ++delivered;
  });
  rx.learn_format(scalar_rev(2));
  rx.learn_transform(scalar_rev_down(2));
  rx.learn_transform(scalar_rev_down(1));

  RecordArena arena;
  auto wire_fmt = scalar_rev(2);
  void* rec = pbio::alloc_record(*wire_fmt, arena);
  pbio::RecordRef(rec, wire_fmt).set_int("v", 3);
  ByteBuffer wire;
  pbio::Encoder(wire_fmt).encode(rec, wire);

  RecordArena scratch;
  EXPECT_EQ(rx.process_in_place(wire.data(), wire.size(), scratch), Outcome::kMorphed);
  EXPECT_EQ(delivered, 1);
  ReceiverStats s = rx.stats();
  EXPECT_EQ(s.morph_inplace, 1u);
  EXPECT_EQ(s.morph_fused, 1u);
  EXPECT_EQ(s.morphed, 1u);

  // The copying path must report the same outcome without the in-place mark
  // (the first buffer was consumed by the in-place decode).
  ByteBuffer wire2;
  pbio::Encoder(wire_fmt).encode(rec, wire2);
  RecordArena rx_arena;
  EXPECT_EQ(rx.process(wire2.data(), wire2.size(), rx_arena), Outcome::kMorphed);
  EXPECT_EQ(rx.stats().morph_inplace, 1u);
  EXPECT_EQ(rx.stats().morph_fused, 2u);
}

TEST(Receiver, StatsMatchScrapePerOutcome) {
  // One receiver reaches all seven outcomes. Its stats() and the registry
  // read one store: each field equals the scrape delta of its counter, and
  // destroying the receiver leaves every scrape value where it was.
  auto named = [](const std::string& name, std::initializer_list<const char*> fields) {
    FormatBuilder b(name);
    for (const char* f : fields) b.add_int(f, 4);
    return b.build();
  };
  auto down = [](FormatPtr src, FormatPtr dst) {
    TransformSpec s;
    s.src = std::move(src);
    s.dst = std::move(dst);
    s.code = "old.v = new.v;";
    return s;
  };
  const auto before = scrape::counters();
  scrape::Counters live;
  ReceiverStats s;
  {
    ReceiverOptions opt;
    opt.thresholds = {4, 0.9};
    Receiver rx(opt);
    std::vector<Outcome> seen;
    auto record = [&seen](const Delivery& d) { seen.push_back(d.outcome); };

    auto exact = named("Exact", {"v"});
    auto perfect_reader = FormatBuilder("Perf").add_int("b", 8).add_int("v", 4).build();
    auto perfect_wire = FormatBuilder("Perf").add_int("v", 4).add_int("b", 2).build();
    auto rec_reader =
        FormatBuilder("Rec").add_int("v", 4).add_int("fresh", 4).with_default(int64_t{5}).build();
    auto rec_wire = named("Rec", {"v", "legacy"});
    auto morph_reader = named("Morph", {"v"});
    auto morph_wire = named("Morph", {"v", "a", "b"});
    auto mr_reader =
        FormatBuilder("MR").add_int("v", 4).add_int("fresh", 4).with_default(int64_t{5}).build();
    auto mr_target = named("MR", {"v"});
    auto mr_wire = named("MR", {"v", "a", "b"});
    for (const auto& f : {exact, perfect_reader, rec_reader, morph_reader, mr_reader}) {
      rx.register_handler(f, record);
    }
    for (const auto& f : {exact, perfect_wire, rec_wire, morph_wire, mr_wire}) {
      rx.learn_format(f);
    }
    rx.learn_transform(down(morph_wire, morph_reader));
    rx.learn_transform(down(mr_wire, mr_target));

    RecordArena arena;
    auto send = [&](const FormatPtr& f) {
      auto buf = encode_one_v(f);
      return rx.process(buf.data(), buf.size(), arena);
    };
    EXPECT_EQ(send(exact), Outcome::kExact);
    EXPECT_EQ(send(perfect_wire), Outcome::kPerfect);
    EXPECT_EQ(send(rec_wire), Outcome::kReconciled);
    EXPECT_EQ(send(morph_wire), Outcome::kMorphed);
    EXPECT_EQ(send(mr_wire), Outcome::kMorphedReconciled);
    EXPECT_EQ(send(named("Stranger", {"v"})), Outcome::kRejected);
    rx.set_default_handler([](const void*, size_t) {});
    EXPECT_EQ(send(named("Stranger", {"v"})), Outcome::kDefaulted);
    EXPECT_EQ(seen.size(), 5u);

    s = rx.stats();
    live = scrape::counters();
  }
  for (uint64_t n : {s.exact, s.perfect, s.reconciled, s.morphed, s.morphed_reconciled,
                     s.rejected, s.defaulted}) {
    EXPECT_EQ(n, 1u);
  }
  EXPECT_EQ(s.morphs, 3u);  // the chain and/or the reconciler ran
  EXPECT_TRUE(s.consistent());
  scrape::expect_one_store(before, live, s);
}

TEST(Receiver, DecisionIsCached) {
  Receiver rx;
  auto fmt = fmt_v(0);
  rx.register_handler(fmt, [](const Delivery&) {});
  rx.learn_format(fmt);
  auto buf = encode_one(fmt, 1);
  RecordArena arena;
  for (int i = 0; i < 5; ++i) rx.process(buf.data(), buf.size(), arena);
  EXPECT_EQ(rx.stats().cache_misses, 1u);
  EXPECT_EQ(rx.stats().cache_hits, 4u);
  EXPECT_EQ(rx.cached_decisions(), 1u);
}

TEST(Receiver, DecisionCacheIsBounded) {
  // A peer streaming endless fresh formats cannot grow the cache without
  // limit: overflow flushes, everything keeps working.
  ReceiverOptions opt;
  opt.max_cached_decisions = 8;
  Receiver rx(opt);
  int delivered = 0;
  for (int i = 0; i < 30; ++i) {
    auto fmt = FormatBuilder("M" + std::to_string(i)).add_int("base", 4).build();
    rx.register_handler(fmt, [&](const Delivery&) { ++delivered; });
    rx.learn_format(fmt);
    auto buf = encode_one(fmt, i);
    RecordArena arena;
    EXPECT_EQ(rx.process(buf.data(), buf.size(), arena), Outcome::kExact);
  }
  EXPECT_EQ(delivered, 30);
  EXPECT_LE(rx.cached_decisions(), 8u);
  // register_handler also clears the cache, so flushes may be 0 here; force
  // an overflow without registrations to observe one.
  ReceiverOptions opt2;
  opt2.max_cached_decisions = 4;
  Receiver rx2(opt2);
  std::vector<FormatPtr> fmts;
  for (int i = 0; i < 6; ++i) {
    fmts.push_back(FormatBuilder("N" + std::to_string(i)).add_int("base", 4).build());
    rx2.register_handler(fmts.back(), [](const Delivery&) {});
    rx2.learn_format(fmts.back());
  }
  RecordArena arena;
  for (int i = 0; i < 6; ++i) {
    auto buf = encode_one(fmts[static_cast<size_t>(i)], i);
    rx2.process(buf.data(), buf.size(), arena);
  }
  EXPECT_GE(rx2.stats().cache_flushes, 1u);
}

TEST(Receiver, RegistrationInvalidatesCache) {
  Receiver rx;
  auto sender = fmt_v(0);
  rx.learn_format(sender);
  auto buf = encode_one(sender, 1);
  RecordArena arena;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), arena), Outcome::kRejected);
  // Now the reader registers the format: the cached rejection must not stick.
  int delivered = 0;
  rx.register_handler(sender, [&](const Delivery&) { ++delivered; });
  EXPECT_EQ(rx.process(buf.data(), buf.size(), arena), Outcome::kExact);
  EXPECT_EQ(delivered, 1);
}

TEST(Receiver, EChoMorphScenario) {
  // Old subscriber (v1.0-only) receives a v2.0 ChannelOpenResponse whose
  // format arrived out-of-band together with the Figure 5 transform.
  Receiver rx;
  auto v1 = echo::channel_open_response_v1_format();
  auto v2 = echo::channel_open_response_v2_format();

  int delivered = 0;
  rx.register_handler(v1, [&](const Delivery& d) {
    EXPECT_EQ(d.outcome, Outcome::kMorphed);
    auto* rec = static_cast<echo::ChannelOpenResponseV1*>(d.record);
    EXPECT_EQ(rec->member_count, 6);
    EXPECT_EQ(rec->src_count + rec->sink_count, 6 + 6);  // all are both
    EXPECT_STREQ(rec->member_list[0].info, rec->src_list[0].info);
    ++delivered;
  });
  rx.learn_format(v2);
  rx.learn_transform(echo::response_v2_to_v1_spec());

  Rng rng(1);
  RecordArena arena;
  echo::ResponseWorkload w;
  w.members = 6;
  auto* msg = echo::make_response_v2(w, rng, arena);
  ByteBuffer buf;
  pbio::Encoder(v2).encode(msg, buf);

  RecordArena rx_arena;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), rx_arena), Outcome::kMorphed);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rx.stats().morphed, 1u);
  EXPECT_GE(rx.stats().transforms_compiled, 1u);

  // Second message of the same format: cache hit, no recompilation.
  uint64_t compiled = rx.stats().transforms_compiled;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), rx_arena), Outcome::kMorphed);
  EXPECT_EQ(rx.stats().transforms_compiled, compiled);
  EXPECT_EQ(delivered, 2);
}

TEST(Receiver, EChoNewSubscriberStillExact) {
  // A v2.0 subscriber receives the same message: exact, no morphing.
  Receiver rx;
  auto v2 = echo::channel_open_response_v2_format();
  int delivered = 0;
  rx.register_handler(v2, [&](const Delivery& d) {
    EXPECT_EQ(d.outcome, Outcome::kExact);
    ++delivered;
  });
  rx.learn_format(v2);
  rx.learn_transform(echo::response_v2_to_v1_spec());

  Rng rng(1);
  RecordArena arena;
  echo::ResponseWorkload w;
  w.members = 3;
  auto* msg = echo::make_response_v2(w, rng, arena);
  ByteBuffer buf;
  pbio::Encoder(v2).encode(msg, buf);
  RecordArena rx_arena;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), rx_arena), Outcome::kExact);
  EXPECT_EQ(delivered, 1);
}

TEST(Receiver, MultiHopChainViaCatalog) {
  // Three revisions; reader only understands rev 0; sender sends rev 2.
  auto mk = [](int n) {
    FormatBuilder b("M");
    for (int i = 0; i <= n; ++i) b.add_int("f" + std::to_string(i), 4);
    return b.build();
  };
  auto spec_down = [&](int n) {
    TransformSpec s;
    s.src = mk(n);
    s.dst = mk(n - 1);
    for (int i = 0; i <= n - 1; ++i) {
      s.code += "old.f" + std::to_string(i) + " = new.f" + std::to_string(i) + ";";
    }
    return s;
  };

  ReceiverOptions opt;
  opt.thresholds = {0, 0.0};  // perfect matches only: forces the full chain
  Receiver rx(opt);
  int delivered = 0;
  rx.register_handler(mk(0), [&](const Delivery& d) {
    EXPECT_EQ(pbio::RecordRef(d.record, d.format).get_int("f0"), 11);
    ++delivered;
  });
  rx.learn_format(mk(2));
  rx.learn_transform(spec_down(2));
  rx.learn_transform(spec_down(1));

  RecordArena arena;
  auto wire_fmt = mk(2);
  void* rec = pbio::alloc_record(*wire_fmt, arena);
  pbio::RecordRef(rec, wire_fmt).set_int("f0", 11);
  ByteBuffer buf;
  pbio::Encoder(wire_fmt).encode(rec, buf);

  RecordArena rx_arena;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), rx_arena), Outcome::kMorphed);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rx.stats().transforms_compiled, 2u);
}

TEST(Receiver, StrictThresholdsRejectEvolution) {
  // With DIFF_THRESHOLD=0 and no transform, an evolved format is rejected.
  ReceiverOptions opt;
  opt.thresholds = {0, 0.0};
  Receiver rx(opt);
  rx.register_handler(fmt_v(0), [](const Delivery&) { FAIL(); });
  auto sender = fmt_v(1);
  rx.learn_format(sender);
  auto buf = encode_one(sender, 1);
  RecordArena arena;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), arena), Outcome::kRejected);
  EXPECT_EQ(rx.stats().rejected, 1u);
}

TEST(Receiver, ImportanceWeightedThresholds) {
  // The reader marks "critical" as importance 10. A sender missing it is
  // rejected under weighted thresholds even though plain diff would pass.
  auto reader = FormatBuilder("Msg")
                    .add_int("critical", 4)
                    .with_importance(10)
                    .add_int("base", 4)
                    .build();
  auto sender = FormatBuilder("Msg").add_int("base", 4).build();

  ReceiverOptions lax;
  lax.thresholds = {4, 0.9, /*use_importance=*/false};
  Receiver rx1(lax);
  rx1.register_handler(reader, [](const Delivery&) {});
  rx1.learn_format(sender);
  auto buf = encode_one(sender, 1);
  RecordArena arena;
  EXPECT_EQ(rx1.process(buf.data(), buf.size(), arena), Outcome::kReconciled);

  ReceiverOptions strict;
  strict.thresholds = {4, 0.9, /*use_importance=*/true};  // Mr = 10/11 > 0.9
  Receiver rx2(strict);
  rx2.register_handler(reader, [](const Delivery&) { FAIL(); });
  rx2.learn_format(sender);
  EXPECT_EQ(rx2.process(buf.data(), buf.size(), arena), Outcome::kRejected);
}

TEST(Receiver, EnumRemappingThroughTheFullPath) {
  // Sender and reader disagree on enumerator values; the conversion plan
  // remaps by name during delivery.
  auto sender = FormatBuilder("Msg")
                    .add_int("base", 4)
                    .add_enum("state", {{"IDLE", 0}, {"BUSY", 1}})
                    .build();
  auto reader = FormatBuilder("Msg")
                    .add_int("base", 4)
                    .add_enum("state", {{"BUSY", 7}, {"IDLE", 3}})
                    .build();
  Receiver rx;
  int64_t got = -1;
  rx.register_handler(reader, [&](const Delivery& d) {
    got = pbio::RecordRef(d.record, d.format).get_int("state");
  });
  rx.learn_format(sender);

  RecordArena arena;
  void* rec = pbio::alloc_record(*sender, arena);
  pbio::RecordRef(rec, sender).set_int("state", 1);  // BUSY in sender numbering
  ByteBuffer buf;
  pbio::Encoder(sender).encode(rec, buf);
  RecordArena scratch;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), scratch), Outcome::kPerfect);
  EXPECT_EQ(got, 7);  // BUSY in reader numbering
}

// --- verification at the trust boundary -------------------------------------

namespace verify_policy {

pbio::FormatPtr reader_fmt() {
  static pbio::FormatPtr fmt = FormatBuilder("Report").add_int("sum", 8).build();
  return fmt;
}

pbio::FormatPtr sender_fmt() {
  // Same record name as the reader: the receiver pairs reader and sender
  // formats by name before considering morph routes.
  static pbio::FormatPtr fmt = [] {
    auto sub = FormatBuilder("Sample").add_int("v", 4).build();
    return FormatBuilder("Report")
        .add_int("count", 4)
        .add_dyn_array("samples", sub, "count")
        .build();
  }();
  return fmt;
}

/// Reads samples[0] without guarding against count: the verifier must
/// refuse to certify it.
TransformSpec unverifiable_spec() {
  TransformSpec s;
  s.src = sender_fmt();
  s.dst = reader_fmt();
  s.code = "old.sum = new.samples[0].v;";
  return s;
}

TransformSpec safe_spec() {
  TransformSpec s;
  s.src = sender_fmt();
  s.dst = reader_fmt();
  s.code = R"(
    old.sum = 0;
    for (int i = 0; i < new.count; i++) { old.sum = old.sum + new.samples[i].v; }
  )";
  return s;
}

ByteBuffer encode_batch(int v0) {
  auto v = pbio::make_dyn(sender_fmt());
  auto sample = pbio::make_dyn(sender_fmt()->find_field("samples")->element_format);
  sample.field("v") = int64_t{v0};
  v.field("count") = int64_t{1};
  v.field("samples") = pbio::DynList{std::move(sample)};
  RecordArena arena;
  void* rec = pbio::from_dyn(v, arena);
  ByteBuffer buf;
  pbio::Encoder(sender_fmt()).encode(rec, buf);
  return buf;
}

}  // namespace verify_policy

TEST(ReceiverVerify, EnforcePolicyRejectsUnverifiableTransform) {
  using namespace verify_policy;
  Receiver rx;
  rx.register_handler(reader_fmt(), [](const Delivery&) { FAIL() << "must not deliver"; });
  rx.learn_format(sender_fmt());
  rx.learn_transform(unverifiable_spec());

  auto buf = encode_batch(5);
  RecordArena arena;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), arena), Outcome::kRejected);
  EXPECT_EQ(rx.stats().verify_rejected, 1u);
  EXPECT_EQ(rx.stats().morphed, 0u);

  // The rejection is a cached decision: reprocessing does not re-verify.
  EXPECT_EQ(rx.process(buf.data(), buf.size(), arena), Outcome::kRejected);
  EXPECT_EQ(rx.stats().verify_rejected, 1u);
}

TEST(ReceiverVerify, EnforcePolicyAdmitsVerifiedTransform) {
  using namespace verify_policy;
  Receiver rx;
  int delivered = 0;
  rx.register_handler(reader_fmt(), [&](const Delivery& d) {
    EXPECT_EQ(d.outcome, Outcome::kMorphed);
    ++delivered;
  });
  rx.learn_format(sender_fmt());
  rx.learn_transform(safe_spec());

  auto buf = encode_batch(5);
  RecordArena arena;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), arena), Outcome::kMorphed);
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rx.stats().verify_rejected, 0u);
}

TEST(ReceiverVerify, VerifierWarningsLogOncePerDecisionBuild) {
  using namespace verify_policy;
  // The reader has three fields the transform never assigns: three
  // uninit-field warnings, which must arrive as one log entry.
  auto reader = FormatBuilder("Report")
                    .add_int("sum", 8)
                    .add_int("a", 4)
                    .add_int("b", 4)
                    .add_int("c", 4)
                    .build();
  TransformSpec spec = safe_spec();
  spec.dst = reader;
  Receiver rx;
  int delivered = 0;
  rx.register_handler(reader, [&](const Delivery&) { ++delivered; });
  rx.learn_format(sender_fmt());
  rx.learn_transform(spec);

  const LogLevel level = log_level();
  set_log_level(LogLevel::kWarn);
  ::testing::internal::CaptureStderr();
  auto buf = encode_batch(5);
  RecordArena arena;
  EXPECT_EQ(rx.process(buf.data(), buf.size(), arena), Outcome::kMorphed);
  EXPECT_EQ(rx.process(buf.data(), buf.size(), arena), Outcome::kMorphed);  // cached
  const std::string err = ::testing::internal::GetCapturedStderr();
  set_log_level(level);

  auto count = [&](const std::string& needle) {
    size_t n = 0;
    for (size_t at = err.find(needle); at != std::string::npos; at = err.find(needle, at + 1)) ++n;
    return n;
  };
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(count("WARN] receiver:"), 1u) << err;
  EXPECT_EQ(count("passed the static verifier with 3 finding(s):"), 1u) << err;
  EXPECT_EQ(count("uninit-field"), 3u) << err;
}

TEST(CompatAnalyzer, ReportsRoutes) {
  auto v1 = echo::channel_open_response_v1_format();
  auto v2 = echo::channel_open_response_v2_format();
  TransformCatalog cat;
  cat.add(echo::response_v2_to_v1_spec());

  auto entries = analyze_compatibility({v1, v2}, {v1}, cat);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].route, CompatRoute::kExact);
  EXPECT_EQ(entries[1].route, CompatRoute::kMorph);
  EXPECT_EQ(entries[1].chain_hops, 1u);
  EXPECT_EQ(entries[1].delivered->fingerprint(), v1->fingerprint());

  TransformCatalog empty;
  auto no_morph = analyze_compatibility({v2}, {v1}, empty);
  EXPECT_EQ(no_morph[0].route, CompatRoute::kIncompatible);

  std::string report = render_compatibility_report(entries);
  EXPECT_NE(report.find("morph"), std::string::npos);
  EXPECT_NE(report.find("ChannelOpenResponse"), std::string::npos);
}

}  // namespace
}  // namespace morph::core
