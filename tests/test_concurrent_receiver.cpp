// Concurrent receiver pipeline: N producer threads hammer one shared
// Receiver with a mix of exact, perfect, morphed and
// unknown formats. Every delivery must land in the right handler exactly
// once, the decision cache must build each pipeline exactly once (the
// cache-miss counter doubles as a build counter), and all outcome totals
// must match a single-threaded oracle run over the same message log.
//
// Handlers deliberately count mismatches into atomics instead of asserting
// inline: gtest failure plumbing from many threads at once would serialize
// the very paths this file is stressing.
#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "pbio/encode.hpp"
#include "pbio/record.hpp"

namespace morph::core {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;

FormatPtr alpha_reader() {
  static FormatPtr f =
      FormatBuilder("Alpha").add_int("seq", 4).add_int("tag", 4).build();
  return f;
}

// Same shape as alpha_reader, different layout and widths: a perfect match
// with a distinct fingerprint, so it exercises the layout-conversion path.
FormatPtr alpha_wire() {
  static FormatPtr f =
      FormatBuilder("Alpha").add_int("tag", 8).add_int("seq", 4).build();
  return f;
}

FormatPtr tick_v1() {
  static FormatPtr f = FormatBuilder("Tick").add_int("seq", 4).add_float("v", 8).build();
  return f;
}

FormatPtr tick_v2() {
  static FormatPtr f = FormatBuilder("Tick")
                           .add_int("seq", 8)
                           .add_float("v", 8)
                           .add_string("unit")
                           .build();
  return f;
}

TransformSpec tick_spec() {
  TransformSpec s;
  s.src = tick_v2();
  s.dst = tick_v1();
  s.code = "old.seq = new.seq; old.v = new.v;";
  return s;
}

FormatPtr ghost_format() {
  static FormatPtr f = FormatBuilder("Ghost").add_int("seq", 4).build();
  return f;
}

ByteBuffer encode_with(const FormatPtr& fmt, int64_t seq) {
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  pbio::RecordRef r(rec, fmt);
  r.set_int("seq", seq);
  if (fmt->find_field("tag") != nullptr) r.set_int("tag", seq * 3 + 1);
  if (fmt->find_field("v") != nullptr) r.set_float("v", 0.5 * static_cast<double>(seq));
  if (fmt->find_field("unit") != nullptr) r.set_string("unit", "ms", arena);
  ByteBuffer buf;
  pbio::Encoder(fmt).encode(rec, buf);
  return buf;
}

/// The four traffic kinds, interleaved round-robin in the message log.
std::vector<ByteBuffer> make_log(size_t messages) {
  std::vector<ByteBuffer> log;
  log.reserve(messages);
  for (size_t i = 0; i < messages; ++i) {
    auto seq = static_cast<int64_t>(i);
    switch (i % 4) {
      case 0: log.push_back(encode_with(alpha_reader(), seq)); break;
      case 1: log.push_back(encode_with(alpha_wire(), seq)); break;
      case 2: log.push_back(encode_with(tick_v2(), seq)); break;
      default: log.push_back(encode_with(ghost_format(), seq)); break;
    }
  }
  return log;
}

/// Handler-side tallies. Sums let us check that every individual message
/// (not just the right number of messages) reached the right handler.
struct Tallies {
  std::atomic<uint64_t> alpha{0};
  std::atomic<uint64_t> tick{0};
  std::atomic<uint64_t> defaulted{0};
  std::atomic<int64_t> alpha_seq_sum{0};
  std::atomic<int64_t> tick_seq_sum{0};
  std::atomic<uint64_t> content_mismatches{0};
};

void wire_up(Receiver& rx, Tallies& t) {
  rx.register_handler(alpha_reader(), [&t](const Delivery& d) {
    pbio::RecordRef r(d.record, d.format);
    int64_t seq = r.get_int("seq");
    if (r.get_int("tag") != seq * 3 + 1) t.content_mismatches.fetch_add(1);
    t.alpha.fetch_add(1);
    t.alpha_seq_sum.fetch_add(seq);
  });
  rx.register_handler(tick_v1(), [&t](const Delivery& d) {
    if (d.outcome != Outcome::kMorphed) t.content_mismatches.fetch_add(1);
    pbio::RecordRef r(d.record, d.format);
    int64_t seq = r.get_int("seq");
    if (r.get_float("v") != 0.5 * static_cast<double>(seq)) t.content_mismatches.fetch_add(1);
    t.tick.fetch_add(1);
    t.tick_seq_sum.fetch_add(seq);
  });
  rx.set_default_handler([&t](const void*, size_t) { t.defaulted.fetch_add(1); });
  rx.learn_format(alpha_reader());
  rx.learn_format(alpha_wire());
  rx.learn_format(tick_v2());
  rx.learn_transform(tick_spec());
  // Ghost is deliberately never learned: its messages take the unknown ->
  // default-handler path.
}

TEST(ConcurrentReceiver, MixedTrafficMatchesSingleThreadedOracle) {
  constexpr size_t kMessages = 2000;
  constexpr size_t kThreads = 8;
  auto log = make_log(kMessages);

  // Oracle: the same log through a single-threaded receiver.
  Tallies oracle_t;
  Receiver oracle;
  wire_up(oracle, oracle_t);
  RecordArena oracle_arena;
  for (const auto& buf : log) {
    oracle_arena.reset();
    oracle.process(buf.data(), buf.size(), oracle_arena);
  }
  ReceiverStats os = oracle.stats();
  ASSERT_EQ(oracle_t.content_mismatches.load(), 0u);

  // Concurrent: one shared receiver, the log partitioned across threads.
  Tallies t;
  Receiver rx;
  wire_up(rx, t);
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (size_t tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      RecordArena arena;
      start.arrive_and_wait();
      for (size_t i = tid; i < log.size(); i += kThreads) {
        arena.reset();
        rx.process(log[i].data(), log[i].size(), arena);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(t.content_mismatches.load(), 0u);
  EXPECT_EQ(t.alpha.load(), oracle_t.alpha.load());
  EXPECT_EQ(t.tick.load(), oracle_t.tick.load());
  EXPECT_EQ(t.defaulted.load(), oracle_t.defaulted.load());
  EXPECT_EQ(t.alpha_seq_sum.load(), oracle_t.alpha_seq_sum.load());
  EXPECT_EQ(t.tick_seq_sum.load(), oracle_t.tick_seq_sum.load());

  ReceiverStats cs = rx.stats();
  EXPECT_EQ(cs.messages, os.messages);
  EXPECT_EQ(cs.exact, os.exact);
  EXPECT_EQ(cs.perfect, os.perfect);
  EXPECT_EQ(cs.morphed, os.morphed);
  EXPECT_EQ(cs.defaulted, os.defaulted);
  EXPECT_EQ(cs.rejected, os.rejected);
  // The build counter: exactly one decision build per distinct fingerprint,
  // no matter how many threads raced on the cold entries.
  EXPECT_EQ(cs.cache_misses, os.cache_misses);
  EXPECT_EQ(cs.cache_hits, os.cache_hits);
  EXPECT_EQ(cs.transforms_compiled, os.transforms_compiled);
  // Conservation after quiescing: every message reached exactly one outcome
  // even with eight threads racing the counters.
  EXPECT_TRUE(os.consistent());
  EXPECT_TRUE(cs.consistent());
  EXPECT_EQ(cs.delta(os).messages, 0u);  // same log, same totals
}

TEST(ConcurrentReceiver, ColdStampedeBuildsPipelineExactlyOnce) {
  constexpr size_t kThreads = 8;
  constexpr size_t kPerThread = 50;

  Tallies t;
  Receiver rx;
  wire_up(rx, t);
  auto buf = encode_with(tick_v2(), 7);

  // All threads released at once onto the same never-seen fingerprint: the
  // expensive MaxMatch + chain search + Ecode compile must run once; the
  // losers of the race block on the entry, then reuse the pipeline.
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (size_t tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&] {
      RecordArena arena;
      start.arrive_and_wait();
      for (size_t i = 0; i < kPerThread; ++i) {
        arena.reset();
        rx.process(buf.data(), buf.size(), arena);
      }
    });
  }
  for (auto& th : threads) th.join();

  ReceiverStats s = rx.stats();
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.transforms_compiled, 1u);
  EXPECT_EQ(s.morphed, kThreads * kPerThread);
  EXPECT_TRUE(s.consistent());
  EXPECT_EQ(t.tick.load(), kThreads * kPerThread);
  EXPECT_EQ(t.content_mismatches.load(), 0u);
}

TEST(ConcurrentReceiver, InPlaceZeroCopyFromManyThreads) {
  constexpr size_t kThreads = 8;
  Tallies t;
  Receiver rx;
  wire_up(rx, t);

  // In-place decode mutates the buffer, so every thread gets its own copy.
  auto proto = encode_with(alpha_reader(), 9);
  std::vector<std::vector<uint8_t>> bufs(kThreads,
                                         std::vector<uint8_t>(proto.data(), proto.data() + proto.size()));
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  std::atomic<uint64_t> bad_outcomes{0};
  for (size_t tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      RecordArena arena;
      start.arrive_and_wait();
      Outcome o = rx.process_in_place(bufs[tid].data(), bufs[tid].size(), arena);
      if (o != Outcome::kExact) bad_outcomes.fetch_add(1);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(bad_outcomes.load(), 0u);
  EXPECT_EQ(rx.stats().zero_copy, kThreads);
  EXPECT_EQ(t.alpha.load(), kThreads);
  EXPECT_EQ(t.content_mismatches.load(), 0u);
}

TEST(ConcurrentReceiver, HandlerRegistrationUnderLoadDoesNotDeadlock) {
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 200;
  Tallies t;
  Receiver rx;
  wire_up(rx, t);
  auto buf = encode_with(alpha_reader(), 1);

  // One thread keeps re-registering (flushing the decision cache each
  // time) while the others process: deliveries must keep landing and the
  // pipeline must simply rebuild after each flush.
  std::atomic<bool> stop{false};
  std::thread churner([&] {
    while (!stop.load()) {
      rx.register_handler(alpha_reader(), [&t](const Delivery& d) {
        pbio::RecordRef r(d.record, d.format);
        if (r.get_int("tag") != r.get_int("seq") * 3 + 1) t.content_mismatches.fetch_add(1);
        t.alpha.fetch_add(1);
      });
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  for (size_t tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&] {
      RecordArena arena;
      for (size_t i = 0; i < kPerThread; ++i) {
        arena.reset();
        rx.process(buf.data(), buf.size(), arena);
      }
    });
  }
  for (auto& th : threads) th.join();
  stop.store(true);
  churner.join();

  EXPECT_EQ(t.content_mismatches.load(), 0u);
  EXPECT_EQ(t.alpha.load(), kThreads * kPerThread);
  EXPECT_EQ(rx.stats().exact, kThreads * kPerThread);
}

}  // namespace
}  // namespace morph::core
