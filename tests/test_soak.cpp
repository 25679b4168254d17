// System soak: a mixed-version ECho deployment with dynamic membership,
// several channels, and continuous event traffic — everything the library
// does, exercised together, with deterministic expectations. Plus a timed
// multi-threaded soak hammering one shared Receiver while formats keep
// evolving mid-run (MORPH_SOAK_SECONDS scales it up for nightly runs).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "echo/process.hpp"
#include "pbio/encode.hpp"
#include "pbio/randgen.hpp"
#include "pbio/record.hpp"

namespace morph::echo {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;

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

core::TransformSpec tick_spec() {
  core::TransformSpec s;
  s.src = tick_v2();
  s.dst = tick_v1();
  s.code = "old.seq = new.seq; old.v = new.v;";
  return s;
}

TEST(Soak, MixedFleetWithChurnAndTraffic) {
  Rng rng(4242);
  EchoDomain dom;
  auto& creator = dom.spawn("creator", EchoVersion::kV2);

  constexpr int kProcs = 12;
  std::vector<EchoProcess*> procs;
  for (int i = 0; i < kProcs; ++i) {
    auto version = i % 3 == 0 ? EchoVersion::kV2 : EchoVersion::kV1;  // 1/3 upgraded
    auto& p = dom.spawn("p" + std::to_string(i), version);
    dom.connect(creator, p);
    procs.push_back(&p);
  }
  // Full mesh between processes so sources reach sinks directly.
  for (int i = 0; i < kProcs; ++i) {
    for (int j = i + 1; j < kProcs; ++j) dom.connect(*procs[i], *procs[j]);
  }
  dom.pump();

  const char* kChannels[] = {"alpha", "beta", "gamma"};
  for (const char* ch : kChannels) creator.create_channel(ch);

  // Everyone subscribes to a random subset; v2 processes will publish v2
  // events, old sinks registered the v1 event format.
  std::vector<uint64_t> deliveries(kProcs, 0);
  for (int i = 0; i < kProcs; ++i) {
    EchoProcess* p = procs[static_cast<size_t>(i)];
    bool is_new = p->version() == EchoVersion::kV2;
    auto sink_fmt = is_new ? tick_v2() : tick_v1();
    for (const char* ch : kChannels) {
      p->on_event(std::string(ch) + ":Tick",
                  // Channel-scoped copies keep the one-format-per-channel rule.
                  pbio::FormatBuilder(std::string(ch) + ":Tick")
                      .add_int("seq", is_new ? 8 : 4)
                      .add_float("v", 8)
                      .build(),
                  [&deliveries, i](const Event&) { ++deliveries[static_cast<size_t>(i)]; });
    }
    (void)sink_fmt;
  }

  // Subscribe: every process joins every channel as a sink; every v2
  // process additionally as a source.
  for (int i = 0; i < kProcs; ++i) {
    for (const char* ch : kChannels) {
      procs[static_cast<size_t>(i)]->open_channel(
          ch, "creator", procs[static_cast<size_t>(i)]->version() == EchoVersion::kV2, true);
    }
  }
  dom.pump();

  for (const char* ch : kChannels) {
    EXPECT_EQ(creator.members(ch).size(), static_cast<size_t>(kProcs)) << ch;
  }

  // Traffic: each v2 process publishes rounds of channel-scoped events;
  // v1 sinks need the per-channel retro transform.
  std::vector<FormatPtr> scoped_v2;
  for (const char* ch : kChannels) {
    auto fmt_v2 = pbio::FormatBuilder(std::string(ch) + ":Tick")
                      .add_int("seq", 8)
                      .add_float("v", 8)
                      .add_string("unit")
                      .build();
    scoped_v2.push_back(fmt_v2);
  }
  for (int i = 0; i < kProcs; ++i) {
    EchoProcess* p = procs[static_cast<size_t>(i)];
    if (p->version() != EchoVersion::kV2) continue;
    for (size_t c = 0; c < 3; ++c) {
      core::TransformSpec spec;
      spec.src = scoped_v2[c];
      spec.dst = pbio::FormatBuilder(scoped_v2[c]->name())
                     .add_int("seq", 4)
                     .add_float("v", 8)
                     .build();
      spec.code = "old.seq = new.seq; old.v = new.v;";
      p->declare_event_transform(spec);
    }
  }
  dom.pump();

  uint64_t published = 0;
  RecordArena arena;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < kProcs; ++i) {
      EchoProcess* p = procs[static_cast<size_t>(i)];
      if (p->version() != EchoVersion::kV2) continue;
      size_t c = rng.next_below(3);
      void* rec = pbio::alloc_record(*scoped_v2[c], arena);
      pbio::RecordRef r(rec, scoped_v2[c]);
      r.set_int("seq", round * 100 + i);
      r.set_float("v", 0.5 * round);
      r.set_string("unit", "ms", arena);
      published += p->publish(kChannels[c], scoped_v2[c], rec);
      dom.pump();
    }
  }

  uint64_t total_delivered = 0;
  uint64_t morphed = 0;
  for (int i = 0; i < kProcs; ++i) {
    total_delivered += deliveries[static_cast<size_t>(i)];
    morphed += procs[static_cast<size_t>(i)]->stats().events_morphed;
  }
  EXPECT_EQ(total_delivered, published);
  EXPECT_GT(morphed, 0u);  // old sinks really did morph the new event format

  // Churn: half the fleet leaves one channel; membership shrinks everywhere.
  for (int i = 0; i < kProcs; i += 2) {
    procs[static_cast<size_t>(i)]->leave_channel("alpha", "creator");
  }
  dom.pump();
  EXPECT_EQ(creator.members("alpha").size(), static_cast<size_t>(kProcs / 2));
  EXPECT_EQ(creator.members("beta").size(), static_cast<size_t>(kProcs));

  // Every v1 member saw only v1-format responses (morphed); every v2 member
  // saw exact v2 responses.
  for (int i = 0; i < kProcs; ++i) {
    EchoProcess* p = procs[static_cast<size_t>(i)];
    auto totals = p->receiver_totals();
    if (p->version() == EchoVersion::kV1) {
      EXPECT_EQ(totals.rejected, 0u) << p->contact();
      EXPECT_GT(p->stats().responses_morphed, 0u) << p->contact();
    } else {
      EXPECT_EQ(p->stats().responses_morphed, 0u) << p->contact();
    }
  }
}

// Multi-threaded soak: worker threads replay a growing pool of encoded
// messages against one shared Receiver while an evolver thread keeps
// minting new format revisions (via pbio/randgen) and registering handlers
// — which flushes the decision cache — mid-run. Nothing here is allowed to
// crash, deadlock, drop a message, or trip a sanitizer; accounting must
// balance exactly. Runs ~1s by default; export MORPH_SOAK_SECONDS=30 for a
// nightly-length run.
TEST(Soak, ConcurrentReceiverUnderEvolvingFormats) {
  double seconds = 1.0;
  if (const char* env = std::getenv("MORPH_SOAK_SECONDS")) {
    double v = std::atof(env);
    if (v > 0) seconds = v;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(seconds));
  constexpr size_t kWorkers = 4;
  const size_t max_revisions = static_cast<size_t>(40 * seconds) + 10;

  std::atomic<uint64_t> delivered{0};
  std::atomic<uint64_t> worker_errors{0};
  std::atomic<uint64_t> processed_total{0};

  core::Receiver rx;

  // Fixed morphing pair processed throughout: old readers keep morphing
  // v2 ticks while the Evt family evolves around them.
  rx.register_handler(tick_v1(), [&](const core::Delivery&) { delivered.fetch_add(1); });
  rx.learn_format(tick_v2());
  rx.learn_transform(tick_spec());

  // Shared message pool; workers replay random entries. Buffers are only
  // ever appended and are immutable once published.
  std::mutex pool_mutex;
  std::vector<std::shared_ptr<ByteBuffer>> pool;
  auto push_message = [&](const pbio::FormatPtr& fmt, Rng& rng, RecordArena& arena) {
    arena.reset();
    void* rec = pbio::random_record(rng, fmt, arena);
    auto buf = std::make_shared<ByteBuffer>();
    pbio::Encoder(fmt).encode(rec, *buf);
    std::lock_guard<std::mutex> lock(pool_mutex);
    pool.push_back(std::move(buf));
  };

  {
    // Seed the pool before workers start.
    Rng rng(99);
    RecordArena arena;
    RecordArena tick_arena;
    void* tick = pbio::alloc_record(*tick_v2(), tick_arena);
    pbio::RecordRef r(tick, tick_v2());
    r.set_int("seq", 1);
    r.set_float("v", 2.0);
    r.set_string("unit", "ms", tick_arena);
    auto tick_buf = std::make_shared<ByteBuffer>();
    pbio::Encoder(tick_v2()).encode(tick, *tick_buf);
    {
      std::lock_guard<std::mutex> lock(pool_mutex);
      pool.push_back(std::move(tick_buf));
    }
    pbio::FormatPtr base = pbio::random_format(rng, "Evt");
    rx.learn_format(base);
    rx.register_handler(base, [&](const core::Delivery&) { delivered.fetch_add(1); });
    push_message(base, rng, arena);
  }

  // Evolver: keeps mutating the Evt family mid-run. Every revision is
  // learned; every third also gets a handler (register_handler flushes the
  // whole decision cache, so workers constantly race rebuilds). Unregistered
  // revisions exercise the MaxMatch perfect/reconcile/reject paths.
  std::thread evolver([&] {
    Rng rng(7);
    RecordArena arena;
    pbio::FormatPtr cur = pbio::random_format(rng, "Evt");
    for (size_t rev = 0; rev < max_revisions && std::chrono::steady_clock::now() < deadline;
         ++rev) {
      cur = pbio::mutate_format(rng, *cur);
      cur = rx.learn_format(cur);
      if (rev % 3 == 0) {
        rx.register_handler(cur, [&](const core::Delivery&) { delivered.fetch_add(1); });
      }
      push_message(cur, rng, arena);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (size_t tid = 0; tid < kWorkers; ++tid) {
    workers.emplace_back([&, tid] {
      Rng rng(1000 + tid);
      RecordArena arena;
      uint64_t processed = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        std::shared_ptr<ByteBuffer> msg;
        {
          std::lock_guard<std::mutex> lock(pool_mutex);
          msg = pool[rng.next_below(static_cast<uint32_t>(pool.size()))];
        }
        arena.reset();
        try {
          rx.process(msg->data(), msg->size(), arena);
          ++processed;
        } catch (...) {
          worker_errors.fetch_add(1);
        }
      }
      processed_total.fetch_add(processed);
    });
  }
  evolver.join();
  for (auto& w : workers) w.join();

  EXPECT_EQ(worker_errors.load(), 0u);
  EXPECT_GT(processed_total.load(), 0u);
  core::ReceiverStats s = rx.stats();
  // Every successful process() call is counted exactly once.
  EXPECT_EQ(s.messages, processed_total.load());
  // Accounting balances: each message lands in exactly one outcome bucket.
  EXPECT_EQ(s.exact + s.perfect + s.morphed + s.reconciled + s.morphed_reconciled +
                s.defaulted + s.rejected,
            s.messages);
  // Deliveries can't exceed messages; morphing really happened.
  EXPECT_LE(delivered.load(), s.messages);
  EXPECT_GT(s.morphed, 0u);
}

}  // namespace
}  // namespace morph::echo
