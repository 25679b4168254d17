// Fan-out under churn: subscribers joining/leaving and format revisions
// registering while events publish. The invariants the suite (and TSan)
// referee: snapshots are always internally consistent, plan stampedes build
// exactly once and never deliver wrong records, every event reaches exactly
// the sinks its snapshot named (no lost or duplicated deliveries), and
// refcounted shared payloads are freed exactly once.
#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/fanout.hpp"
#include "echo/fanout.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/randgen.hpp"
#include "pbio/record.hpp"
#include "transport/link.hpp"
#include "transport/framing.hpp"
#include "transport/port.hpp"

namespace morph::echo {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;

/// Revision ladder shared by the fan-out tests: rev 0 narrowest, each later
/// revision widens seq and appends a field.
FormatPtr rev_format(int rev) {
  FormatBuilder b("FanTick");
  b.add_int("seq", rev == 0 ? 4 : 8);
  b.add_float("v", 8);
  for (int i = 1; i <= rev; ++i) b.add_int("extra" + std::to_string(i), 4);
  return b.build();
}

core::TransformSpec rev_spec(int rev) {
  core::TransformSpec s;
  s.src = rev_format(rev);
  s.dst = rev_format(rev - 1);
  std::string code = "old.seq = new.seq; old.v = new.v;";
  for (int i = 1; i < rev; ++i) {
    code += " old.extra" + std::to_string(i) + " = new.extra" + std::to_string(i) + ";";
  }
  s.code = code;
  return s;
}

TEST(FanoutConcurrency, RegistryChurnVsSnapshotReaders) {
  FanoutRegistry reg;
  const std::string keys[] = {FanoutRegistry::key("a", "T"), FanoutRegistry::key("b", "T")};
  std::atomic<bool> stop{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {  // churners
      Rng rng(0xC0FFEEu + static_cast<uint64_t>(t));
      for (int i = 0; i < 3000; ++i) {
        SinkId sink = 1 + rng.next_below(64);
        const std::string& key = keys[rng.next_below(2)];
        switch (rng.next_below(4)) {
          case 0:
          case 1:
            reg.subscribe(key, sink, 100 + rng.next_below(4));
            break;
          case 2:
            reg.unsubscribe(key, sink);
            break;
          default:
            reg.unsubscribe_all(sink);
            break;
        }
      }
    });
  }
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {  // readers
      while (!stop.load(std::memory_order_relaxed)) {
        for (const auto& key : keys) {
          auto snap = reg.snapshot(key);
          // Internal consistency: groups ascending by fingerprint, sinks
          // sorted and globally unique, totals add up.
          size_t total = 0;
          std::set<SinkId> seen;
          uint64_t prev_fp = 0;
          for (const auto& g : snap->groups) {
            if (g.target_fp <= prev_fp && total > 0) ++violations;
            prev_fp = g.target_fp;
            total += g.sinks.size();
            for (size_t i = 0; i < g.sinks.size(); ++i) {
              if (i > 0 && g.sinks[i] <= g.sinks[i - 1]) ++violations;
              if (!seen.insert(g.sinks[i]).second) ++violations;
            }
          }
          if (total != snap->total_sinks) ++violations;
        }
      }
    });
  }
  for (int t = 0; t < 4; ++t) threads[static_cast<size_t>(t)].join();
  stop.store(true);
  for (size_t t = 4; t < threads.size(); ++t) threads[t].join();
  EXPECT_EQ(violations.load(), 0);
}

TEST(FanoutConcurrency, PlannerStampedeWhileRevisionsRegister) {
  constexpr int kRevs = 4;
  core::FanoutPlanner planner;
  auto src = rev_format(kRevs);
  planner.learn_transform(rev_spec(kRevs));  // rev K -> K-1 known up front

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<uint64_t> morphs{0};

  std::thread learner([&] {
    // Deeper revisions appear while planners race; each learn flushes the
    // plan cache mid-flight.
    for (int r = kRevs - 1; r >= 1; --r) {
      planner.learn_transform(rev_spec(r));
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0xBEEFu + static_cast<uint64_t>(t));
      pbio::Encoder enc(src);
      for (int i = 0; i < 400; ++i) {
        int rev = static_cast<int>(rng.next_below(kRevs));  // target rev 0..K-1
        auto plan = planner.plan(src, rev_format(rev)->fingerprint());
        if (!plan->reachable()) continue;  // the revision isn't learned yet
        RecordArena arena;
        pbio::DynValue input = pbio::random_dyn(rng, src);
        ByteBuffer wire;
        enc.encode(pbio::from_dyn(input, arena), wire);
        auto fused = pbio::to_dyn(*plan->target(), plan->morph(wire.data(), wire.size(), arena));
        auto hopwise =
            pbio::to_dyn(*plan->target(), plan->morph_hopwise(wire.data(), wire.size(), arena));
        if (!(fused == hopwise)) mismatches.fetch_add(1, std::memory_order_relaxed);
        morphs.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  learner.join();
  for (auto& th : workers) th.join();
  stop.store(true);

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(morphs.load(), 0u);
  // Every target is reachable once the learner finished.
  for (int r = 0; r < kRevs; ++r) {
    EXPECT_TRUE(planner.plan(src, rev_format(r)->fingerprint())->reachable()) << r;
  }
  // Counter conservation: every plan() call was a hit or a build.
  auto s = planner.stats();
  EXPECT_EQ(s.plans_requested, s.cache_hits + s.plans_built);
}

TEST(FanoutConcurrency, SharedPayloadsFreedExactlyOnce) {
  // A broker thread fans refcounted payloads to per-sink queues drained by
  // consumer threads (cross-thread refcount release). Custom deleters count
  // frees: exactly one per payload, no leaks, no double frees; delivery
  // counts conserve (every queued reference is consumed exactly once).
  constexpr int kSinks = 8;
  constexpr int kEvents = 500;

  struct SinkQueue {
    std::mutex mutex;
    std::deque<transport::SharedPayload> q;
  };
  SinkQueue queues[kSinks];
  std::atomic<uint64_t> allocated{0};
  std::atomic<uint64_t> freed{0};
  std::atomic<uint64_t> produced{0};
  std::atomic<uint64_t> consumed{0};
  std::atomic<uint64_t> consumed_bytes{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> consumers;
  for (int t = 0; t < kSinks; ++t) {
    consumers.emplace_back([&, t] {
      for (;;) {
        transport::SharedPayload p;
        {
          std::lock_guard<std::mutex> lock(queues[t].mutex);
          if (!queues[t].q.empty()) {
            p = std::move(queues[t].q.front());
            queues[t].q.pop_front();
          }
        }
        if (p != nullptr) {
          consumed.fetch_add(1, std::memory_order_relaxed);
          consumed_bytes.fetch_add(p->size(), std::memory_order_relaxed);
        } else if (done.load(std::memory_order_acquire)) {
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }

  std::thread broker([&] {
    for (int e = 0; e < kEvents; ++e) {
      auto* buf = new ByteBuffer();
      std::string body = "event " + std::to_string(e);
      buf->append(body.data(), body.size());
      allocated.fetch_add(1, std::memory_order_relaxed);
      transport::SharedPayload payload(
          buf, [&freed](const ByteBuffer* b) {
            freed.fetch_add(1, std::memory_order_relaxed);
            delete b;
          });
      for (int t = 0; t < kSinks; ++t) {
        std::lock_guard<std::mutex> lock(queues[t].mutex);
        queues[t].q.push_back(payload);  // one refcount bump per sink
        produced.fetch_add(1, std::memory_order_relaxed);
      }
      // The broker's own reference dies here; sinks keep the buffer alive.
    }
    done.store(true, std::memory_order_release);
  });

  broker.join();
  for (auto& th : consumers) th.join();

  EXPECT_EQ(produced.load(), static_cast<uint64_t>(kEvents) * kSinks);
  EXPECT_EQ(consumed.load(), produced.load());
  EXPECT_EQ(allocated.load(), static_cast<uint64_t>(kEvents));
  EXPECT_EQ(freed.load(), allocated.load());  // freed exactly once each
}

TEST(FanoutConcurrency, GroupedPublishUnderSubscriberChurn) {
  // The full engine: GroupPublisher (single publisher thread) over real
  // MessagePorts, while churn threads subscribe/unsubscribe sinks and a
  // learner registers new format revisions. Every event must reach exactly
  // the sinks its snapshot named: frames counted at the sinks afterwards
  // equal the deliveries the publisher reported, with zero duplicates lost.
  constexpr int kSinks = 12;
  constexpr int kRevs = 3;
  constexpr int kEvents = 120;

  core::FanoutPlanner planner;
  FanoutRegistry reg;
  GroupPublisher publisher(planner);
  auto src = rev_format(kRevs);
  const std::string key = FanoutRegistry::key("fan", src->name());

  // Sink plumbing: pair per sink; counting happens after all threads join,
  // so the pumps below never race the publisher.
  std::vector<std::unique_ptr<transport::InprocPair>> pairs;
  std::vector<std::unique_ptr<transport::MessagePort>> ports;
  for (int i = 0; i < kSinks; ++i) {
    pairs.push_back(std::make_unique<transport::InprocPair>());
    ports.push_back(
        std::make_unique<transport::MessagePort>(pairs.back()->a(), nullptr));
  }

  planner.learn_transform(rev_spec(kRevs));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> expected_deliveries{0};
  std::atomic<uint64_t> expected_fallbacks{0};

  std::thread learner([&] {
    for (int r = kRevs - 1; r >= 1; --r) planner.learn_transform(rev_spec(r));
  });
  std::vector<std::thread> churners;
  for (int t = 0; t < 3; ++t) {
    churners.emplace_back([&, t] {
      Rng rng(0xD00Du + static_cast<uint64_t>(t));
      for (int i = 0; i < 2000; ++i) {
        SinkId sink = rng.next_below(kSinks);
        if (rng.next_below(3) == 0) {
          reg.unsubscribe(key, sink);
        } else {
          reg.subscribe(key, sink, rev_format(static_cast<int>(rng.next_below(kRevs + 1)))
                                       ->fingerprint());
        }
      }
    });
  }

  std::thread publisher_thread([&] {
    Rng rng(0xF00Du);
    RecordArena arena;
    for (int e = 0; e < kEvents; ++e) {
      arena.reset();
      void* rec = pbio::alloc_record(*src, arena);
      pbio::RecordRef r(rec, src);
      r.set_int("seq", e);
      r.set_float("v", 0.25 * e);
      for (int i = 1; i <= kRevs; ++i) r.set_int("extra" + std::to_string(i), e + i);

      auto snap = reg.snapshot(key);
      PublisherStats counts = publisher.publish(
          src, rec, *snap, [&](SinkId s) { return ports[static_cast<size_t>(s)].get(); },
          [&](SinkId) { expected_fallbacks.fetch_add(1, std::memory_order_relaxed); });
      expected_deliveries.fetch_add(counts.fanout_deliveries, std::memory_order_relaxed);
      // Conservation at the publisher: every snapshot sink was either
      // delivered to or fell back, never both, never neither.
      EXPECT_EQ(counts.fanout_deliveries + counts.fanout_fallbacks, snap->total_sinks);
    }
  });

  publisher_thread.join();
  learner.join();
  for (auto& th : churners) th.join();
  stop.store(true);

  // Drain and count data frames at the sinks (single-threaded now).
  uint64_t received = 0;
  for (int i = 0; i < kSinks; ++i) {
    transport::FrameAssembler assembler;
    pairs[static_cast<size_t>(i)]->b().set_on_data(
        [&assembler, &received](const uint8_t* data, size_t size) {
          assembler.feed(data, size, [&received](transport::Frame& f) {
            if (f.type == transport::FrameType::kData) ++received;
          });
        });
    pairs[static_cast<size_t>(i)]->pump();
  }
  EXPECT_EQ(received, expected_deliveries.load());
}

}  // namespace
}  // namespace morph::echo
