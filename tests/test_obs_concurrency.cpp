// Scrape-under-write races for the metrics registry: writers hammer
// counters and histograms while scraper threads snapshot and export. Run
// under ThreadSanitizer via the tests_concurrency target (MORPH_SANITIZE=
// thread); the assertions also hold in a plain build.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace morph::obs {
namespace {

TEST(ObsConcurrency, CountersExactAfterJoin) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg] {
      Counter& c = reg.counter("hammered_total");
      for (uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(reg.counter("hammered_total").value(), kThreads * kPerThread);
}

TEST(ObsConcurrency, ScrapeWhileWriting) {
  MetricsRegistry reg;
  constexpr int kWriters = 4;
  constexpr uint64_t kPerThread = 20000;
  std::atomic<bool> stop{false};

  // Writers start only after each scraper has taken its first snapshot, so
  // every run scrapes at least twice however the threads are scheduled;
  // the later snapshots still race the writers.
  std::latch scrapers_ready(2);

  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&reg, &scrapers_ready, t] {
      scrapers_ready.wait();
      // Each writer also creates its own metrics, so scrapes race the
      // registry map insert path, not just the stripe updates.
      Counter& mine = reg.counter("writer_total{id=\"" + std::to_string(t) + "\"}");
      Counter& shared = reg.counter("shared_total");
      Histogram& h = reg.histogram("lat_ns");
      Gauge& g = reg.gauge("depth");
      for (uint64_t i = 0; i < kPerThread; ++i) {
        mine.inc();
        shared.inc();
        h.record(i % 5000);
        g.set(static_cast<double>(i));
      }
    });
  }
  // Two scrapers snapshot and run both exporters until the writers finish.
  std::atomic<uint64_t> scrapes{0};
  for (int s = 0; s < 2; ++s) {
    threads.emplace_back([&] {
      bool first = true;
      do {
        MetricsSnapshot snap = reg.snapshot();
        // count is derived from the same per-bucket reads, so it matches
        // the bucket sum even while writers are mid-flight.
        for (const auto& [name, h] : snap.histograms) {
          uint64_t total = 0;
          for (const auto& [upper, count] : h.buckets) total += count;
          EXPECT_EQ(total, h.count) << name;
        }
        std::string prom = to_prometheus(snap);
        std::string json = to_json(snap);
        EXPECT_FALSE(prom.empty() && json.empty());
        scrapes.fetch_add(1, std::memory_order_relaxed);
        if (first) scrapers_ready.count_down();
        first = false;
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (int t = 0; t < kWriters; ++t) threads[static_cast<size_t>(t)].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_GE(scrapes.load(), 2u);
  EXPECT_EQ(reg.counter("shared_total").value(), kWriters * kPerThread);
  auto final_snap = reg.snapshot();
  for (const auto& [name, h] : final_snap.histograms) {
    EXPECT_EQ(h.count, kWriters * kPerThread) << name;
  }
}

// Series of their own under a catalogued family: nothing else records to
// them, so the deltas below are exact.
#define TEST_SET_COUNTERS(X)                           \
  X(a, morph_flight_events_total, "counterset_test_a") \
  X(b, morph_flight_events_total, "counterset_test_b") \
  X(local)

struct TestSetStats {
  MORPH_STATS(TestSetStats, TEST_SET_COUNTERS)
};

TEST(ObsConcurrency, CounterSetScrapeRacesDestroy) {
  // Writers add to short-lived CounterSets and destroy them while a
  // scraper reads the same counters through snapshot() and value(): the
  // fold into the registry must never let a read go backwards, and
  // nothing added may be lost.
  constexpr int kWriters = 4;
  constexpr int kRounds = 50;
  constexpr int kSetsPerRound = 3;
  constexpr uint64_t kAddsPerRound = 999;
  const std::string kName = series(Metric::morph_flight_events_total, {"counterset_test_a"});
  Counter& a = metrics().counter(kName);
  Counter& b = metrics().counter(Metric::morph_flight_events_total, {"counterset_test_b"});
  const uint64_t base_a = a.value();
  const uint64_t base_b = b.value();
  std::atomic<bool> stop{false};
  std::latch scraper_ready(1);

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      scraper_ready.wait();
      for (int r = 0; r < kRounds; ++r) {
        std::vector<std::unique_ptr<CounterSet<TestSetStats>>> sets;
        for (int i = 0; i < kSetsPerRound; ++i) {
          sets.push_back(std::make_unique<CounterSet<TestSetStats>>());
        }
        for (uint64_t i = 0; i < kAddsPerRound; ++i) {
          auto& set = *sets[i % kSetsPerRound];
          set.inc(TestSetStats::Id::a);
          set.add(TestSetStats::Id::b, 2);
          set.inc(TestSetStats::Id::local);
        }
        EXPECT_EQ(sets[0]->load().a, kAddsPerRound / kSetsPerRound);
      }  // the round's sets fold into the registry here
    });
  }
  uint64_t reads = 0;
  uint64_t backwards = 0;
  std::thread scraper([&] {
    uint64_t last = 0;
    auto observe = [&](uint64_t v) {
      if (v < last) ++backwards;
      last = v;
      ++reads;
    };
    bool first = true;
    do {
      for (const auto& [name, v] : metrics().snapshot().counters) {
        if (name == kName) observe(v);
      }
      observe(a.value());
      if (first) scraper_ready.count_down();
      first = false;
    } while (!stop.load(std::memory_order_relaxed));
  });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_GE(reads, 2u);
  EXPECT_EQ(backwards, 0u);
  const uint64_t adds = kWriters * kRounds * kAddsPerRound;
  EXPECT_EQ(a.value() - base_a, adds);
  EXPECT_EQ(b.value() - base_b, 2 * adds);
}

TEST(ObsConcurrency, SpanRingUnderConcurrentSpans) {
  set_tracing(true);
  clear_spans();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 500; ++i) {
        TraceScope scope(TraceContext{new_trace_id()});
        TraceSpan span("test.concurrent");
      }
    });
  }
  // A reader drains the ring concurrently.
  std::thread reader([] {
    for (int i = 0; i < 50; ++i) {
      auto spans = recent_spans();
      EXPECT_LE(spans.size(), kSpanRingCapacity);
    }
  });
  for (auto& t : threads) t.join();
  reader.join();
  set_tracing(false);
  EXPECT_LE(recent_spans().size(), kSpanRingCapacity);
  clear_spans();
}

}  // namespace
}  // namespace morph::obs
