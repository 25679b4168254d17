// Scrape-under-write races for the metrics registry: writers hammer
// counters and histograms while scraper threads snapshot and export. Run
// under ThreadSanitizer via the tests_concurrency target (MORPH_SANITIZE=
// thread); the assertions also hold in a plain build.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <latch>
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
