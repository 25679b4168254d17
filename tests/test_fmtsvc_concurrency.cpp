// Resolver and service under contention: single-flight stampedes, fetches
// racing metrics scrapes, one receiver shared by many threads resolving
// out-of-band, and graceful degradation with every worker hammering a dead
// endpoint. Run under TSan via scripts/check.sh --tsan.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/receiver.hpp"
#include "fmtsvc/resolver.hpp"
#include "fmtsvc/server.hpp"
#include "fmtsvc/store.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "pbio/encode.hpp"
#include "pbio/record.hpp"
#include "transport/tcp.hpp"

namespace morph {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;

FormatPtr rev(int k) {
  FormatBuilder b("Telemetry");
  for (int i = 0; i <= k; ++i) b.add_int("f" + std::to_string(i), 4);
  return b.build();
}

core::TransformSpec down(int k) {
  core::TransformSpec s;
  s.src = rev(k);
  s.dst = rev(k - 1);
  for (int i = 0; i <= k - 1; ++i) {
    s.code += "old.f" + std::to_string(i) + " = new.f" + std::to_string(i) + ";";
  }
  return s;
}

fmtsvc::ResolverOptions client_for(uint16_t port) {
  fmtsvc::ResolverOptions opts;
  opts.port = port;
  return opts;
}

uint16_t dead_port() {
  transport::TcpListener listener(0);
  return listener.port();
}

TEST(FmtsvcConcurrency, SingleFlightCollapsesAStampede) {
  fmtsvc::FormatStore store;
  store.put(fmtsvc::FormatEntry{rev(1), {down(1)}});
  fmtsvc::FormatService service(store);
  fmtsvc::FormatResolver resolver(client_for(service.port()));

  constexpr int kThreads = 16;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> resolved{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      if (resolver.resolve(rev(1)->fingerprint()).has_value()) resolved.fetch_add(1);
    });
  }
  while (ready.load() < kThreads) std::this_thread::yield();
  go.store(true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(resolved.load(), kThreads);
  fmtsvc::ResolverStats rs = resolver.stats();
  EXPECT_EQ(rs.resolves, static_cast<uint64_t>(kThreads));
  // One RPC total: one owner fetched, everyone else joined its flight or
  // hit the cache the owner populated.
  EXPECT_EQ(rs.rpcs, 1u);
  EXPECT_EQ(rs.fetched, 1u);
  EXPECT_EQ(rs.fetched + rs.cache_hits + rs.stampede_joins, static_cast<uint64_t>(kThreads));
}

TEST(FmtsvcConcurrency, ManyFingerprintsManyThreads) {
  constexpr int kFormats = 8;
  constexpr int kThreads = 8;
  constexpr int kIters = 50;

  fmtsvc::FormatStore store;
  for (int k = 0; k < kFormats; ++k) store.put(fmtsvc::FormatEntry{rev(k), {}});
  fmtsvc::FormatService service(store);
  fmtsvc::FormatResolver resolver(client_for(service.port()));

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        uint64_t fp = rev((t + i) % kFormats)->fingerprint();
        if (!resolver.resolve(fp).has_value()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  fmtsvc::ResolverStats rs = resolver.stats();
  EXPECT_EQ(rs.resolves, static_cast<uint64_t>(kThreads * kIters));
  // Conservation: every resolve landed in exactly one bucket.
  EXPECT_EQ(rs.cache_hits + rs.negative_hits + rs.fetched + rs.failed + rs.lint_rejected +
                rs.stampede_joins,
            rs.resolves);
}

TEST(FmtsvcConcurrency, FetchUnderMetricsScrape) {
  fmtsvc::FormatStore store;
  for (int k = 0; k < 4; ++k) store.put(fmtsvc::FormatEntry{rev(k), {}});
  fmtsvc::FormatService service(store);
  fmtsvc::ResolverOptions opts = client_for(service.port());
  opts.ttl_ms = 1;  // keep the fetch path hot
  fmtsvc::FormatResolver resolver(opts);

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load()) {
      std::string dump = obs::to_prometheus(obs::metrics().snapshot());
      ASSERT_FALSE(dump.empty());
      (void)resolver.stats();
      (void)service.stats();
    }
  });
  std::vector<std::thread> fetchers;
  for (int t = 0; t < 4; ++t) {
    fetchers.emplace_back([&, t] {
      for (int i = 0; i < 100; ++i) {
        resolver.resolve(rev((t + i) % 4)->fingerprint());
      }
    });
  }
  for (auto& t : fetchers) t.join();
  stop.store(true);
  scraper.join();
}

TEST(FmtsvcConcurrency, ParallelReceiverResolvesOutOfBand) {
  fmtsvc::FormatStore store;
  fmtsvc::FormatService service(store);
  fmtsvc::FormatResolver writer(client_for(service.port()));
  ASSERT_TRUE(writer.publish(rev(1), {down(1)}));

  fmtsvc::FormatResolver source(client_for(service.port()));
  core::ReceiverOptions opt;
  opt.thresholds = {0, 0.0};
  opt.format_source = &source;
  opt.resolve = core::ResolvePolicy::kFetch;
  core::Receiver rx(opt);
  std::atomic<int> delivered{0};
  rx.register_handler(rev(0), [&](const core::Delivery&) { delivered.fetch_add(1); });

  FormatPtr fmt1 = rev(1);
  RecordArena enc_arena;
  void* rec = pbio::alloc_record(*fmt1, enc_arena);
  pbio::RecordRef(rec, fmt1).set_int("f0", 7);
  ByteBuffer wire;
  pbio::Encoder(fmt1).encode(rec, wire);

  // Plain threads share one Receiver (the test name is historical) and all
  // slam the same cold fingerprint: exactly one fetch runs inside the
  // once-guarded decision build, the rest wait on that entry.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      RecordArena arena;
      for (int i = 0; i < kPerThread; ++i) {
        EXPECT_EQ(rx.process(wire.data(), wire.size(), arena), core::Outcome::kMorphed);
        arena.reset();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(delivered.load(), kThreads * kPerThread);
  EXPECT_EQ(rx.stats().resolve_fetched, 1u);
  EXPECT_EQ(source.stats().resolves, 1u);
}

TEST(FmtsvcConcurrency, DegradationUnderFireDoesNotDeadlock) {
  // Service down, kFetchOrInline: every thread must get a clean rejection
  // (or a morph once meta-data is learned inline mid-storm), never a hang.
  fmtsvc::ResolverOptions sopts = client_for(dead_port());
  sopts.max_attempts = 1;
  sopts.deadline_ms = 100;
  sopts.negative_ttl_ms = 50;
  fmtsvc::FormatResolver source(sopts);

  core::ReceiverOptions opt;
  opt.thresholds = {0, 0.0};
  opt.format_source = &source;
  opt.resolve = core::ResolvePolicy::kFetchOrInline;
  core::Receiver rx(opt);
  std::atomic<int> delivered{0};
  rx.register_handler(rev(0), [&](const core::Delivery&) { delivered.fetch_add(1); });

  FormatPtr fmt1 = rev(1);
  RecordArena enc_arena;
  void* rec = pbio::alloc_record(*fmt1, enc_arena);
  pbio::RecordRef(rec, fmt1).set_int("f0", 7);
  ByteBuffer wire;
  pbio::Encoder(fmt1).encode(rec, wire);

  constexpr int kThreads = 6;
  std::atomic<int> rejected{0};
  std::atomic<int> morphed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      RecordArena arena;
      for (int i = 0; i < 20; ++i) {
        core::Outcome out = rx.process(wire.data(), wire.size(), arena);
        arena.reset();
        if (out == core::Outcome::kRejected) {
          rejected.fetch_add(1);
        } else if (out == core::Outcome::kMorphed) {
          morphed.fetch_add(1);
        } else {
          ADD_FAILURE() << "unexpected outcome";
        }
      }
    });
  }
  // Mid-storm, the meta-data arrives inline (late kFormatDef/kTransformDef).
  rx.learn_format(fmt1);
  rx.learn_transform(down(1));
  for (auto& t : threads) t.join();

  EXPECT_EQ(rejected.load() + morphed.load(), kThreads * 20);
  // After the learn, a fresh message must morph (no sticky rejection).
  RecordArena arena;
  EXPECT_EQ(rx.process(wire.data(), wire.size(), arena), core::Outcome::kMorphed);
}

TEST(FmtsvcConcurrency, ConcurrentPublishersAndReaders) {
  fmtsvc::FormatStore store;
  fmtsvc::FormatService service(store);

  constexpr int kWriters = 4;
  constexpr int kFormats = 12;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&] {
      fmtsvc::FormatResolver writer(client_for(service.port()));
      for (int k = 0; k < kFormats; ++k) writer.publish(rev(k));
    });
  }
  std::atomic<int> resolved{0};
  threads.emplace_back([&] {
    fmtsvc::ResolverOptions opts = client_for(service.port());
    opts.negative_ttl_ms = 0;  // re-ask until the writers catch up
    fmtsvc::FormatResolver reader(opts);
    for (int k = 0; k < kFormats; ++k) {
      for (int spin = 0; spin < 1000; ++spin) {
        if (reader.resolve(rev(k)->fingerprint()).has_value()) {
          resolved.fetch_add(1);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(resolved.load(), kFormats);
  EXPECT_EQ(store.size(), static_cast<size_t>(kFormats));
}

}  // namespace
}  // namespace morph
