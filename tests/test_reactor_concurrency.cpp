// Reactor concurrency suite (run under TSan in CI): cross-thread publishing,
// connection churn under load, and a backpressure stampede. These tests
// care about data races and lifetime bugs, not throughput — keep the
// counts modest so TSan finishes quickly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "transport/framing.hpp"
#include "transport/reactor.hpp"
#include "transport/tcp.hpp"

namespace morph::transport {
namespace {

using namespace std::chrono_literals;

SharedPayload make_payload(size_t n, uint8_t fill) {
  ByteBuffer buf;
  const std::vector<uint8_t> bytes(n, fill);
  buf.append(bytes.data(), bytes.size());
  return std::make_shared<const ByteBuffer>(std::move(buf));
}

TEST(ReactorConcurrency, CrossThreadPublishSharedPayloads) {
  // An external publisher thread broadcasts the same refcounted payload to
  // every link while the loop is simultaneously echoing inbound traffic.
  // Exercises cross-thread send_shared against loop-side flushes and closes.
  TcpListener listener(0);
  std::mutex links_mutex;
  std::vector<std::shared_ptr<AsyncTcpLink>> links;
  ReactorServer server(listener, ReactorOptions{}, [&](AsyncTcpLink& link) {
    AsyncTcpLink* l = &link;
    link.set_on_data([l](const uint8_t* d, size_t n) { l->send(d, n); });
    std::lock_guard<std::mutex> lock(links_mutex);
    links.push_back(link.shared());
  });

  constexpr int kClients = 8;
  std::atomic<size_t> received{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  std::atomic<bool> stop_clients{false};
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      auto client = TcpLink::connect("127.0.0.1", server.port());
      client->set_on_data([&](const uint8_t*, size_t n) { received.fetch_add(n); });
      const uint8_t byte = static_cast<uint8_t>(i);
      for (int j = 0; j < 50; ++j) {
        client->send(&byte, 1);
        client->pump(1);
      }
      while (!stop_clients.load()) {
        if (!client->pump(10)) break;
      }
    });
  }

  // Publisher thread: broadcast shared payloads as links appear.
  auto payload = make_payload(512, 0xAB);
  std::thread publisher([&] {
    for (int round = 0; round < 40; ++round) {
      std::vector<std::shared_ptr<AsyncTcpLink>> snapshot;
      {
        std::lock_guard<std::mutex> lock(links_mutex);
        snapshot = links;
      }
      for (auto& link : snapshot) link->send_shared(payload);
      std::this_thread::sleep_for(2ms);
    }
  });
  publisher.join();

  // Every byte the clients sent eventually echoes back (plus broadcasts).
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (received.load() < kClients * 50 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_GE(received.load(), static_cast<size_t>(kClients * 50));
  stop_clients.store(true);
  for (auto& t : clients) t.join();
}

TEST(ReactorConcurrency, ConnectionChurnUnderLoad) {
  // Threads connect, exchange a little traffic, and disconnect, racing the
  // loop's accept/close paths and the idle timer wheel.
  TcpListener listener(0);
  ReactorOptions opts;
  opts.idle_timeout_ms = 50;  // wheel churns while connections churn
  ReactorServer server(listener, opts, [](AsyncTcpLink& link) {
    AsyncTcpLink* l = &link;
    link.set_on_data([l](const uint8_t* d, size_t n) { l->send(d, n); });
  });

  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::atomic<int> round_trips{0};
  std::vector<std::thread> churners;
  churners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    churners.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        auto client = TcpLink::connect("127.0.0.1", server.port());
        size_t got = 0;
        client->set_on_data([&](const uint8_t*, size_t n) { got += n; });
        client->send("ping", 4);
        const auto deadline = std::chrono::steady_clock::now() + 2s;
        while (got < 4 && std::chrono::steady_clock::now() < deadline) {
          if (!client->pump(10)) break;
        }
        if (got >= 4) round_trips.fetch_add(1);
        // Half the rounds linger long enough for the idle reaper to act.
        if (i % 2 == 0) std::this_thread::sleep_for(60ms);
      }
    });
  }
  for (auto& t : churners) t.join();
  EXPECT_EQ(round_trips.load(), kThreads * kRounds);

  const auto deadline = std::chrono::steady_clock::now() + 3s;
  while (server.connections() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(server.connections(), 0u);
  const Reactor::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, stats.closed);
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kThreads * kRounds));
}

TEST(ReactorConcurrency, BackpressureStampede) {
  // Many publisher threads firehose every connection while the clients
  // refuse to read: every connection must die by backpressure (bounded
  // outbox), drops must be counted, and nothing may race or leak.
  TcpListener listener(0);
  std::mutex links_mutex;
  std::vector<std::shared_ptr<AsyncTcpLink>> links;
  ReactorOptions opts;
  opts.max_outbox_bytes = 16 * 1024;
  ReactorServer server(listener, opts, [&](AsyncTcpLink& link) {
    std::lock_guard<std::mutex> lock(links_mutex);
    links.push_back(link.shared());
  });

  constexpr int kConns = 6;
  std::vector<std::unique_ptr<TcpLink>> clients;  // never pumped: no reads
  clients.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    clients.push_back(TcpLink::connect("127.0.0.1", server.port()));
  }
  const auto accept_deadline = std::chrono::steady_clock::now() + 2s;
  while (server.connections() < kConns &&
         std::chrono::steady_clock::now() < accept_deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(server.connections(), static_cast<size_t>(kConns));

  auto payload = make_payload(4 * 1024, 0x5A);
  constexpr int kPublishers = 4;
  std::vector<std::thread> publishers;
  publishers.reserve(kPublishers);
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&] {
      for (int round = 0; round < 200; ++round) {
        std::vector<std::shared_ptr<AsyncTcpLink>> snapshot;
        {
          std::lock_guard<std::mutex> lock(links_mutex);
          snapshot = links;
        }
        for (auto& link : snapshot) link->send_shared(payload);
      }
    });
  }
  for (auto& t : publishers) t.join();

  // 4 publishers x 200 rounds x 4KB = 3.2MB per connection against a 16KB
  // outbox and unread sockets: every connection must be gone.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (server.connections() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server.connections(), 0u);
  const Reactor::Stats stats = server.stats();
  EXPECT_EQ(stats.backpressure_closes, static_cast<uint64_t>(kConns));
  EXPECT_GE(stats.send_drops, static_cast<uint64_t>(kConns));
  EXPECT_EQ(stats.closed, static_cast<uint64_t>(kConns));
  // The shared payload's refcount drained back to our handle.
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(ReactorConcurrency, MixedOnLoopAndOffLoopSendersOnOneLink) {
  // Two senders share one link under load: its data handler replies on the
  // loop thread (which only marks the link dirty and sets flush_queued_),
  // while an outside thread sends to the same link and skips its posted
  // flush whenever an on-loop send got there first. Every frame must
  // arrive, in order per sender, and nothing may be stranded in the outbox
  // once both stop — a lost flush shows as frames that never come. The
  // last kTail off-loop frames go out only after the rest has landed and
  // one final on-loop reply was flushed, so no later on-loop flush can
  // rescue them.
  constexpr uint64_t kLoopSender = 1;
  constexpr uint64_t kThreadSender = 2;
  constexpr uint32_t kLoopFrames = 1500;
  constexpr uint32_t kThreadFrames = 1500;
  constexpr uint32_t kTail = 20;
  constexpr size_t kPad = 60;  // payload: 4-byte sequence number + padding

  auto frame_for = [](uint64_t sender, uint32_t seq) {
    uint8_t payload[4 + kPad] = {};
    std::memcpy(payload, &seq, 4);
    std::memset(payload + 4, static_cast<int>(sender + seq), kPad);
    ByteBuffer out;
    write_frame(out, FrameType::kData, payload, sizeof payload, sender);
    return out;
  };

  TcpListener listener(0);
  std::mutex end_mutex;
  std::shared_ptr<AsyncTcpLink> server_end;
  ReactorServer server(listener, ReactorOptions{}, [&](AsyncTcpLink& link) {
    AsyncTcpLink* l = &link;
    // One reply frame per inbound byte; seq is loop-thread state.
    link.set_on_data([l, &frame_for, seq = uint32_t{0}](const uint8_t*, size_t n) mutable {
      for (size_t i = 0; i < n; ++i) l->send(frame_for(kLoopSender, seq++));
    });
    std::lock_guard<std::mutex> lock(end_mutex);
    server_end = link.shared();
  });

  auto client = TcpLink::connect("127.0.0.1", server.port());
  FrameAssembler assembler;
  uint32_t next_seq[3] = {0, 0, 0};
  size_t frames = 0;
  size_t bytes = 0;
  bool in_order = true;
  client->set_on_data([&](const uint8_t* d, size_t n) {
    bytes += n;
    assembler.feed(d, n, [&](Frame& f) {
      uint32_t seq = 0;
      std::memcpy(&seq, f.payload.data(), 4);
      const uint64_t sender = f.trace_id;
      if (sender != kLoopSender && sender != kThreadSender) {
        in_order = false;
        return;
      }
      const ByteBuffer expect = frame_for(sender, next_seq[sender]);
      if (seq != next_seq[sender] || f.payload.size() != 4 + kPad ||
          std::memcmp(f.payload.data() + 4, expect.data() + expect.size() - kPad, kPad) != 0) {
        in_order = false;
      }
      ++next_seq[sender];
      ++frames;
    });
  });

  const auto accept_deadline = std::chrono::steady_clock::now() + 2s;
  std::shared_ptr<AsyncTcpLink> end;
  while (!end && std::chrono::steady_clock::now() < accept_deadline) {
    std::this_thread::sleep_for(1ms);
    std::lock_guard<std::mutex> lock(end_mutex);
    end = server_end;
  }
  ASSERT_TRUE(end);

  std::atomic<bool> tail_go{false};
  std::thread off_loop([&] {
    for (uint32_t seq = 0; seq < kThreadFrames; ++seq) {
      if (seq == kThreadFrames - kTail) {
        while (!tail_go.load()) std::this_thread::sleep_for(1ms);
      }
      end->send(frame_for(kThreadSender, seq));
      if (seq % 64 == 0) std::this_thread::yield();
    }
  });
  // Triggers go out in small bursts, interleaved with reads, so on-loop
  // replies and off-loop sends keep overlapping on the outbox.
  const uint8_t burst[10] = {};
  for (uint32_t sent = 0; sent + 1 < kLoopFrames; sent += sizeof burst) {
    client->send(burst, std::min<size_t>(sizeof burst, kLoopFrames - 1 - sent));
    client->pump(0);
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  auto pump_until = [&](uint32_t loop_frames, uint32_t thread_frames) {
    while ((next_seq[kLoopSender] < loop_frames || next_seq[kThreadSender] < thread_frames) &&
           std::chrono::steady_clock::now() < deadline) {
      if (!client->pump(20)) break;
    }
  };
  pump_until(kLoopFrames - 1, kThreadFrames - kTail);
  client->send(burst, 1);
  pump_until(kLoopFrames, kThreadFrames - kTail);
  tail_go.store(true);
  off_loop.join();

  const size_t frame_bytes = frame_for(kLoopSender, 0).size();
  const size_t expect_frames = kLoopFrames + kThreadFrames;
  pump_until(kLoopFrames, kThreadFrames);
  EXPECT_TRUE(in_order);
  EXPECT_EQ(frames, expect_frames);
  EXPECT_EQ(next_seq[kLoopSender], kLoopFrames);
  EXPECT_EQ(next_seq[kThreadSender], kThreadFrames);
  EXPECT_EQ(bytes, expect_frames * frame_bytes);
  EXPECT_EQ(end->outbox_bytes(), 0u);
  EXPECT_EQ(server.stats().send_drops, 0u);
}

}  // namespace
}  // namespace morph::transport
