// Reactor transport tests: the epoll event loop, AsyncTcpLink semantics
// (batched reads, write backpressure, idle timeouts, admission caps), the
// byte-identity differential against a blocking TcpLink server, and the
// EchoTcpNode serving shell (checked against its golden reply stream).
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "echo/node.hpp"
#include "golden.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pbio/record.hpp"
#include "transport/framing.hpp"
#include "transport/reactor.hpp"
#include "transport/tcp.hpp"

namespace morph::transport {
namespace {

using namespace std::chrono_literals;

/// Pump `link` until `done` returns true or ~2s elapse.
template <typename Pred>
bool pump_until(TcpLink& link, Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    if (!link.pump(20)) return done();
  }
  return true;
}

TEST(Reactor, EchoRoundTripAndBatchedDelivery) {
  TcpListener listener(0);
  ReactorOptions opts;
  ReactorServer server(listener, opts, [](AsyncTcpLink& link) {
    // Byte echo: whatever arrives goes straight back.
    AsyncTcpLink* l = &link;
    link.set_on_data([l](const uint8_t* d, size_t n) { l->send(d, n); });
  });

  auto client = TcpLink::connect("127.0.0.1", server.port());
  std::vector<uint8_t> got;
  client->set_on_data([&](const uint8_t* d, size_t n) { got.insert(got.end(), d, d + n); });

  // One small message round-trips.
  client->send("ping", 4);
  ASSERT_TRUE(pump_until(*client, [&] { return got.size() >= 4; }));
  EXPECT_EQ(std::string(got.begin(), got.end()), "ping");

  // A large burst (many frames' worth, bigger than one read batch) comes
  // back byte-identical: batched reads + outbox draining preserve order.
  got.clear();
  std::vector<uint8_t> blob(700 * 1024);
  for (size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<uint8_t>(i * 31 + 7);
  client->send(blob.data(), blob.size());
  ASSERT_TRUE(pump_until(*client, [&] { return got.size() >= blob.size(); }));
  EXPECT_EQ(got, blob);
  EXPECT_EQ(server.stats().accepted, 1u);
}

TEST(Reactor, FramesSurviveDribbleDelivery) {
  // A peer trickling one byte at a time must still assemble whole frames —
  // the reactor's ring + FrameAssembler handle every straddle.
  TcpListener listener(0);
  std::atomic<int> frames{0};
  std::atomic<size_t> payload_bytes{0};
  ReactorOptions opts;
  ReactorServer server(listener, opts, [&](AsyncTcpLink& link) {
    auto assembler = std::make_shared<FrameAssembler>();
    link.set_user(assembler);
    link.set_on_data([&, a = assembler.get()](const uint8_t* d, size_t n) {
      a->feed(d, n, [&](Frame& f) {
        frames.fetch_add(1);
        payload_bytes.fetch_add(f.payload.size());
      });
    });
  });

  auto client = TcpLink::connect("127.0.0.1", server.port());
  ByteBuffer out;
  write_frame(out, FrameType::kData, "dribbled-frame", 14, 77);
  write_frame(out, FrameType::kControl, "x", 1);
  for (size_t i = 0; i < out.size(); ++i) {
    client->send(out.data() + i, 1);
    std::this_thread::sleep_for(1ms);
  }
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (frames.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(frames.load(), 2);
  EXPECT_EQ(payload_bytes.load(), 15u);
}

TEST(Reactor, IdleTimeoutReapsDribblingPeer) {
  // Hostile peer: sends half a frame header and stalls forever. No frame
  // ever completes, so only the idle timeout can reclaim the connection.
  TcpListener listener(0);
  ReactorOptions opts;
  opts.idle_timeout_ms = 150;
  ReactorServer server(listener, opts, [](AsyncTcpLink& link) {
    auto assembler = std::make_shared<FrameAssembler>();
    link.set_user(assembler);
    link.set_on_data([a = assembler.get()](const uint8_t* d, size_t n) {
      a->feed(d, n, [](Frame&) {});
    });
  });

  auto client = TcpLink::connect("127.0.0.1", server.port());
  const uint8_t half_header[2] = {40, 0};  // length field split mid-way
  client->send(half_header, 2);

  // The server must close us; a healthy pump eventually reports EOF.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  bool reaped = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!client->pump(50)) {
      reaped = true;
      break;
    }
  }
  EXPECT_TRUE(reaped);
  EXPECT_EQ(server.stats().idle_timeouts, 1u);
  while (server.connections() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(server.connections(), 0u);
}

TEST(Reactor, ActivePeerSurvivesIdleTimeout) {
  // A peer that keeps sending — even slowly — must NOT be reaped.
  TcpListener listener(0);
  std::atomic<size_t> seen{0};
  ReactorOptions opts;
  opts.idle_timeout_ms = 400;  // generous margin over the 30ms send cadence
  ReactorServer server(listener, opts, [&](AsyncTcpLink& link) {
    link.set_on_data([&](const uint8_t*, size_t n) { seen.fetch_add(n); });
  });

  auto client = TcpLink::connect("127.0.0.1", server.port());
  for (int i = 0; i < 10; ++i) {
    client->send("k", 1);
    std::this_thread::sleep_for(30ms);  // a quarter of the timeout
  }
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (seen.load() < 10 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(seen.load(), 10u);
  EXPECT_EQ(server.stats().idle_timeouts, 0u);
  EXPECT_EQ(server.connections(), 1u);
}

TEST(Reactor, BackpressureOverflowClosesConnection) {
  // A peer that never reads while we keep writing must be closed once the
  // bounded outbox fills — bounded memory, counted, never an unbounded
  // buffer to a dead consumer.
  TcpListener listener(0);
  std::atomic<bool> accepted{false};
  std::shared_ptr<AsyncTcpLink> server_end;
  std::mutex end_mutex;
  ReactorOptions opts;
  opts.max_outbox_bytes = 32 * 1024;
  ReactorServer server(listener, opts, [&](AsyncTcpLink& link) {
    std::lock_guard<std::mutex> lock(end_mutex);
    server_end = link.shared();
    accepted.store(true);
  });

  auto client = TcpLink::connect("127.0.0.1", server.port());
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!accepted.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(accepted.load());

  // Pump shared payloads at a client that never reads: the kernel buffers
  // absorb some, then the outbox grows past its bound and the link dies.
  ByteBuffer payload_bytes;
  const std::vector<uint8_t> fill(8 * 1024, 0xEE);
  payload_bytes.append(fill.data(), fill.size());
  auto payload = std::make_shared<const ByteBuffer>(std::move(payload_bytes));
  std::shared_ptr<AsyncTcpLink> end;
  {
    std::lock_guard<std::mutex> lock(end_mutex);
    end = server_end;
  }
  for (int i = 0; i < 4096 && end->connected(); ++i) {
    end->send_shared(payload);
  }
  // The overflow latches immediately; the close itself lands on the loop.
  const auto close_deadline = std::chrono::steady_clock::now() + 2s;
  while (end->connected() && std::chrono::steady_clock::now() < close_deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_FALSE(end->connected());
  EXPECT_EQ(server.stats().backpressure_closes, 1u);
  EXPECT_GE(server.stats().send_drops, 1u);

  // Sends after close degrade to counted drops, never throw.
  const uint64_t drops_before = server.stats().send_drops;
  end->send("late", 4);
  EXPECT_GE(server.stats().send_drops, drops_before + 1);
}

TEST(Reactor, SendErrorDuringFlushClosesWithoutDeadlockingLoop) {
  // Regression: flush() used to call request_close() while holding
  // out_mutex_; on the loop thread that synchronously re-locked the same
  // non-recursive mutex in close_conn and deadlocked the entire loop.
  //
  // Drive the flush error branch deterministically: shutdown(SHUT_WR) on
  // the adopted socket latches a write-only failure (sendmsg gets EPIPE
  // while the read side stays quiet, so readv never sees the error first),
  // and sending from the loop thread makes the loop's end-of-iteration
  // flush run on the loop thread.
  int sv[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
  Reactor loop{ReactorOptions{}};
  std::shared_ptr<AsyncTcpLink> end;
  std::atomic<bool> adopted{false};
  std::mutex end_mutex;
  loop.set_on_accept([&](AsyncTcpLink& link) {
    std::lock_guard<std::mutex> lock(end_mutex);
    end = link.shared();
    adopted.store(true);
  });
  loop.adopt(sv[0]);
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!adopted.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(adopted.load());
  ::shutdown(sv[0], SHUT_WR);

  std::shared_ptr<AsyncTcpLink> conn;
  {
    std::lock_guard<std::mutex> lock(end_mutex);
    conn = end;
  }
  loop.post([conn] { conn->send("boom", 4); });

  // The connection dies from the send error...
  while (conn->connected() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_FALSE(conn->connected());
  EXPECT_EQ(loop.stats().closed, 1u);
  EXPECT_EQ(loop.connections(), 0u);

  // ...and the loop survives it: posted tasks still run.
  std::atomic<bool> alive{false};
  loop.post([&] { alive.store(true); });
  while (!alive.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(alive.load());
  ::close(sv[1]);
}

TEST(Reactor, ThrowingCallbackCostsOnlyItsConnection) {
  TcpListener listener(0);
  std::atomic<int> served{0};
  ReactorOptions opts;
  ReactorServer server(listener, opts, [&](AsyncTcpLink& link) {
    AsyncTcpLink* l = &link;
    link.set_on_data([&, l](const uint8_t* d, size_t n) {
      if (n > 0 && d[0] == 'X') throw TransportError("poisoned");
      served.fetch_add(1);
      l->send(d, n);
    });
  });

  auto bad = TcpLink::connect("127.0.0.1", server.port());
  auto good = TcpLink::connect("127.0.0.1", server.port());
  bad->send("X", 1);
  // The poisoned connection dies...
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  bool bad_closed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!bad->pump(20)) {
      bad_closed = true;
      break;
    }
  }
  EXPECT_TRUE(bad_closed);
  // ...while its neighbor keeps round-tripping.
  std::string got;
  good->set_on_data([&](const uint8_t* d, size_t n) {
    got.append(reinterpret_cast<const char*>(d), n);
  });
  good->send("ok", 2);
  ASSERT_TRUE(pump_until(*good, [&] { return got.size() >= 2; }));
  EXPECT_EQ(got, "ok");
  EXPECT_EQ(server.stats().bad_callbacks, 1u);
}

TEST(Reactor, ConnectionChurnSettlesToZero) {
  TcpListener listener(0);
  ReactorOptions opts;
  opts.loops = 2;
  ReactorServer server(listener, opts, [](AsyncTcpLink& link) {
    AsyncTcpLink* l = &link;
    link.set_on_data([l](const uint8_t* d, size_t n) { l->send(d, n); });
  });

  constexpr int kConns = 64;
  for (int i = 0; i < kConns; ++i) {
    auto client = TcpLink::connect("127.0.0.1", server.port());
    std::string got;
    client->set_on_data([&](const uint8_t* d, size_t n) {
      got.append(reinterpret_cast<const char*>(d), n);
    });
    client->send("hi", 2);
    ASSERT_TRUE(pump_until(*client, [&] { return got.size() >= 2; }));
  }  // client closes here
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (server.connections() > 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server.connections(), 0u);
  const Reactor::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, static_cast<uint64_t>(kConns));
  EXPECT_EQ(stats.closed, static_cast<uint64_t>(kConns));
}

TEST(Reactor, MaxConnectionsRefusesExtraClient) {
  constexpr size_t kCap = 3;
  TcpListener listener(0);
  ReactorOptions opts;
  opts.max_connections = kCap;
  ReactorServer server(listener, opts, [](AsyncTcpLink&) {});
  const uint64_t refused_before =
      obs::metrics().counter("morph_reactor_refused_total").value();

  std::vector<std::unique_ptr<TcpLink>> admitted;
  for (size_t i = 0; i < kCap; ++i) {
    admitted.push_back(TcpLink::connect("127.0.0.1", server.port()));
  }
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (server.stats().accepted < kCap && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(server.connections(), kCap);

  // Client N+1 is closed on accept: EOF, with nothing sent either way.
  auto extra = TcpLink::connect("127.0.0.1", server.port());
  EXPECT_FALSE(extra->pump(2000));
  EXPECT_EQ(server.refused(), 1u);
  EXPECT_EQ(obs::metrics().counter("morph_reactor_refused_total").value() - refused_before, 1u);
  EXPECT_EQ(server.stats().accepted, kCap);
  for (auto& link : admitted) EXPECT_TRUE(link->connected());
}

// ---------------------------------------------------------------------------
// Write coalescing: on-loop sends are gathered into one sendmsg per touched
// connection per loop pass, flushed early at Reactor::kFlushBytes. Asserted
// through the process-wide syscall counters, so each test keeps exactly one
// reactor busy while it measures.

uint64_t counter_value(const char* name) { return obs::metrics().counter(name).value(); }

/// One Reactor serving `n` socketpairs. links[i] is the reactor end of pair
/// i (adoption order), peers[i] the test's blocking end. on_close counts
/// closes per link.
struct PairedLoop {
  explicit PairedLoop(size_t n) : loop_owner(std::make_unique<Reactor>(ReactorOptions{})) {
    loop.set_on_accept([this](AsyncTcpLink& link) {
      std::lock_guard<std::mutex> lock(mutex);
      links.push_back(link.shared());
    });
    loop.set_on_close([this](AsyncTcpLink& link) {
      std::lock_guard<std::mutex> lock(mutex);
      ++closes[link.id()];
    });
    for (size_t i = 0; i < n; ++i) {
      int sv[2];
      EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, sv));
      reactor_fds.push_back(sv[0]);
      peers.push_back(sv[1]);
      loop.adopt(sv[0]);
    }
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (adopted() < n && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_EQ(adopted(), n);
    // Drain the adoption tasks' own flush passes before anyone snapshots a
    // counter.
    run_on_loop([] {});
  }
  ~PairedLoop() {
    loop_owner.reset();  // join the loop before the state its callbacks touch
    for (int fd : peers) ::close(fd);
  }

  size_t adopted() {
    std::lock_guard<std::mutex> lock(mutex);
    return links.size();
  }
  int close_count(const AsyncTcpLink& link) {
    std::lock_guard<std::mutex> lock(mutex);
    return closes[link.id()];
  }

  /// Run `fn` on the loop and wait until that iteration's tasks are done.
  void run_on_loop(std::function<void()> fn) {
    std::atomic<bool> ran{false};
    loop.post([&] {
      fn();
      ran.store(true);
    });
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (!ran.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_TRUE(ran.load());
  }

  /// Read exactly `n` bytes from peer `i`, or fewer if it hits EOF or 2s
  /// pass with nothing new.
  std::vector<uint8_t> read_peer(size_t i, size_t n) {
    std::vector<uint8_t> got;
    uint8_t buf[4096];
    while (got.size() < n) {
      pollfd pfd{peers[i], POLLIN, 0};
      if (::poll(&pfd, 1, 2000) <= 0) break;
      const ssize_t r = ::recv(peers[i], buf, std::min(sizeof buf, n - got.size()), 0);
      if (r <= 0) break;
      got.insert(got.end(), buf, buf + r);
    }
    return got;
  }

  /// True when peer `i` sees EOF within 2s (any bytes before it discarded).
  bool peer_sees_eof(size_t i) {
    uint8_t buf[4096];
    for (;;) {
      pollfd pfd{peers[i], POLLIN, 0};
      if (::poll(&pfd, 1, 2000) <= 0) return false;
      const ssize_t r = ::recv(peers[i], buf, sizeof buf, 0);
      if (r == 0) return true;
      if (r < 0) return false;
    }
  }

  /// Send one trigger byte to link 0 and wait for its handler to have run.
  void trigger(std::atomic<int>& handled) {
    const int before = handled.load();
    const uint8_t go = 'g';
    ASSERT_EQ(1, ::send(peers[0], &go, 1, 0));
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (handled.load() == before && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_GT(handled.load(), before);
    run_on_loop([] {});  // the handler's iteration, flush passes included, is over
  }

  std::mutex mutex;
  std::vector<std::shared_ptr<AsyncTcpLink>> links;
  std::map<uint64_t, int> closes;
  std::vector<int> reactor_fds;
  std::vector<int> peers;
  std::unique_ptr<Reactor> loop_owner;  // last: its loop uses the rest
  Reactor& loop = *loop_owner;
};

/// Deterministic frame bytes: `count` frames of `size` bytes, each filled
/// from (stream, index) so a lost or reordered byte shows.
std::vector<uint8_t> pattern_stream(size_t stream, size_t count, size_t size) {
  std::vector<uint8_t> out;
  out.reserve(count * size);
  for (size_t k = 0; k < count; ++k) {
    for (size_t b = 0; b < size; ++b) out.push_back(static_cast<uint8_t>(stream * 73 + k * 7 + b));
  }
  return out;
}

TEST(ReactorCoalescing, OneSendmsgPerTouchedConnectionPerDispatch) {
  // One dispatch on link 0 sends K small frames to each of M links: the
  // loop must gather them into at most one sendmsg per link, and every
  // peer must receive its exact stream in order.
  constexpr size_t kM = 4;
  constexpr size_t kK = 32;
  constexpr size_t kFrame = 100;  // K * kFrame stays well under kFlushBytes
  static_assert(kK * kFrame < Reactor::kFlushBytes);
  PairedLoop pl(kM + 1);
  std::atomic<int> handled{0};
  pl.run_on_loop([&] {
    pl.links[0]->set_on_data([&](const uint8_t*, size_t) {
      for (size_t m = 1; m <= kM; ++m) {
        const std::vector<uint8_t> bytes = pattern_stream(m, kK, kFrame);
        for (size_t k = 0; k < kK; ++k) pl.links[m]->send(bytes.data() + k * kFrame, kFrame);
      }
      handled.fetch_add(1);
    });
  });

  const uint64_t sendmsg_before = counter_value("morph_reactor_sendmsg_total");
  pl.trigger(handled);
  for (size_t m = 1; m <= kM; ++m) {
    EXPECT_EQ(pl.read_peer(m, kK * kFrame), pattern_stream(m, kK, kFrame)) << "peer " << m;
  }
  const uint64_t sendmsgs = counter_value("morph_reactor_sendmsg_total") - sendmsg_before;
  EXPECT_GE(sendmsgs, 1u);
  EXPECT_LE(sendmsgs, kM) << "more than one sendmsg per touched connection";
}

TEST(ReactorCoalescing, OutboxPastByteBoundFlushesMidBatch) {
  // A handler that enqueues far more than the bound to one link within one
  // dispatch must not hold it all until the batch ends: the outbox goes out
  // each time it reaches kFlushBytes, in order, byte for byte.
  constexpr size_t kFrame = 512;
  constexpr size_t kFrames = 5 * Reactor::kFlushBytes / kFrame;  // > 4x the bound
  PairedLoop pl(2);
  std::atomic<int> handled{0};
  std::atomic<uint64_t> sendmsg_in_handler{0};
  const std::vector<uint8_t> bytes = pattern_stream(1, kFrames, kFrame);
  pl.run_on_loop([&] {
    pl.links[0]->set_on_data([&](const uint8_t*, size_t) {
      const uint64_t before = counter_value("morph_reactor_sendmsg_total");
      for (size_t k = 0; k < kFrames; ++k) pl.links[1]->send(bytes.data() + k * kFrame, kFrame);
      sendmsg_in_handler.store(counter_value("morph_reactor_sendmsg_total") - before);
      handled.fetch_add(1);
    });
  });

  const uint64_t sendmsg_before = counter_value("morph_reactor_sendmsg_total");
  pl.trigger(handled);
  EXPECT_EQ(pl.read_peer(1, bytes.size()), bytes);
  const uint64_t sendmsgs = counter_value("morph_reactor_sendmsg_total") - sendmsg_before;
  EXPECT_GT(sendmsg_in_handler.load(), 1u) << "no flush inside the batch";
  EXPECT_GT(sendmsgs, 1u);
  EXPECT_LT(sendmsgs, kFrames) << "bound flushes must still gather many frames";
}

TEST(ReactorCoalescing, PostedTaskSendFlushesInSameIteration) {
  // A send from a posted task must leave in the iteration that ran the
  // task. Nothing else happens on the loop afterwards — no wakeup, and the
  // socket was writable all along so no EPOLLOUT edge either — so bytes
  // deferred to "later" would never arrive.
  PairedLoop pl(1);
  const uint64_t sendmsg_before = counter_value("morph_reactor_sendmsg_total");
  const uint64_t wakeups_before = counter_value("morph_reactor_wakeups_total");
  pl.loop.post([&] {
    pl.links[0]->send("from-task", 9);
    pl.links[0]->send("+more", 5);
  });
  const std::vector<uint8_t> got = pl.read_peer(0, 14);
  EXPECT_EQ(std::string(got.begin(), got.end()), "from-task+more");
  EXPECT_EQ(counter_value("morph_reactor_sendmsg_total") - sendmsg_before, 1u);
  EXPECT_EQ(counter_value("morph_reactor_wakeups_total") - wakeups_before, 1u);
}

TEST(ReactorCoalescing, SendThenCloseInHandlerDeliversBytesBeforeEof) {
  // request_close from a handler while the target sits on the dirty list:
  // the bytes it was already sent still leave ahead of the FIN, its stale
  // dirty entry is skipped, on_close fires once, and later sends are
  // counted drops.
  PairedLoop pl(3);
  std::atomic<int> handled{0};
  pl.run_on_loop([&] {
    pl.links[0]->set_on_data([&](const uint8_t*, size_t) {
      if (handled.load() == 0) {
        pl.links[1]->send("bye", 3);
        pl.links[1]->close();
        pl.links[1]->send("late", 4);  // dropped: the link is closed
      }
      pl.links[2]->send("alive", 5);
      handled.fetch_add(1);
    });
  });

  pl.trigger(handled);
  const std::vector<uint8_t> got = pl.read_peer(1, 3);
  EXPECT_EQ(std::string(got.begin(), got.end()), "bye");
  EXPECT_TRUE(pl.peer_sees_eof(1));
  EXPECT_FALSE(pl.links[1]->connected());
  EXPECT_EQ(pl.close_count(*pl.links[1]), 1);
  EXPECT_EQ(pl.loop.stats().send_drops, 1u);

  // The loop and its other links carry on; sends to the dead link from
  // any thread stay counted drops and never re-fire on_close.
  pl.links[1]->send("later", 5);
  pl.trigger(handled);
  const std::vector<uint8_t> alive = pl.read_peer(2, 10);
  EXPECT_EQ(std::string(alive.begin(), alive.end()), "alivealive");
  EXPECT_EQ(pl.close_count(*pl.links[1]), 1);
  EXPECT_EQ(pl.loop.stats().send_drops, 2u);
  EXPECT_EQ(pl.loop.stats().closed, 1u);
}

TEST(ReactorCoalescing, SendErrorOnDirtyLinkClosesOnceAndLaterSendsDrop) {
  // Peer-side failure while a link is on the dirty list (the socketpair +
  // SHUT_WR trick from SendErrorDuringFlushClosesWithoutDeadlockingLoop
  // latches EPIPE on the reactor end). First a small send that fails in the
  // end-of-batch flush, then on a second link a send past the bound that
  // fails mid-batch: the close lands while the link is still listed, the
  // rest of the handler's sends to it are dropped, and the pass skips it.
  PairedLoop pl(4);
  ::shutdown(pl.reactor_fds[1], SHUT_WR);
  ::shutdown(pl.reactor_fds[2], SHUT_WR);
  std::atomic<int> handled{0};
  const std::vector<uint8_t> big(Reactor::kFlushBytes, 0x5A);
  pl.run_on_loop([&] {
    pl.links[0]->set_on_data([&](const uint8_t*, size_t) {
      if (handled.load() == 0) {
        pl.links[1]->send("doomed", 6);
      } else {
        pl.links[2]->send(big.data(), big.size());  // at the bound: flushed, EPIPE
        pl.links[2]->send("after", 5);              // dropped
      }
      pl.links[3]->send("ok", 2);
      handled.fetch_add(1);
    });
  });

  pl.trigger(handled);
  EXPECT_FALSE(pl.links[1]->connected());
  EXPECT_EQ(pl.close_count(*pl.links[1]), 1);
  EXPECT_EQ(pl.loop.stats().send_drops, 0u);

  pl.trigger(handled);
  EXPECT_FALSE(pl.links[2]->connected());
  EXPECT_EQ(pl.close_count(*pl.links[2]), 1);
  EXPECT_EQ(pl.loop.stats().send_drops, 1u);

  pl.links[1]->send("x", 1);
  pl.links[2]->send("y", 1);
  pl.run_on_loop([] {});
  EXPECT_EQ(pl.loop.stats().send_drops, 3u);
  EXPECT_EQ(pl.close_count(*pl.links[1]), 1);
  EXPECT_EQ(pl.close_count(*pl.links[2]), 1);
  EXPECT_EQ(pl.loop.stats().closed, 2u);
  const std::vector<uint8_t> ok = pl.read_peer(3, 4);
  EXPECT_EQ(std::string(ok.begin(), ok.end()), "okok");
}

// ---------------------------------------------------------------------------
// Differential: byte-identical delivery across transport modes.

/// Scripted client exchange: send a deterministic mix of frames (tiny,
/// large, traced, byte-dribbled) and return the exact reply stream.
std::vector<uint8_t> run_scripted_exchange(uint16_t port) {
  auto client = TcpLink::connect("127.0.0.1", port);
  std::vector<uint8_t> replies;
  client->set_on_data([&](const uint8_t* d, size_t n) {
    replies.insert(replies.end(), d, d + n);
  });

  ByteBuffer script;
  std::vector<uint8_t> big(3000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<uint8_t>(i ^ (i >> 3));
  write_frame(script, FrameType::kData, "alpha", 5, 1);
  write_frame(script, FrameType::kData, big.data(), big.size(), 2);
  write_frame(script, FrameType::kControl, nullptr, 0);
  write_frame(script, FrameType::kData, "omega", 5, 0xFFFF);

  // Deliver with adversarial chunking: 1, 2, 3, ... byte slices.
  size_t off = 0;
  size_t step = 1;
  while (off < script.size()) {
    const size_t n = std::min(step++, script.size() - off);
    client->send(script.data() + off, n);
    off += n;
  }

  const size_t expected = script.size();  // echo server mirrors frame bytes
  EXPECT_TRUE(pump_until(*client, [&] { return replies.size() >= expected; }));
  return replies;
}

TEST(Reactor, DifferentialByteIdenticalWithThreadedPath) {
  // Frame-echo service in both modes: every completed frame is re-framed
  // and sent back. The reply byte streams must match exactly.
  auto serve_frame = [](Link& link) {
    auto assembler = std::make_shared<FrameAssembler>();
    Link* l = &link;
    link.set_on_data([l, assembler](const uint8_t* d, size_t n) {
      assembler->feed(d, n, [l](Frame& f) {
        ByteBuffer out;
        write_frame(out, f.type, f.payload.data(), f.payload.size(), f.trace_id);
        l->send(out);
      });
    });
  };

  // Reactor mode.
  std::vector<uint8_t> reactor_replies;
  {
    TcpListener listener(0);
    ReactorOptions opts;
    ReactorServer server(listener, opts, [&](AsyncTcpLink& link) { serve_frame(link); });
    reactor_replies = run_scripted_exchange(server.port());
  }

  // Threaded oracle: accept + pump on a dedicated thread.
  std::vector<uint8_t> threaded_replies;
  {
    TcpListener listener(0);
    std::atomic<bool> stop{false};
    std::thread serving([&] {
      auto conn = listener.accept(2000);
      if (!conn) return;
      serve_frame(*conn);
      try {
        while (!stop.load() && conn->pump(20)) {
        }
      } catch (const Error&) {
      }
    });
    threaded_replies = run_scripted_exchange(listener.port());
    stop.store(true);
    serving.join();
  }

  ASSERT_FALSE(reactor_replies.empty());
  EXPECT_EQ(reactor_replies, threaded_replies);
}

}  // namespace
}  // namespace morph::transport

// ---------------------------------------------------------------------------
// EchoTcpNode: the pub/sub process loop served over the reactor.

namespace morph::echo {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;
using namespace std::chrono_literals;

FormatPtr reading_format() {
  struct Reading {
    int32_t station;
    double value;
  };
  return FormatBuilder("NodeReading", sizeof(Reading))
      .add_int("station", 4, offsetof(Reading, station))
      .add_float("value", 8, offsetof(Reading, value))
      .build();
}

TEST(EchoNode, ChannelJoinPublishDeliver) {
  EchoTcpNode node("creator");
  node.with_process([](EchoProcess& p) { p.create_channel("sensors"); });

  // A remote subscriber over a real socket.
  auto link = transport::TcpLink::connect("127.0.0.1", node.port());
  EchoProcess sub("sub", EchoVersion::kV2);
  sub.attach_link(*link);

  auto fmt = reading_format();
  int received = 0;
  sub.on_event("sensors", fmt, [&](const Event& ev) {
    EXPECT_EQ(pbio::RecordRef(ev.delivery->record, ev.delivery->format).get_int("station"), 9);
    ++received;
  });

  // The node's HELLO must land before we can route by its contact name.
  const auto deadline = std::chrono::steady_clock::now() + 3s;
  for (;;) {
    ASSERT_TRUE(link->pump(20));
    try {
      sub.open_channel("sensors", "creator", /*source=*/false, /*sink=*/true);
      break;
    } catch (const Error&) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "creator HELLO never arrived";
    }
  }
  while (sub.members("sensors").empty() && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(link->pump(20));
  }
  ASSERT_EQ(sub.members("sensors").size(), 1u);
  EXPECT_EQ(node.connections(), 1u);

  // Publish from the node (the serving side is also a source here).
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  pbio::RecordRef r(rec, fmt);
  r.set_int("station", 9);
  r.set_float("value", 3.5);
  size_t sent = 0;
  const auto publish_deadline = std::chrono::steady_clock::now() + 3s;
  while (sent == 0 && std::chrono::steady_clock::now() < publish_deadline) {
    sent = node.publish("sensors", fmt, rec);  // 0 until the EVTSUB arrives
    link->pump(10);
  }
  EXPECT_EQ(sent, 1u);
  while (received == 0 && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(link->pump(20));
  }
  EXPECT_EQ(received, 1);
}

TEST(EchoNode, V1SubscriberMorphsNodeResponses) {
  // The paper's evolution scenario through the serving shell: a v2 node,
  // a v1 subscriber — the v2 open-response must morph at the subscriber.
  NodeOptions opts;
  opts.version = EchoVersion::kV2;
  EchoTcpNode node("creator", opts);
  node.with_process([](EchoProcess& p) { p.create_channel("remote"); });

  auto link = transport::TcpLink::connect("127.0.0.1", node.port());
  EchoProcess old_sub("old-sub", EchoVersion::kV1);
  old_sub.attach_link(*link);

  const auto deadline = std::chrono::steady_clock::now() + 3s;
  for (;;) {
    ASSERT_TRUE(link->pump(20));
    try {
      old_sub.open_channel("remote", "creator", true, true);
      break;
    } catch (const Error&) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "creator HELLO never arrived";
    }
  }
  while (old_sub.members("remote").empty() && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(link->pump(20));
  }
  ASSERT_EQ(old_sub.members("remote").size(), 1u);
  EXPECT_EQ(old_sub.members("remote")[0].contact, "old-sub");
  EXPECT_EQ(old_sub.stats().responses_morphed, 1u);
}

TEST(EchoNode, ReplyBytesMatchGolden) {
  // The ChannelJoinPublishDeliver exchange as raw bytes: a v2 subscriber's
  // HELLO, channel-open request and event subscription go in; the node's
  // HELLO, open-response and one published event must come back exactly
  // as recorded.
  obs::set_tracing(false);  // trace headers would change the frames
  EchoTcpNode node("creator");
  node.with_process([](EchoProcess& p) { p.create_channel("sensors"); });
  auto fmt = reading_format();
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  pbio::RecordRef r(rec, fmt);
  r.set_int("station", 9);
  r.set_float("value", 3.5);
  bool published = false;
  golden::check("echo_node_join_publish", node.port(), [&] {
    // 0 until the subscription has been processed; then exactly once.
    if (!published) published = node.publish("sensors", fmt, rec) == 1;
  });
  EXPECT_TRUE(published);
}

}  // namespace
}  // namespace morph::echo
