// Reactor transport tests: the epoll event loop, AsyncTcpLink semantics
// (batched reads, write backpressure, idle timeouts, admission caps,
// accepting at the fd limit), the byte-identity differential against a
// blocking TcpLink server, the EchoTcpNode serving shell (checked against
// its golden reply stream), verification of peer transforms at a node's
// port, and one thread per reactor-served server.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <ctime>
#include <filesystem>
#include <functional>
#include <iterator>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "echo/node.hpp"
#include "fmtsvc/server.hpp"
#include "golden.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pbio/record.hpp"
#include "transport/framing.hpp"
#include "transport/port.hpp"
#include "transport/reactor.hpp"
#include "transport/stats_endpoint.hpp"
#include "transport/tcp.hpp"
#include "transport/telemetry_endpoint.hpp"

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

/// Byte echo: whatever arrives goes straight back.
void serve_echo(AsyncTcpLink& link) {
  AsyncTcpLink* l = &link;
  link.set_on_data([l](const uint8_t* d, size_t n) { l->send(d, n); });
}

/// Send `msg` over `link` and wait for the byte-echo server to return it.
bool echoes(TcpLink& link, const std::string& msg) {
  std::string got;
  link.set_on_data([&](const uint8_t* d, size_t n) {
    got.append(reinterpret_cast<const char*>(d), n);
  });
  link.send(msg.data(), msg.size());
  const bool ok = pump_until(link, [&] { return got.size() >= msg.size(); }) && got == msg;
  link.set_on_data({});
  return ok;
}

TEST(Reactor, EchoRoundTripAndBatchedDelivery) {
  TcpListener listener(0);
  ReactorOptions opts;
  ReactorServer server(listener, opts, serve_echo);

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
  EXPECT_TRUE(echoes(*good, "ok"));
  EXPECT_EQ(server.stats().bad_callbacks, 1u);
}

/// Deterministic bytes that show a lost or reordered byte.
std::string pattern_bytes(size_t n) {
  std::string out(n, '\0');
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<char>(i * 31 + (i >> 9));
  return out;
}

/// Everything `link` reads up to the peer's FIN; nullopt on a reset or
/// when no FIN comes within ~5s.
std::optional<std::string> read_to_eof(TcpLink& link) {
  std::string got;
  link.set_on_data([&](const uint8_t* d, size_t n) {
    got.append(reinterpret_cast<const char*>(d), n);
  });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  try {
    while (link.pump(100)) {
      if (std::chrono::steady_clock::now() > deadline) return std::nullopt;
    }
  } catch (const TransportError&) {
    return std::nullopt;  // ECONNRESET
  }
  return got;
}

TEST(Reactor, CloseDeliversQueuedBytesBeforeFin) {
  // A reply far larger than the socket buffers, then close(): the outbox
  // keeps draining after the close, so a reader that starts late still
  // gets every byte, then EOF. Only then is the connection torn down.
  const std::string reply = pattern_bytes(4'000'000);
  TcpListener listener(0);
  ReactorServer server(listener, ReactorOptions{}, [&](AsyncTcpLink& link) {
    link.send(reply.data(), reply.size());
    link.close();
  });
  auto client = TcpLink::connect("127.0.0.1", server.port());
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(server.connections(), 1u);  // draining keeps its slot
  const std::optional<std::string> got = read_to_eof(*client);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), reply.size());
  EXPECT_TRUE(*got == reply);
  EXPECT_EQ(server.connections(), 0u);
  EXPECT_EQ(server.stats().closed, 1u);
  EXPECT_EQ(server.stats().send_drops, 0u);
}

TEST(Reactor, CloseDiscardsLaterInboundAndEndsWithFin) {
  // The peer keeps sending after the server's close(). Those bytes reach
  // no callback; they are read and dropped, so the socket is closed with
  // nothing unread and the peer sees the whole reply and a FIN, not a
  // reset.
  const std::string reply = pattern_bytes(4'000'000);
  std::atomic<size_t> delivered{0};
  TcpListener listener(0);
  ReactorServer server(listener, ReactorOptions{}, [&](AsyncTcpLink& link) {
    AsyncTcpLink* l = &link;
    link.set_on_data([&, l](const uint8_t*, size_t n) {
      if (delivered.fetch_add(n) + n < 4) return;
      l->send(reply.data(), reply.size());
      l->close();
    });
  });
  auto client = TcpLink::connect("127.0.0.1", server.port());
  client->send("ping", 4);
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (delivered.load() < 4 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(delivered.load(), 4u);
  // The reply is still draining (the client has read nothing yet).
  const std::string junk(64 * 1024, 'j');
  for (int i = 0; i < 4; ++i) ASSERT_NO_THROW(client->send(junk.data(), junk.size()));
  std::this_thread::sleep_for(50ms);
  const std::optional<std::string> got = read_to_eof(*client);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), reply.size());
  EXPECT_TRUE(*got == reply);
  EXPECT_EQ(delivered.load(), 4u);
  EXPECT_EQ(server.stats().closed, 1u);
}

TEST(Reactor, ConnectionChurnSettlesToZero) {
  TcpListener listener(0);
  ReactorServer server(listener, ReactorOptions{}, serve_echo);

  constexpr int kConns = 64;
  for (int i = 0; i < kConns; ++i) {
    auto client = TcpLink::connect("127.0.0.1", server.port());
    ASSERT_TRUE(echoes(*client, "hi"));
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

TEST(Reactor, ConnectStormAdmitsExactlyTheCap) {
  // Clients arrive back to back, faster than the loop accepts them, so one
  // accept pass sees many queued at once: admission must still stop at the
  // cap, not at the cap plus whatever was queued.
  constexpr size_t kCap = 8;
  constexpr size_t kClients = 32;
  TcpListener listener(0);
  ReactorOptions opts;
  opts.max_connections = kCap;
  ReactorServer server(listener, opts, [](AsyncTcpLink&) {});

  std::vector<std::unique_ptr<TcpLink>> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.push_back(TcpLink::connect("127.0.0.1", server.port()));
  }
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (server.stats().accepted + server.refused() < kClients &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_EQ(server.stats().accepted, kCap);
  EXPECT_EQ(server.refused(), kClients - kCap);
  EXPECT_EQ(server.connections(), kCap);
}

/// Runs in a forked child (the descriptor limit is per process). Returns 0
/// on success, else the number of the step that failed.
int accept_at_fd_limit() {
  TcpListener listener(0);
  ReactorServer server(listener, ReactorOptions{}, serve_echo);
  auto kept = TcpLink::connect("127.0.0.1", server.port());
  auto freed = TcpLink::connect("127.0.0.1", server.port());
  if (!echoes(*kept, "a") || !echoes(*freed, "b")) return 1;

  // Lower the limit to two past the highest open descriptor, fill every
  // free slot below it, and give the last one to the queued client: the
  // server's accept4 for that client then fails with EMFILE.
  int top = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    top = std::max(top, std::stoi(entry.path().filename().string()));
  }
  rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 2;
  rl.rlim_cur = static_cast<rlim_t>(top) + 2;
  if (::setrlimit(RLIMIT_NOFILE, &rl) != 0) return 2;
  int last = -1;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC)) >= 0;) last = fd;
  if (errno != EMFILE || last < 0) return 2;
  ::close(last);
  auto queued = TcpLink::connect("127.0.0.1", server.port());

  // At the limit the server sleeps between retries rather than spinning on
  // the readable listener, and the client stays queued.
  const std::clock_t cpu_before = std::clock();
  std::this_thread::sleep_for(300ms);
  const double cpu_s = static_cast<double>(std::clock() - cpu_before) / CLOCKS_PER_SEC;
  if (server.stats().accepted != 2 || cpu_s > 0.1) return 3;

  // The accepted connection keeps echoing.
  if (!echoes(*kept, "still here")) return 4;

  // Half-closing a client makes the server close its end, which frees one
  // server-side descriptor (the client's own stays open); the queued client
  // gets it.
  ::shutdown(freed->fd(), SHUT_WR);
  if (!echoes(*queued, "q") || server.stats().accepted != 3) return 5;
  return 0;
}

TEST(Reactor, AcceptAtFdLimitWaitsForAFreedDescriptor) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ::_exit(accept_at_fd_limit());
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "failed step in accept_at_fd_limit()";
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
  // The chunk a failed send leaves in the outbox counts as a drop too.
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
  EXPECT_EQ(pl.loop.stats().send_drops, 1u);  // "doomed"

  pl.trigger(handled);
  EXPECT_FALSE(pl.links[2]->connected());
  EXPECT_EQ(pl.close_count(*pl.links[2]), 1);
  EXPECT_EQ(pl.loop.stats().send_drops, 3u);  // the big chunk and "after"

  pl.links[1]->send("x", 1);
  pl.links[2]->send("y", 1);
  pl.run_on_loop([] {});
  EXPECT_EQ(pl.loop.stats().send_drops, 5u);
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

TEST(EchoNode, ScrapeDuringTrafficIsRaceFree) {
  // The node's loop thread bumps the counters of its ports, receivers,
  // process and publisher while this thread's subscriber bumps its own and
  // a scraper thread snapshots them all. Run under TSan, this referees
  // every counter the scrape reads from a live instance.
  EchoTcpNode node("creator");
  auto fmt = reading_format();
  node.with_process([&fmt](EchoProcess& p) {
    p.create_channel("out");
    p.on_event("in", fmt, [&p, fmt](const Event& ev) {
      p.publish("out", fmt, ev.delivery->record);
    });
  });

  auto link = transport::TcpLink::connect("127.0.0.1", node.port());
  EchoProcess sub("sub", EchoVersion::kV2);
  sub.attach_link(*link);
  int received = 0;
  sub.on_event("out", fmt, [&](const Event&) { ++received; });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  for (;;) {
    ASSERT_TRUE(link->pump(20));
    try {
      sub.open_channel("out", "creator", /*source=*/false, /*sink=*/true);
      break;
    } catch (const Error&) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "creator HELLO never arrived";
    }
  }
  while (sub.members("out").empty() && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(link->pump(20));
  }
  ASSERT_EQ(sub.members("out").size(), 1u);

  // Traffic starts after the scraper's first snapshot; the scraper keeps
  // reading until the last relayed event has arrived.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::latch scraping(1);
  std::thread scraper([&] {
    do {
      EXPECT_FALSE(obs::metrics().snapshot().counters.empty());
      if (scrapes.fetch_add(1, std::memory_order_relaxed) == 0) scraping.count_down();
    } while (!stop.load(std::memory_order_relaxed));
  });
  scraping.wait();

  // A bare port injects events; the node relays each one to "out".
  constexpr int kEvents = 200;
  auto in_link = transport::TcpLink::connect("127.0.0.1", node.port());
  transport::MessagePort in_port(*in_link, nullptr);
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  pbio::RecordRef(rec, fmt).set_int("station", 4);
  for (int i = 0; i < kEvents; ++i) in_port.send_record(fmt, rec);
  while (received < kEvents && std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(link->pump(20));
  }
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_EQ(received, kEvents);
}

// ---------------------------------------------------------------------------
// The trust boundary at the port: Ecode a peer ships with its format
// definitions is verified before a process with default receiver options
// compiles it, on the JIT and on the VM (MORPH_DISABLE_JIT=1) alike.

FormatPtr tick_rev(int rev) {
  FormatBuilder b("Tick");
  b.add_int("seq", rev == 0 ? 4 : 8).add_float("v", 8);
  if (rev >= 1) b.add_int("extra1", 4);
  return b.build();
}

/// A v1 node subscribed to Tick rev0 events, and a peer publishing to it
/// over TCP through a bare port (no channel protocol).
struct UntrustedPeer {
  std::vector<std::pair<int64_t, double>> events;  // loop thread only; outlives the node
  EchoTcpNode node{"node", [] {
                     NodeOptions o;
                     o.version = EchoVersion::kV1;
                     return o;
                   }()};
  std::unique_ptr<transport::TcpLink> link = transport::TcpLink::connect("127.0.0.1", node.port());
  transport::MessagePort port{*link, nullptr};

  UntrustedPeer() {
    node.with_process([this](EchoProcess& p) {
      p.on_event("ticks", tick_rev(0), [this](const Event& ev) {
        pbio::RecordRef r(ev.delivery->record, ev.delivery->format);
        events.emplace_back(r.get_int("seq"), r.get_float("v"));
      });
    });
  }

  /// Run `fn` on the node's loop until it returns true or ~3s elapse.
  bool wait_for(const std::function<bool(EchoProcess&)>& fn) {
    const auto deadline = std::chrono::steady_clock::now() + 3s;
    for (;;) {
      bool done = false;
      node.with_process([&](EchoProcess& p) { done = fn(p); });
      if (done) return true;
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(2ms);
    }
  }

  void send_tick(int rev, int64_t seq) {
    FormatPtr fmt = tick_rev(rev);
    RecordArena arena;
    void* rec = pbio::alloc_record(*fmt, arena);
    pbio::RecordRef r(rec, fmt);
    r.set_int("seq", seq);
    r.set_float("v", 0.5);
    if (rev >= 1) r.set_int("extra1", 0);
    port.send_record(fmt, rec);
  }
};

TEST(TrustBoundary, PortRejectsOutOfRangeTransformAndKeepsDelivering) {
  UntrustedPeer peer;
  auto& verify_rejected = obs::metrics().counter("morph_rx_verify_rejected_total");
  const uint64_t rejected_before = verify_rejected.value();

  // ChannelOpenResponse v2 -> v1 whose only statement reads far past the
  // member list. Compiled unverified, the morph of the first response
  // faults inside the receiver.
  core::TransformSpec hostile = response_v2_to_v1_spec();
  hostile.code = "old.member_count = new.member_list[100000000].ID;";
  peer.port.declare_transform(hostile);

  RecordArena arena;
  auto resp_fmt = channel_open_response_v2_format();
  auto* resp = static_cast<ChannelOpenResponseV2*>(pbio::alloc_record(*resp_fmt, arena));
  resp->channel = arena.copy_string("ticks");
  resp->member_count = 1;
  resp->member_list = static_cast<MemberEntryV2*>(
      pbio::alloc_dyn_array(arena, sizeof(MemberEntryV2), 1));
  resp->member_list[0].info = arena.copy_string("peer");
  resp->member_list[0].id = 1;
  peer.port.send_record(resp_fmt, resp);

  ASSERT_TRUE(peer.wait_for([](EchoProcess& p) { return p.receiver_totals().rejected == 1; }));
  peer.node.with_process([](EchoProcess& p) {
    EXPECT_EQ(p.receiver_totals().verify_rejected, 1u);
    EXPECT_EQ(p.receiver_totals().morphed, 0u);
    EXPECT_EQ(p.stats().responses_morphed, 0u);
  });
  EXPECT_EQ(verify_rejected.value() - rejected_before, 1u);

  // The rejection cost only that format: a later valid event is delivered.
  peer.send_tick(0, 7);
  ASSERT_TRUE(peer.wait_for([&](EchoProcess&) { return !peer.events.empty(); }));
  peer.node.with_process([&](EchoProcess& p) {
    EXPECT_EQ(peer.events, (std::vector<std::pair<int64_t, double>>{{7, 0.5}}));
    EXPECT_EQ(p.receiver_totals().verify_rejected, 1u);
  });
}

TEST(TrustBoundary, PortRunsUncertifiedLoopUnderFuel) {
  UntrustedPeer peer;
  // No termination certificate, and with extra1 == 0 the loop never ends
  // on its own: the verifier guards it with fuel, so the morph returns a
  // truncated record instead of hanging the node's only thread.
  core::TransformSpec spin;
  spin.src = tick_rev(1);
  spin.dst = tick_rev(0);
  spin.code =
      "old.seq = new.seq; old.v = 0;\n"
      "while (new.extra1 == 0) { old.v = old.v + 1; }";
  peer.port.declare_transform(spin);
  peer.send_tick(1, 9);

  ASSERT_TRUE(peer.wait_for([&](EchoProcess&) { return !peer.events.empty(); }));
  peer.node.with_process([&](EchoProcess& p) {
    ASSERT_EQ(peer.events.size(), 1u);
    EXPECT_EQ(peer.events[0].first, 9);
    EXPECT_GT(peer.events[0].second, 0.0);
    EXPECT_LE(peer.events[0].second, static_cast<double>(ecode::CompileOptions{}.fuel_limit));
    EXPECT_EQ(p.receiver_totals().morphed, 1u);
    EXPECT_EQ(p.receiver_totals().verify_rejected, 0u);
  });
}

// Every reactor-served server is one loop on one thread: constructing it
// adds exactly one thread to the process.
TEST(ServerThreads, EachServerRunsOneThread) {
  const auto thread_count = [] {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return std::distance(begin(tasks), end(tasks));
  };
  const auto expect_one_thread = [&](auto make) {
    const auto before = thread_count();
    auto server = make();
    EXPECT_EQ(thread_count(), before + 1);
    server.reset();
    // A joined thread can stay listed for a moment after join returns.
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (thread_count() > before && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
  };
  transport::TcpListener listener(0);
  expect_one_thread([&] {
    return std::make_unique<transport::ReactorServer>(listener, transport::ReactorOptions{},
                                                      [](transport::AsyncTcpLink&) {});
  });
  expect_one_thread([] { return std::make_unique<EchoTcpNode>("node"); });
  fmtsvc::FormatStore store;
  expect_one_thread([&] { return std::make_unique<fmtsvc::FormatService>(store); });
  expect_one_thread([] { return std::make_unique<transport::TelemetryCollector>(); });
  expect_one_thread([] { return std::make_unique<transport::StatsServer>(); });
}

}  // namespace
}  // namespace morph::echo
