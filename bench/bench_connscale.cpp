// Connection scale: one receiver process driven by thousands of concurrent
// peers, every socket on one ReactorServer loop that also accepts them.
//
// The parent forks, per row, one receiver child (its own RSS high-water
// mark) and up to 4 driver children (own fd tables — RLIMIT_NOFILE caps a
// single process well below 2x10k sockets). Drivers connect every peer
// first (a connect storm the loop accepts), handshake over pipes, then
// blast `events` length-prefixed kData frames per connection. us/event is
// first-to-last frame at the receiver. The sends are unpaced, so a
// send-to-dispatch time would be queue depth, not latency. Drivers hold
// every connection open until the receiver has counted all expected
// frames, so the concurrency level is sustained across the whole window —
// the receiver verifies it (live connections == row conns) and the bench
// exits non-zero on any conservation failure.
//
// MORPH_BENCH_MAX_CONNS caps the sweep (e.g. 1000 keeps only the 1k row)
// for CI smoke runs; the smallest row always survives.
// MORPH_CONNSCALE_RX_DUMP=PATH makes the receiver dump its obs registry
// (morph_reactor_* gauges/histograms) as JSON for morph-stat.
#include "bench_support.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "transport/framing.hpp"
#include "transport/reactor.hpp"
#include "transport/tcp.hpp"

namespace {

using namespace morph;
using namespace morph::bench;
using namespace std::chrono_literals;

constexpr size_t kEventBytes = 64;
constexpr size_t kDriverChunk = 2500; // conns per driver child (fd headroom)
constexpr double kDeadlineSec = 180.0;

uint64_t mono_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

bool write_full(int fd, const void* buf, size_t n) {
  const auto* p = static_cast<const uint8_t*>(buf);
  while (n > 0) {
    ssize_t w = ::write(fd, p, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool read_full(int fd, void* buf, size_t n) {
  auto* p = static_cast<uint8_t*>(buf);
  while (n > 0) {
    ssize_t r = ::read(fd, p, n);
    if (r <= 0) {
      if (r < 0 && errno == EINTR) continue;
      return false;
    }
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

/// Shipped back from the receiver child over its pipe.
struct RxResult {
  double us_per_event = 0;
  double rss_mb = 0;
  uint64_t received = 0;
  uint64_t expected = 0;
  uint64_t live_conns = 0;  // concurrent connections at completion
  int32_t ok = 0;
};

/// Frame counter and first/last arrival times, written by the loop thread
/// and read by the waiting one.
struct FrameSink {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> t_first{0};
  std::atomic<uint64_t> t_last{0};

  void on_frame() {
    const uint64_t now = mono_ns();
    if (count.load(std::memory_order_relaxed) == 0) t_first.store(now, std::memory_order_relaxed);
    t_last.store(now, std::memory_order_relaxed);
    count.fetch_add(1, std::memory_order_release);
  }

  double us_per_event() const {
    const uint64_t n = count.load();
    if (n == 0) return 0;
    return static_cast<double>(t_last.load() - t_first.load()) / 1e3 /
           static_cast<double>(n);
  }
};

RxResult receiver(transport::TcpListener& listener, uint64_t conns, int events) {
  const uint64_t expected = conns * static_cast<uint64_t>(events);
  FrameSink sink;
  transport::ReactorServer server(listener, transport::ReactorOptions{},
                                  [&sink](transport::AsyncTcpLink& link) {
    auto assembler = std::make_shared<transport::FrameAssembler>();
    link.set_user(assembler);
    link.set_on_data([&sink, a = assembler.get()](const uint8_t* d, size_t n) {
      a->feed(d, n, [&sink](transport::Frame&) { sink.on_frame(); });
    });
  });
  Stopwatch guard;
  while (sink.count.load(std::memory_order_acquire) < expected &&
         guard.elapsed_seconds() < kDeadlineSec) {
    std::this_thread::sleep_for(2ms);
  }
  RxResult res;
  res.received = sink.count.load();
  res.expected = expected;
  res.live_conns = server.connections();
  res.us_per_event = sink.us_per_event();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  res.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  res.ok = res.received == expected ? 1 : 0;
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once, loop quiescent
  const char* dump = std::getenv("MORPH_CONNSCALE_RX_DUMP");
  if (dump != nullptr && dump[0] != '\0') {
    std::ofstream out(dump);
    out << obs::to_json(obs::MetricsRegistry::global().snapshot(), obs::recent_spans());
  }
  return res;
}

/// Driver child: connect `conns` peers, signal ready, wait for go, send
/// `events` frames per connection, signal done, then hold every
/// connection open until the parent's exit byte (so receiver-side
/// concurrency is sustained through the whole measured window).
void run_driver(uint16_t port, size_t conns, int events, int ready_fd, int go_fd) {
  std::vector<std::unique_ptr<transport::TcpLink>> links;
  links.reserve(conns);
  for (size_t i = 0; i < conns; ++i) {
    links.push_back(transport::TcpLink::connect("127.0.0.1", port));
  }
  uint8_t byte = 1;
  if (!write_full(ready_fd, &byte, 1) || !read_full(go_fd, &byte, 1)) return;

  ByteBuffer frame;
  uint8_t payload[kEventBytes];
  std::memset(payload, 0x42, sizeof payload);
  transport::write_frame(frame, transport::FrameType::kData, payload, sizeof payload);
  for (int e = 0; e < events; ++e) {
    for (auto& link : links) link->send(frame.data(), frame.size());
  }
  byte = 2;
  if (!write_full(ready_fd, &byte, 1)) return;
  read_full(go_fd, &byte, 1);  // parent's exit byte; EOF works too
}

struct DriverPipes {
  pid_t pid = -1;
  int ready = -1;  // driver -> parent: connected byte, then done byte
  int go = -1;     // parent -> driver: go byte, then exit byte
};

RxResult run_row(size_t conns, int events) {
  RxResult fail;  // ok == 0
  int rx_pipe[2];
  if (::pipe(rx_pipe) != 0) return fail;

  const pid_t rx_pid = ::fork();
  if (rx_pid == 0) {
    ::close(rx_pipe[0]);
    RxResult res;
    try {
      transport::TcpListener listener(0);
      const uint16_t port = listener.port();
      write_full(rx_pipe[1], &port, sizeof port);
      res = receiver(listener, conns, events);
    } catch (...) {
      res.ok = 0;
    }
    write_full(rx_pipe[1], &res, sizeof res);
    std::_Exit(0);
  }
  ::close(rx_pipe[1]);

  uint16_t port = 0;
  if (!read_full(rx_pipe[0], &port, sizeof port)) {
    ::close(rx_pipe[0]);
    ::waitpid(rx_pid, nullptr, 0);
    return fail;
  }

  std::vector<DriverPipes> drivers;
  size_t remaining = conns;
  while (remaining > 0) {
    const size_t share = std::min(remaining, kDriverChunk);
    remaining -= share;
    int ready_pipe[2];
    int go_pipe[2];
    if (::pipe(ready_pipe) != 0 || ::pipe(go_pipe) != 0) break;
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(rx_pipe[0]);
      ::close(ready_pipe[0]);
      ::close(go_pipe[1]);
      for (const DriverPipes& d : drivers) {
        ::close(d.ready);
        ::close(d.go);
      }
      try {
        run_driver(port, share, events, ready_pipe[1], go_pipe[0]);
      } catch (...) {
        std::_Exit(1);
      }
      std::_Exit(0);
    }
    ::close(ready_pipe[1]);
    ::close(go_pipe[0]);
    drivers.push_back(DriverPipes{pid, ready_pipe[0], go_pipe[1]});
  }

  // All drivers connected -> fire the go byte everywhere at once.
  uint8_t byte = 0;
  bool sync_ok = drivers.size() == (conns + kDriverChunk - 1) / kDriverChunk;
  for (const DriverPipes& d : drivers) sync_ok = read_full(d.ready, &byte, 1) && sync_ok;
  for (const DriverPipes& d : drivers) sync_ok = write_full(d.go, &byte, 1) && sync_ok;
  for (const DriverPipes& d : drivers) sync_ok = read_full(d.ready, &byte, 1) && sync_ok;

  // Receiver reports while every driver still holds its connections open.
  RxResult res;
  if (!read_full(rx_pipe[0], &res, sizeof res)) res = fail;
  if (!sync_ok) res.ok = 0;

  for (const DriverPipes& d : drivers) {
    write_full(d.go, &byte, 1);
    ::close(d.go);
    ::close(d.ready);
    ::waitpid(d.pid, nullptr, 0);
  }
  ::close(rx_pipe[0]);
  ::waitpid(rx_pid, nullptr, 0);
  return res;
}

struct Row {
  size_t conns;
  int events;
  const char* label;
};

std::vector<Row> sweep_rows() {
  std::vector<Row> rows = {{1000, 50, "1k"}, {4000, 20, "4k"}, {10000, 10, "10k"}};
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once before any forks
  const char* cap_env = std::getenv("MORPH_BENCH_MAX_CONNS");
  if (cap_env != nullptr && cap_env[0] != '\0') {
    const size_t cap = std::strtoull(cap_env, nullptr, 10);
    std::erase_if(rows, [&](const Row& r) { return r.conns > cap && r.conns != 1000; });
  }
  return rows;
}

bool check_row(const char* label, const RxResult& res, size_t conns) {
  if (res.ok != 0 && res.live_conns == conns) return true;
  std::fprintf(stderr,
               "FAIL %s: received %llu/%llu frames, %llu/%zu connections live\n",
               label, static_cast<unsigned long long>(res.received),
               static_cast<unsigned long long>(res.expected),
               static_cast<unsigned long long>(res.live_conns), conns);
  return false;
}

void paper_table() {
  // Raise the fd ceiling to the hard limit before any sockets exist;
  // children inherit it. The driver fan-out keeps each process far below
  // even the default soft limit's hard ceiling.
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0) {
    rl.rlim_cur = rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &rl);
  }
  std::signal(SIGPIPE, SIG_IGN);  // dead children must not kill the table

  std::printf("Connection scale: N concurrent peers into one receiver process\n"
              "(one reactor loop accepts and serves every socket; us/event is\n"
              "first-to-last frame at the receiver over frames counted)\n\n");
  print_header("conns", {"rx_us_evt", "rx_rss_mb"});

  bool violated = false;
  for (const Row& row : sweep_rows()) {
    const RxResult rx = run_row(row.conns, row.events);
    if (!check_row(row.label, rx, row.conns)) violated = true;
    print_row(row.label, {rx.us_per_event, rx.rss_mb});
  }
  std::printf("\nevery frame is counted at the receiver and every connection must\n"
              "still be live when the row completes (drivers hold them open until\n"
              "the receiver reports), so each row is a sustained-concurrency\n"
              "measurement, not a connect/close churn test\n");
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — children reaped before this point
  if (violated) std::exit(1);
}

/// Receiver-side CPU floor per event: frame encode + reassembly + the
/// sink's bookkeeping, no sockets. What the reactor's dispatch path pays
/// after epoll hands it the bytes.
void bm_event_dispatch_cpu(benchmark::State& state) {
  transport::FrameAssembler assembler;
  FrameSink sink;
  ByteBuffer wire;
  uint8_t payload[kEventBytes];
  std::memset(payload, 0x42, sizeof payload);
  for (auto _ : state) {
    wire.clear();
    transport::write_frame(wire, transport::FrameType::kData, payload, sizeof payload);
    assembler.feed(wire.data(), wire.size(), [&sink](transport::Frame&) { sink.on_frame(); });
  }
  benchmark::DoNotOptimize(sink.count.load());
}
BENCHMARK(bm_event_dispatch_cpu);

}  // namespace

MORPH_BENCH_MAIN(paper_table)
