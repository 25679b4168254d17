// Event-driven reactor transport: 10k+ concurrent peers per process.
//
// A thread-per-connection server caps a process at a few thousand peers —
// one OS thread per peer. The reactor multiplexes non-blocking sockets over
// edge-triggered epoll instead:
//
//   Reactor        one event loop on one thread: epoll, an eventfd for
//                  cross-thread wakeups (post()), and a hashed timer wheel
//                  for idle-connection timeouts. Everything about a
//                  connection happens on its owning loop's thread, so
//                  per-connection protocol state needs no locks.
//   AsyncTcpLink   a transport::Link over a non-blocking socket. Reads are
//                  batched: on readiness the loop readv()s into a growable
//                  ring until EAGAIN and hands the bytes to the data
//                  callback in large chunks, so one wakeup typically
//                  delivers many frames. Writes go through a bounded
//                  per-connection outbox (send_shared enqueues the
//                  refcounted payload itself — zero copy until the kernel
//                  write). Sends made on the loop thread only mark the
//                  connection dirty; the loop gathers each dirty outbox
//                  into one sendmsg after the I/O batch and again after
//                  posted tasks (or early, once it holds kFlushBytes).
//                  Overflow means a slow consumer and closes the
//                  connection, counted, instead of buffering unboundedly.
//                  close() drains: the outbox still leaves ahead of the FIN.
//   ReactorServer  one Reactor that also owns the listening socket: the
//                  loop drains it with accept4 and admits each socket
//                  inline, so a server is one loop on one thread.
//
// Thread-safety contract: send()/send_shared()/close() may be called from
// any thread (they enqueue and wake the owning loop; lifetime is the
// caller's problem — hold shared() across threads). The data callback, the
// accept callback, and the close callback run on the owning loop's thread.
// A connection's callbacks never run concurrently with each other.
//
// Every server in the library (fmtsvc::FormatService, echo::EchoTcpNode,
// TelemetryCollector, StatsServer) serves through ReactorServer. TcpLink
// and TcpListener::accept stay as the blocking client and test helpers.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "transport/link.hpp"
#include "transport/tcp.hpp"

namespace morph::transport {

/// Single-valued stub: the reactor is the only engine; perfbench/broker.cpp still names it.
enum class TransportMode { kReactor };

struct ReactorOptions {
  /// Close connections with no inbound bytes for this long (0 = never).
  /// Timeouts are detected by a coarse timer wheel, so reaping happens
  /// within ~1/8 of the timeout after it elapses, not at the exact instant.
  uint32_t idle_timeout_ms = 0;
  /// Per-connection outbox bound. A connection whose peer reads slower
  /// than we write eventually hits this and is closed (counted in
  /// morph_reactor_backpressure_closes_total) — bounded memory beats an
  /// unbounded buffer to a dead peer.
  size_t max_outbox_bytes = 4u << 20;
  /// Accepts beyond this many live connections are closed immediately
  /// (the client sees EOF; counted in morph_reactor_refused_total).
  size_t max_connections = 1u << 20;
  /// Upper bound on the per-connection receive ring. The ring starts small
  /// and doubles as a single wakeup drains more, so idle connections cost
  /// ~1KB and hot ones batch up to this much per dispatch.
  size_t max_read_batch = 256u << 10;
};

class Reactor;

/// One reactor-owned connection. Created by the loop (accepted or adopted);
/// handed to the application in the on_accept callback, on that loop's
/// thread.
class AsyncTcpLink : public Link, public std::enable_shared_from_this<AsyncTcpLink> {
 public:
  ~AsyncTcpLink() override;

  using Link::send;  // keep the ByteBuffer convenience overload visible

  /// Enqueue bytes toward the peer. Never throws and never blocks: bytes
  /// are copied into the outbox and flushed by the loop. After close(), or
  /// on outbox overflow, the bytes are dropped and counted
  /// (morph_reactor_send_drops_total) — an async sender cannot usefully
  /// unwind into, so drops are observable instead of thrown. So are chunks
  /// left queued by a teardown without a drain (send error, reset, overflow,
  /// idle timeout, Reactor destruction).
  void send(const void* data, size_t size) override;

  /// Enqueue a shared immutable payload: the outbox holds the refcount,
  /// not a copy, so a fan-out group's encode is shared right up to the
  /// kernel write on every member connection.
  void send_shared(SharedPayload payload) override;

  bool connected() const override { return !closed_.load(std::memory_order_acquire); }

  /// Request close (thread-safe), as the peer's EOF does. Later sends drop
  /// and later inbound bytes are discarded. The outbox keeps flushing; the
  /// loop tears the link down (on_close, ::close) once it is empty, so the
  /// peer reads every byte sent before close(), then EOF. Until then the
  /// link keeps its max_connections slot and idle timeout.
  void close();

  /// Stable id, unique per process (survives fd reuse).
  uint64_t id() const { return id_; }

  /// Attach per-connection application state; destroyed on the owning
  /// loop's thread when the connection closes. This is where servers hang
  /// their FrameAssembler / MessagePort / Receiver.
  void set_user(std::shared_ptr<void> user) { user_ = std::move(user); }
  template <typename T>
  T* user() const {
    return static_cast<T*>(user_.get());
  }

  /// Shared handle for cross-thread senders: keeps the object (not the
  /// connection) alive, so a send racing a close degrades to a counted
  /// drop instead of a use-after-free.
  std::shared_ptr<AsyncTcpLink> shared() { return shared_from_this(); }

  /// Bytes currently queued toward the peer (diagnostic; racy by nature).
  size_t outbox_bytes() const;

 private:
  friend class Reactor;
  AsyncTcpLink(int fd, Reactor* loop, uint64_t id);

  /// One outbox entry: either owned bytes or a shared payload, partially
  /// written up to `off`.
  struct OutChunk {
    std::vector<uint8_t> owned;
    SharedPayload shared;
    size_t off = 0;
    const uint8_t* data() const { return shared ? shared->data() + off : owned.data() + off; }
    size_t size() const { return (shared ? shared->size() : owned.size()) - off; }
  };

  bool enqueue(OutChunk chunk, size_t size);
  void deliver(const uint8_t* data, size_t size) {
    if (on_data_) on_data_(data, size);
  }

  int fd_;
  Reactor* loop_;
  uint64_t id_;
  // Close requested (sends drop, data is discarded). Set under out_mutex_,
  // so a closed link's empty outbox stays empty.
  std::atomic<bool> closed_{false};

  // Outbox, shared between senders (any thread) and the loop.
  mutable std::mutex out_mutex_;
  std::deque<OutChunk> outbox_;
  size_t out_bytes_ = 0;
  // A flush is already due: a posted flush task is in flight, or an on-loop
  // send put the link on the loop's dirty list. Either way a later sender
  // need not post another.
  bool flush_queued_ = false;

  // Loop-thread-only state.
  bool dead_ = false;          // torn down; skip events already harvested
  bool in_dirty_ = false;      // on the loop's dirty list
  bool in_wheel_ = false;
  size_t wheel_slot_ = 0;
  size_t wheel_pos_ = 0;
  uint64_t last_active_ms_ = 0;
  std::vector<uint8_t> ring_;  // growable receive ring (head_ + size_)
  size_t ring_head_ = 0;
  size_t ring_size_ = 0;
  std::shared_ptr<void> user_;
};

/// One epoll event loop on one owned thread.
class Reactor {
 public:
  explicit Reactor(const ReactorOptions& options) : Reactor(options, -1, {}, {}) {}
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Callbacks for connections this loop owns. on_accept runs before any
  /// data is delivered; on_close runs exactly once per accepted connection
  /// unless the reactor itself is being destroyed mid-flight.
  using ConnCallback = std::function<void(AsyncTcpLink&)>;
  void set_on_accept(ConnCallback cb) { on_accept_ = std::move(cb); }
  void set_on_close(ConnCallback cb) { on_close_ = std::move(cb); }

  /// Take ownership of a connected socket (thread-safe; registration,
  /// counting and the on_accept callback run on the loop).
  void adopt(int fd);

  /// Run `fn` on the loop thread (thread-safe). Tasks run in post order,
  /// interleaved with I/O.
  void post(std::function<void()> fn);

  bool on_loop_thread() const { return std::this_thread::get_id() == thread_.get_id(); }

  size_t connections() const { return conn_count_.load(std::memory_order_relaxed); }

  /// Ask the loop to stop; the destructor joins.
  void stop();

  /// An on-loop send flushes its connection at once, inside the I/O batch,
  /// when the outbox reaches this many bytes; below it the bytes wait for
  /// the loop's end-of-batch flush. Measured with perfbench (docs/PERF.md):
  /// with no bound, one 256 KB read batch of ~10 KB events held every reply
  /// behind ~2.5 ms of handler work, and large_morph throughput fell below
  /// the unbatched baseline (9.7k vs 11.7k events/s). 4 and 8 KB cost
  /// throughput on small_events and large_morph; 16, 32 and 64 KB measured
  /// alike. 16 KB is the smallest bound without that loss, so the least
  /// output waits behind handler work.
  static constexpr size_t kFlushBytes = 16u << 10;

  /// The loop's counters: Stats field and catalog series.
#define MORPH_REACTOR_COUNTERS(X)                                                  \
  X(accepted, morph_reactor_accepted_total)                                        \
  X(closed, morph_reactor_closed_total)                                            \
  X(idle_timeouts, morph_reactor_idle_timeouts_total)                              \
  X(backpressure_closes, morph_reactor_backpressure_closes_total)                  \
  X(send_drops, morph_reactor_send_drops_total)                                    \
  X(bad_callbacks, morph_reactor_bad_callbacks_total)                              \
  X(refused, morph_reactor_refused_total) /* accepts past max_connections */

  struct Stats {
    MORPH_STATS(Stats, MORPH_REACTOR_COUNTERS)
  };
  Stats stats() const { return counters_.load(); }

 private:
  friend class AsyncTcpLink;
  friend class ReactorServer;

  /// A server's loop: it also accepts on `listen_fd` (non-blocking), with
  /// the callbacks in place before the loop starts.
  Reactor(const ReactorOptions& options, int listen_fd, ConnCallback on_accept,
          ConnCallback on_close);

  void run();
  void wake();
  void accept_ready();  // loop thread: accept4 until EAGAIN
  void add_conn(int fd);  // loop thread: register, count, on_accept
  void handle_readable(AsyncTcpLink& conn);
  void dispatch_ring(AsyncTcpLink& conn);
  void flush(AsyncTcpLink& conn);  // loop thread; tears down when done or failed
  void mark_dirty(AsyncTcpLink& conn);  // loop thread
  void flush_dirty();                   // loop thread
  void teardown(AsyncTcpLink& conn);     // loop thread: close now
  // `step` now on the loop thread, else posted (skipped once torn down).
  void run_on_loop(AsyncTcpLink& conn, void (Reactor::*step)(AsyncTcpLink&));
  void drop_outbox(AsyncTcpLink& conn);  // counted as send drops
  void wheel_touch(AsyncTcpLink& conn, uint64_t now_ms);
  void wheel_remove(AsyncTcpLink& conn);
  void wheel_advance(uint64_t now_ms);

  ReactorOptions options_;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<size_t> conn_count_{0};
  // Listening socket, -1 unless serving. accept4 failing with anything but
  // EAGAIN (EMFILE at the fd limit) pauses accepting: the client stays
  // queued and the loop retries once per pass, at least every
  // kAcceptRetryMs, instead of spinning on a listener that stays readable.
  const int listen_fd_;
  bool accept_paused_ = false;  // loop-thread-only
  static constexpr int kAcceptRetryMs = 100;

  std::mutex tasks_mutex_;
  std::vector<std::function<void()>> tasks_;
  bool wake_pending_ = false;  // guarded by tasks_mutex_

  // Loop-thread-only connection table and per-iteration graveyard (events
  // harvested in an iteration may reference a connection closed earlier in
  // the same iteration; the graveyard keeps the object alive until the
  // iteration ends and dead_ makes the stale event a no-op).
  std::vector<std::shared_ptr<AsyncTcpLink>> graveyard_;
  std::unordered_map<int, std::shared_ptr<AsyncTcpLink>> conns_;
  // Connections with on-loop sends not yet flushed (loop-thread-only). An
  // entry may be closed before its flush; dead_ makes it a no-op.
  std::vector<std::shared_ptr<AsyncTcpLink>> dirty_;

  // Idle timer wheel (loop-thread-only).
  static constexpr size_t kWheelSlots = 64;  // power of two
  std::vector<std::vector<AsyncTcpLink*>> wheel_;
  uint64_t tick_ms_ = 0;
  uint64_t last_tick_ = 0;

  ConnCallback on_accept_;
  ConnCallback on_close_;

  obs::CounterSet<Stats> counters_;

  std::thread thread_;  // initialized last: run() starts after members
};

/// A listening socket served by one event loop, which accepts, admits and
/// serves every connection on its own thread. The listener is borrowed and
/// must outlive the server (servers own their TcpListener and pass it in,
/// so port() is known before serving starts).
class ReactorServer {
 public:
  using ConnCallback = Reactor::ConnCallback;

  /// Serving starts immediately. `on_accept` is required; `on_close` may
  /// be empty.
  ReactorServer(TcpListener& listener, const ReactorOptions& options, ConnCallback on_accept,
                ConnCallback on_close = {})
      : listener_(listener),
        loop_(options, listener.fd(), std::move(on_accept), std::move(on_close)) {}

  uint16_t port() const { return listener_.port(); }
  size_t connections() const { return loop_.connections(); }
  Reactor& loop() { return loop_; }

  /// Accepts refused because max_connections was reached.
  uint64_t refused() const { return stats().refused; }

  Reactor::Stats stats() const { return loop_.stats(); }

 private:
  TcpListener& listener_;
  Reactor loop_;
};

}  // namespace morph::transport
