#include "transport/reactor.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace morph::transport {

namespace {

using C = Reactor::Stats::Id;

uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t monotonic_ms() { return monotonic_ns() / 1'000'000ull; }

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw TransportError("fcntl O_NONBLOCK: " + std::string(strerror(errno)));
  }
}

/// Process-wide reactor gauges, histograms and the counters that have no
/// per-loop twin, looked up once (references stay valid for the registry's
/// lifetime). Leaked singleton.
struct ReactorMetrics {
  obs::Gauge& connections = obs::metrics().gauge(obs::Metric::morph_reactor_connections);
  obs::Gauge& outbox_bytes = obs::metrics().gauge(obs::Metric::morph_reactor_outbox_bytes);
  obs::Histogram& loop_ns = obs::metrics().histogram(obs::Metric::morph_reactor_loop_ns);
  obs::Histogram& dispatch_ns = obs::metrics().histogram(obs::Metric::morph_reactor_dispatch_ns);
  obs::Counter& wakeups = obs::metrics().counter(obs::Metric::morph_reactor_wakeups_total);
  obs::Counter& sendmsg = obs::metrics().counter(obs::Metric::morph_reactor_sendmsg_total);
  obs::Counter& readv = obs::metrics().counter(obs::Metric::morph_reactor_readv_total);
  obs::Counter& epoll_waits = obs::metrics().counter(obs::Metric::morph_reactor_epoll_waits_total);
};

ReactorMetrics& gm() {
  static ReactorMetrics* m = new ReactorMetrics();  // leaked: refs live forever
  return *m;
}

std::atomic<uint64_t> g_next_link_id{1};

// First allocation of a connection's receive ring. Kept small: at 10k+
// mostly-quiet peers the rings dominate the process RSS, and a busy
// connection doubles its way up to kMaxReadBatch within a few wakeups.
constexpr size_t kInitialRing = 4u << 10;
// Upper bound on a connection's receive ring: the most one dispatch batches.
constexpr size_t kMaxReadBatch = 256u << 10;
constexpr int kMaxEvents = 256;
constexpr int kFlushIov = 64;  // outbox chunks gathered per sendmsg

}  // namespace

// ---------------------------------------------------------------------------
// AsyncTcpLink

AsyncTcpLink::AsyncTcpLink(int fd, Reactor* loop, uint64_t id) : fd_(fd), loop_(loop), id_(id) {}

AsyncTcpLink::~AsyncTcpLink() {
  if (fd_ >= 0) ::close(fd_);
}

void AsyncTcpLink::send(const void* data, size_t size) {
  if (size == 0) return;
  OutChunk chunk;
  chunk.owned.assign(static_cast<const uint8_t*>(data), static_cast<const uint8_t*>(data) + size);
  enqueue(std::move(chunk), size);
}

void AsyncTcpLink::send_shared(SharedPayload payload) {
  if (!payload || payload->empty()) return;
  const size_t size = payload->size();
  OutChunk chunk;
  chunk.shared = std::move(payload);
  enqueue(std::move(chunk), size);
}

bool AsyncTcpLink::enqueue(OutChunk chunk, size_t size) {
  const bool on_loop = loop_->on_loop_thread();
  bool need_post = false;
  bool over_bound = false;
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    if (closed_.load(std::memory_order_relaxed)) {
      // Closed or closing: the bytes have nowhere to go. Counted, not thrown
      // — async senders (fan-out loops, reply paths) cannot usefully unwind.
      loop_->counters_.inc(C::send_drops);
      return false;
    }
    if (out_bytes_ + size > loop_->options_.max_outbox_bytes) {
      // The peer reads slower than we write. Bounded memory wins: drop this
      // chunk and tear the link down now; later sends drop cheaply.
      closed_.store(true, std::memory_order_release);
      overflow = true;
    } else {
      outbox_.push_back(std::move(chunk));
      out_bytes_ += size;
      over_bound = out_bytes_ >= Reactor::kFlushBytes;
      if (!flush_queued_) {
        flush_queued_ = true;
        need_post = !on_loop;
      }
    }
  }
  if (overflow) {
    loop_->counters_.inc(C::send_drops);
    loop_->counters_.inc(C::backpressure_closes);
    loop_->run_on_loop(*this, &Reactor::teardown);
    return false;
  }
  gm().outbox_bytes.add(static_cast<double>(size));
  if (on_loop) {
    // The loop flushes dirty links once per batch; a full outbox goes now
    // so its bytes overlap with the rest of the batch's work.
    loop_->mark_dirty(*this);
    if (over_bound) loop_->flush(*this);
  } else if (need_post) {
    loop_->run_on_loop(*this, &Reactor::flush);
  }
  return true;
}

void AsyncTcpLink::close() {
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  }
  loop_->run_on_loop(*this, &Reactor::flush);  // tears down once the outbox is empty
}

size_t AsyncTcpLink::outbox_bytes() const {
  std::lock_guard<std::mutex> lock(out_mutex_);
  return out_bytes_;
}

// ---------------------------------------------------------------------------
// Reactor

Reactor::Reactor(const ReactorOptions& options, int listen_fd, ConnCallback on_accept,
                 ConnCallback on_close)
    : options_(options),
      listen_fd_(listen_fd),
      on_accept_(std::move(on_accept)),
      on_close_(std::move(on_close)) {
  // A throwing constructor runs no destructor: close what is already open.
  const auto fail = [this](const char* what) {
    const std::string reason = std::string(what) + ": " + strerror(errno);
    if (event_fd_ >= 0) ::close(event_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    throw TransportError(reason);
  };
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) fail("epoll_create1");
  event_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (event_fd_ < 0) fail("eventfd");
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered is fine: we drain the counter
  ev.data.ptr = nullptr;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) < 0) fail("epoll_ctl eventfd");
  // The (non-blocking) listener is drained to EAGAIN on every edge. Clients
  // already queued count as one: epoll reports a ready fd when it is added.
  ev.events = EPOLLIN | EPOLLET;
  ev.data.ptr = this;  // the loop itself stands for its listener
  if (listen_fd_ >= 0 && epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    fail("epoll_ctl listener");
  }
  wheel_.resize(kWheelSlots);
  if (options_.idle_timeout_ms > 0) {
    tick_ms_ = std::max<uint64_t>(options_.idle_timeout_ms / 8, 10);
    last_tick_ = monotonic_ms() / tick_ms_;
  }
  thread_ = std::thread(&Reactor::run, this);
}

Reactor::~Reactor() {
  stop();
  if (thread_.joinable()) thread_.join();
  // Loop is gone: tear down whatever it still owned, without a drain. Link
  // destructors close the sockets; no callbacks fire (the contract exempts
  // mid-flight destruction).
  for (auto& entry : conns_) drop_outbox(*entry.second);
  dirty_.clear();
  conns_.clear();
  graveyard_.clear();
  tasks_.clear();
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void Reactor::stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

void Reactor::wake() {
  const uint64_t one = 1;
  ssize_t n;
  do {
    n = ::write(event_fd_, &one, sizeof one);
  } while (n < 0 && errno == EINTR);
}

void Reactor::post(std::function<void()> fn) {
  bool need_wake = false;
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    tasks_.push_back(std::move(fn));
    if (!wake_pending_) {
      wake_pending_ = true;
      need_wake = true;
    }
  }
  if (need_wake) wake();
}

void Reactor::run_on_loop(AsyncTcpLink& conn, void (Reactor::*step)(AsyncTcpLink&)) {
  if (on_loop_thread()) return (this->*step)(conn);
  post([this, step, conn = conn.shared()] { if (!conn->dead_) (this->*step)(*conn); });
}

void Reactor::adopt(int fd) {
  set_nonblocking(fd);
  post([this, fd] { add_conn(fd); });
}

void Reactor::accept_ready() {
  accept_paused_ = false;
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      accept_paused_ = errno != EAGAIN && errno != EWOULDBLOCK;
      return;
    }
    // Admission is decided here, on the thread that owns the count, so a
    // connect storm cannot overshoot the cap.
    if (connections() >= options_.max_connections) {
      counters_.inc(C::refused);
      ::close(fd);  // the client sees EOF
      continue;
    }
    const int one = 1;  // Nagle would hold back small frames
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    add_conn(fd);
  }
}

void Reactor::add_conn(int fd) {
  auto conn = std::shared_ptr<AsyncTcpLink>(
      new AsyncTcpLink(fd, this, g_next_link_id.fetch_add(1, std::memory_order_relaxed)));
  epoll_event ev{};
  // Permanently armed for both directions: with edge triggering EPOLLOUT
  // only fires on not-writable -> writable transitions (plus one initial
  // edge), so there is no epoll_ctl churn to arm/disarm write interest.
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET;
  ev.data.ptr = conn.get();
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) return;  // fd closed by the link destructor
  conns_[fd] = conn;
  conn_count_.fetch_add(1, std::memory_order_relaxed);
  counters_.inc(C::accepted);
  gm().connections.add(1);
  if (tick_ms_ > 0) wheel_touch(*conn, monotonic_ms());
  if (on_accept_) {
    try {
      on_accept_(*conn);
    } catch (...) {
      counters_.inc(C::bad_callbacks);
      conn->close();
    }
  }
}

void Reactor::mark_dirty(AsyncTcpLink& conn) {
  if (conn.in_dirty_) return;
  conn.in_dirty_ = true;
  dirty_.push_back(conn.shared());
}

void Reactor::flush_dirty() {
  // Indexed, not range-for: a failed flush closes its link, and a close
  // callback that sends appends to dirty_ — those are flushed here too.
  for (size_t i = 0; i < dirty_.size(); ++i) {
    AsyncTcpLink& conn = *dirty_[i];
    conn.in_dirty_ = false;
    if (!conn.dead_) flush(conn);
  }
  dirty_.clear();
}

void Reactor::flush(AsyncTcpLink& conn) {
  {
    std::lock_guard<std::mutex> lock(conn.out_mutex_);
    conn.flush_queued_ = false;
    while (!conn.outbox_.empty()) {
      iovec iov[kFlushIov];
      int iovcnt = 0;
      for (auto it = conn.outbox_.begin(); it != conn.outbox_.end() && iovcnt < kFlushIov; ++it) {
        iov[iovcnt].iov_base = const_cast<uint8_t*>(it->data());
        iov[iovcnt].iov_len = it->size();
        ++iovcnt;
      }
      msghdr mh{};
      mh.msg_iov = iov;
      mh.msg_iovlen = static_cast<size_t>(iovcnt);
      // sendmsg, not writev: writev has no MSG_NOSIGNAL, and a peer that
      // closed mid-write must surface as EPIPE, never SIGPIPE.
      // Counted before the call, so whoever sees the bytes also sees the
      // count (tests assert exact per-iteration deltas).
      gm().sendmsg.inc();
      const ssize_t n = ::sendmsg(conn.fd_, &mh, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          return;  // kernel buffer full: the EPOLLOUT edge resumes us
        }
        break;  // send error (EPIPE, ECONNRESET): no drain is possible
      }
      size_t left = static_cast<size_t>(n);
      conn.out_bytes_ -= left;
      gm().outbox_bytes.add(-static_cast<double>(left));
      while (left > 0) {
        AsyncTcpLink::OutChunk& front = conn.outbox_.front();
        const size_t sz = front.size();
        if (left >= sz) {
          left -= sz;
          conn.outbox_.pop_front();
        } else {
          front.off += left;
          left = 0;
        }
      }
    }
    // Empty: a closed link's drain is done. Not empty: the send failed.
    if (conn.outbox_.empty() && !conn.closed_.load(std::memory_order_relaxed)) return;
  }
  // flush() only ever runs on the loop thread, so tear down synchronously —
  // but only after out_mutex_ is released above, because teardown re-locks
  // it and std::mutex is non-recursive.
  teardown(conn);
}

void Reactor::drop_outbox(AsyncTcpLink& conn) {
  std::lock_guard<std::mutex> lock(conn.out_mutex_);
  conn.closed_.store(true, std::memory_order_release);
  counters_.add(C::send_drops, conn.outbox_.size());
  gm().outbox_bytes.add(-static_cast<double>(conn.out_bytes_));
  conn.outbox_.clear();
  conn.out_bytes_ = 0;
}

void Reactor::teardown(AsyncTcpLink& conn) {
  if (conn.dead_) return;
  conn.dead_ = true;
  wheel_remove(conn);
  drop_outbox(conn);  // empty after a drain

  // Keep the object alive through the rest of this loop iteration: events
  // harvested by the same epoll_wait may still reference it (dead_ makes
  // them no-ops).
  auto it = conns_.find(conn.fd_);
  if (it != conns_.end()) {
    graveyard_.push_back(std::move(it->second));
    conns_.erase(it);
  }

  // Publish the departure before the fd closes: the peer observes our FIN
  // the instant ::close runs, and anything it does in response (including a
  // test polling connections()) must not see a stale count.
  conn_count_.fetch_sub(1, std::memory_order_relaxed);
  counters_.inc(C::closed);
  gm().connections.add(-1);

  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd_, nullptr);
  // ::close on unread bytes sends a reset instead of a FIN, and the reset
  // can discard what the peer has not read yet: drop what arrived since the
  // last read first.
  uint8_t sink[4096];
  while (::recv(conn.fd_, sink, sizeof sink, 0) > 0) {
  }
  ::close(conn.fd_);
  conn.fd_ = -1;

  if (on_close_) {
    try {
      on_close_(conn);
    } catch (...) {
      counters_.inc(C::bad_callbacks);
    }
  }
  conn.user_.reset();  // application state dies on the loop thread
}

void Reactor::handle_readable(AsyncTcpLink& conn) {
  for (;;) {
    size_t cap = conn.ring_.size();
    if (conn.ring_size_ == cap) {
      if (cap >= kMaxReadBatch) {
        // Ring at its bound: hand the batch to the application mid-wakeup,
        // then keep draining (edge-triggered readiness must reach EAGAIN).
        dispatch_ring(conn);
        if (conn.dead_) return;
      } else {
        // Grow (and linearize — cheap, and only until the ring plateaus at
        // this connection's natural batch size).
        const size_t grown = std::max(kInitialRing, cap * 2);
        std::vector<uint8_t> next(grown);
        for (size_t i = 0; i < conn.ring_size_; ++i) {
          next[i] = conn.ring_[(conn.ring_head_ + i) % cap];
        }
        conn.ring_ = std::move(next);
        conn.ring_head_ = 0;
        cap = grown;
      }
    }
    // Scatter-read into the free span(s): [tail, cap) and, if wrapped
    // around, [0, head).
    const size_t tail = (conn.ring_head_ + conn.ring_size_) % cap;
    const size_t free_total = cap - conn.ring_size_;
    iovec iov[2];
    int iovcnt = 1;
    iov[0].iov_base = conn.ring_.data() + tail;
    iov[0].iov_len = std::min(free_total, cap - tail);
    if (iov[0].iov_len < free_total) {
      iov[1].iov_base = conn.ring_.data();
      iov[1].iov_len = free_total - iov[0].iov_len;
      iovcnt = 2;
    }
    const ssize_t n = ::readv(conn.fd_, iov, iovcnt);
    gm().readv.inc();
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      dispatch_ring(conn);
      teardown(conn);  // a reset: nothing can be drained
      return;
    }
    if (n == 0) {
      dispatch_ring(conn);
      conn.close();  // the peer's EOF: drain, then close our side
      return;
    }
    conn.ring_size_ += static_cast<size_t>(n);
    if (tick_ms_ > 0) wheel_touch(conn, monotonic_ms());
    if (static_cast<size_t>(n) < free_total) break;  // short read: drained
  }
  dispatch_ring(conn);
}

void Reactor::dispatch_ring(AsyncTcpLink& conn) {
  while (conn.ring_size_ > 0 && !conn.closed_.load(std::memory_order_acquire)) {
    const size_t cap = conn.ring_.size();
    const size_t seg = std::min(conn.ring_size_, cap - conn.ring_head_);
    const uint64_t t0 = monotonic_ns();
    try {
      conn.deliver(conn.ring_.data() + conn.ring_head_, seg);
    } catch (...) {
      // Exceptions never unwind through the loop: a throwing protocol
      // handler costs its connection, not the process.
      counters_.inc(C::bad_callbacks);
      conn.close();
      break;
    }
    gm().dispatch_ns.record(monotonic_ns() - t0);
    conn.ring_head_ = (conn.ring_head_ + seg) % cap;
    conn.ring_size_ -= seg;
  }
  // After a close nothing more reaches the callback. Later bytes are still
  // read, so that teardown's ::close meets none, and dropped here.
  if (conn.closed_.load(std::memory_order_relaxed)) conn.ring_size_ = 0;
}

void Reactor::wheel_touch(AsyncTcpLink& conn, uint64_t now_ms) {
  conn.last_active_ms_ = now_ms;
  if (conn.in_wheel_) return;  // lazy: entries advance during slot scans
  const uint64_t deadline = now_ms + options_.idle_timeout_ms;
  size_t slot = (deadline / tick_ms_) & (kWheelSlots - 1);
  conn.in_wheel_ = true;
  conn.wheel_slot_ = slot;
  conn.wheel_pos_ = wheel_[slot].size();
  wheel_[slot].push_back(&conn);
}

void Reactor::wheel_remove(AsyncTcpLink& conn) {
  if (!conn.in_wheel_) return;
  conn.in_wheel_ = false;
  auto& slot = wheel_[conn.wheel_slot_];
  const size_t pos = conn.wheel_pos_;
  if (pos < slot.size() && slot[pos] == &conn) {
    slot[pos] = slot.back();
    slot[pos]->wheel_pos_ = pos;
    slot.pop_back();
  }
}

void Reactor::wheel_advance(uint64_t now_ms) {
  if (tick_ms_ == 0) return;
  const uint64_t cur = now_ms / tick_ms_;
  if (cur == last_tick_) return;
  const uint64_t span = std::min<uint64_t>(cur - last_tick_, kWheelSlots);
  for (uint64_t t = 1; t <= span; ++t) {
    const size_t slot_idx = (last_tick_ + t) & (kWheelSlots - 1);
    std::vector<AsyncTcpLink*> slot;
    slot.swap(wheel_[slot_idx]);
    for (AsyncTcpLink* c : slot) {
      c->in_wheel_ = false;
      if (c->dead_) continue;
      const uint64_t deadline = c->last_active_ms_ + options_.idle_timeout_ms;
      if (deadline <= now_ms) {
        counters_.inc(C::idle_timeouts);
        teardown(*c);
        continue;
      }
      size_t next = (deadline / tick_ms_) & (kWheelSlots - 1);
      if (next == slot_idx) next = (slot_idx + 1) & (kWheelSlots - 1);
      c->in_wheel_ = true;
      c->wheel_slot_ = next;
      c->wheel_pos_ = wheel_[next].size();
      wheel_[next].push_back(c);
    }
  }
  last_tick_ = cur;
}

void Reactor::run() {
  epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    int timeout = -1;
    if (tick_ms_ > 0 && !conns_.empty()) {  // no connection, no timer to run
      const uint64_t now = monotonic_ms();
      const uint64_t next_tick = (last_tick_ + 1) * tick_ms_;
      timeout = next_tick > now ? static_cast<int>(std::min<uint64_t>(next_tick - now, 60'000))
                                : 0;
    }
    if (accept_paused_) timeout = timeout < 0 ? kAcceptRetryMs : std::min(timeout, kAcceptRetryMs);
    const int n = epoll_wait(epoll_fd_, events, kMaxEvents, timeout);
    gm().epoll_waits.inc();
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone: only happens at teardown
    }
    const uint64_t t0 = monotonic_ns();
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        uint64_t drain = 0;
        while (::read(event_fd_, &drain, sizeof drain) > 0) {
        }
        gm().wakeups.inc();
        continue;
      }
      if (events[i].data.ptr == this) {
        accept_ready();
        continue;
      }
      auto* conn = static_cast<AsyncTcpLink*>(events[i].data.ptr);
      if (conn->dead_) continue;
      if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        handle_readable(*conn);  // HUP/ERR surface as EOF/error from readv
      }
      if (!conn->dead_ && (events[i].events & EPOLLOUT) != 0) {
        mark_dirty(*conn);  // room in the kernel buffer: resume a stalled outbox
      }
    }
    // One gathered sendmsg per connection the batch wrote to, instead of
    // one per send() call.
    flush_dirty();
    std::vector<std::function<void()>> tasks;
    {
      std::lock_guard<std::mutex> lock(tasks_mutex_);
      wake_pending_ = false;
      tasks.swap(tasks_);
    }
    for (auto& task : tasks) task();
    if (tick_ms_ > 0) wheel_advance(monotonic_ms());
    // At the fd limit, a close in this pass (or the retry timeout) may have
    // made room for a queued client.
    if (accept_paused_) accept_ready();
    // Sends from tasks, close and accept callbacks leave in this iteration
    // too, not after the next wakeup.
    flush_dirty();
    graveyard_.clear();
    if (n > 0 || !tasks.empty()) gm().loop_ns.record(monotonic_ns() - t0);
  }
}

}  // namespace morph::transport
