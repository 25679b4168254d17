#include "obs/flight.hpp"

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>

#include "obs/metrics.hpp"

namespace morph::obs {

namespace {

constexpr uint64_t kDefaultSlowNs = 1'000'000;  // 1ms

struct FlightRing {
  std::mutex mutex;
  std::deque<FlightEvent> events;
  // Per-kind totals, resolved once (registry metrics live forever). The
  // ring forgets, the counters do not.
  Counter& rejects = metrics().counter(Metric::morph_flight_events_total, {"reject"});
  Counter& retries = metrics().counter(Metric::morph_flight_events_total, {"resolver_retry"});
  Counter& fallbacks = metrics().counter(Metric::morph_flight_events_total, {"fanout_fallback"});
  Counter& slow = metrics().counter(Metric::morph_flight_events_total, {"slow_morph"});

  Counter& for_kind(FlightKind kind) {
    switch (kind) {
      case FlightKind::kReject: return rejects;
      case FlightKind::kResolverRetry: return retries;
      case FlightKind::kFanoutFallback: return fallbacks;
      case FlightKind::kSlowMorph: return slow;
    }
    return rejects;
  }
};

FlightRing& ring() {
  static FlightRing* r = new FlightRing();  // leaked: outlives all users
  return *r;
}

std::atomic<int64_t> g_slow_ns{-1};  // -1 = not yet read from the environment

/// Format one event into `buf` (no allocation; usable from the signal
/// handler). Returns bytes written.
size_t format_event(char* buf, size_t cap, const FlightEvent& e) {
  int n = std::snprintf(buf, cap,
                        "[%12.6fs] %-16s trace=%016llx  %s (%zu span%s)\n",
                        static_cast<double>(e.ts_ns) / 1e9, flight_kind_name(e.kind),
                        static_cast<unsigned long long>(e.trace_id), e.detail.c_str(),
                        e.spans.size(), e.spans.size() == 1 ? "" : "s");
  if (n < 0) return 0;
  return static_cast<size_t>(n) < cap ? static_cast<size_t>(n) : cap - 1;
}

extern "C" void flight_signal_handler(int sig) {
  char buf[512];
  int n = std::snprintf(buf, sizeof buf,
                        "\n== morph flight recorder (signal %d) ==\n", sig);
  if (n > 0) {
    ssize_t ignored = write(STDERR_FILENO, buf, static_cast<size_t>(n));
    (void)ignored;
  }
  FlightRing& r = ring();
  // try_lock: if the crashing thread held the ring we skip the dump
  // rather than deadlock inside a signal handler.
  if (r.mutex.try_lock()) {
    for (const auto& e : r.events) {
      size_t len = format_event(buf, sizeof buf, e);
      if (len > 0) {
        ssize_t ignored = write(STDERR_FILENO, buf, len);
        (void)ignored;
      }
    }
    r.mutex.unlock();
  } else {
    static const char busy[] = "(flight ring busy; dump skipped)\n";
    ssize_t ignored = write(STDERR_FILENO, busy, sizeof busy - 1);
    (void)ignored;
  }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

}  // namespace

const char* flight_kind_name(FlightKind kind) {
  switch (kind) {
    case FlightKind::kReject: return "reject";
    case FlightKind::kResolverRetry: return "resolver_retry";
    case FlightKind::kFanoutFallback: return "fanout_fallback";
    case FlightKind::kSlowMorph: return "slow_morph";
  }
  return "unknown";
}

void flight_record(FlightKind kind, uint64_t trace_id, std::string detail) {
  FlightEvent e;
  e.ts_ns = monotonic_ns();
  e.kind = kind;
  e.trace_id = trace_id;
  e.detail = std::move(detail);
  if (kind == FlightKind::kSlowMorph) {
    // Tail sample: this trace just proved interesting, so keep its spans.
    e.spans = spans_for_trace(trace_id);
  }
  FlightRing& r = ring();
  r.for_kind(kind).inc();
  std::lock_guard<std::mutex> lock(r.mutex);
  if (r.events.size() >= kFlightRingCapacity) r.events.pop_front();
  r.events.push_back(std::move(e));
}

uint64_t flight_slow_ns() {
  int64_t v = g_slow_ns.load(std::memory_order_relaxed);
  if (v < 0) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("MORPH_FLIGHT_SLOW_NS");
    v = static_cast<int64_t>(kDefaultSlowNs);
    if (env != nullptr && env[0] != '\0') {
      char* end = nullptr;
      unsigned long long parsed = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0') v = static_cast<int64_t>(parsed);
    }
    g_slow_ns.store(v, std::memory_order_relaxed);
  }
  return static_cast<uint64_t>(v);
}

void set_flight_slow_ns(uint64_t ns) {
  g_slow_ns.store(static_cast<int64_t>(ns), std::memory_order_relaxed);
}

std::vector<FlightEvent> flight_events() {
  FlightRing& r = ring();
  std::lock_guard<std::mutex> lock(r.mutex);
  return {r.events.begin(), r.events.end()};
}

void clear_flight_events() {
  FlightRing& r = ring();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.events.clear();
}

std::string flight_dump_text() {
  std::string out;
  char buf[512];
  for (const auto& e : flight_events()) {
    size_t len = format_event(buf, sizeof buf, e);
    out.append(buf, len);
    for (const auto& s : e.spans) {
      int n = std::snprintf(buf, sizeof buf, "    %-24s %10llu ns  %s\n", s.name.c_str(),
                            static_cast<unsigned long long>(s.dur_ns), s.detail.c_str());
      if (n > 0) out.append(buf, static_cast<size_t>(n) < sizeof buf ? static_cast<size_t>(n)
                                                                     : sizeof buf - 1);
    }
  }
  return out;
}

void install_flight_signal_dump() {
  std::signal(SIGSEGV, flight_signal_handler);
  std::signal(SIGABRT, flight_signal_handler);
  std::signal(SIGBUS, flight_signal_handler);
}

}  // namespace morph::obs
