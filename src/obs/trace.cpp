#include "obs/trace.hpp"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <deque>
#include <iterator>
#include <mutex>

namespace morph::obs {

namespace {

thread_local TraceContext t_context;

std::atomic<int> g_tracing{-1};  // -1 = not yet read from the environment

struct SpanRing {
  std::mutex mutex;
  std::deque<SpanRecord> spans;
  // Resolved once; registry metrics are never erased so the reference is
  // valid forever. Counts spans evicted by the bounded ring (satellite of
  // the telemetry plane: saturation used to be silent).
  Counter& dropped = metrics().counter(Metric::morph_obs_spans_dropped_total);
};

SpanRing& ring() {
  static SpanRing* r = new SpanRing();  // leaked: outlives all users
  return *r;
}

/// Append under the ring lock, evicting (and counting) the oldest when
/// full.
void push_span(SpanRecord rec) {
  SpanRing& r = ring();
  std::lock_guard<std::mutex> lock(r.mutex);
  if (r.spans.size() >= kSpanRingCapacity) {
    r.spans.pop_front();
    r.dropped.inc();
  }
  r.spans.push_back(std::move(rec));
}

/// Fresh non-zero span id; same generator family as new_trace_id but a
/// separate stream so span ids never shadow trace ids.
uint64_t new_span_id() {
  static std::atomic<uint64_t> state{0x6a09e667f3bcc909ull};
  uint64_t z = state.fetch_add(0x9e3779b97f4a7c15ull, std::memory_order_relaxed) +
               0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z != 0 ? z : 1;
}

std::mutex g_process_name_mutex;
std::string* g_process_name = nullptr;  // leaked: outlives all users

}  // namespace

uint64_t monotonic_ns() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

TraceContext current_trace() { return t_context; }

uint64_t new_trace_id() {
  // splitmix64 over a process-unique seed: ids are unique within a process
  // and overwhelmingly unlikely to collide across peers.
  static std::atomic<uint64_t> state{[] {
    auto wall = static_cast<uint64_t>(
        std::chrono::system_clock::now().time_since_epoch().count());
    return wall ^ 0x9e3779b97f4a7c15ull;
  }()};
  uint64_t z = state.fetch_add(0x9e3779b97f4a7c15ull, std::memory_order_relaxed) +
               0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z != 0 ? z : 1;  // 0 means "untraced"
}

bool tracing_enabled() {
  int v = g_tracing.load(std::memory_order_relaxed);
  if (v < 0) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("MORPH_TRACE");
    v = (env != nullptr && env[0] != '\0' && env[0] != '0') ? 1 : 0;
    g_tracing.store(v, std::memory_order_relaxed);
  }
  return v != 0;
}

void set_tracing(bool enabled) { g_tracing.store(enabled ? 1 : 0, std::memory_order_relaxed); }

TraceScope::TraceScope(TraceContext ctx) : prev_(t_context) { t_context = ctx; }
TraceScope::~TraceScope() { t_context = prev_; }

TraceSpan::TraceSpan(const char* name, Histogram* hist)
    : name_(name), hist_(hist), ctx_(t_context), start_ns_(monotonic_ns()),
      ringed_(tracing_enabled()) {
  if (ringed_) {
    // Become the thread's current parent so nested spans link to us.
    span_id_ = new_span_id();
    t_context.span_id = span_id_;
  }
}

TraceSpan::~TraceSpan() {
  const uint64_t dur = monotonic_ns() - start_ns_;
  if (hist_ != nullptr) hist_->record(dur);
  if (!ringed_) return;
  t_context.span_id = ctx_.span_id;  // restore previous parent
  SpanRecord rec;
  rec.name = name_;
  rec.trace_id = ctx_.trace_id;
  rec.start_ns = start_ns_;
  rec.dur_ns = dur;
  rec.thread = thread_stripe();
  rec.span_id = span_id_;
  rec.parent_id = ctx_.span_id;
  rec.detail = std::move(detail_);
  push_span(std::move(rec));
}

void TraceSpan::set_detail(std::string detail) {
  if (ringed_) detail_ = std::move(detail);
}

void record_span(const char* name, const std::string& detail, uint64_t start_ns,
                 uint64_t dur_ns) {
  if (!tracing_enabled()) return;
  SpanRecord rec;
  rec.name = name;
  rec.trace_id = t_context.trace_id;
  rec.start_ns = start_ns;
  rec.dur_ns = dur_ns;
  rec.thread = thread_stripe();
  rec.span_id = new_span_id();
  rec.parent_id = t_context.span_id;
  rec.detail = detail;
  push_span(std::move(rec));
}

std::vector<SpanRecord> recent_spans() {
  SpanRing& r = ring();
  std::lock_guard<std::mutex> lock(r.mutex);
  return {r.spans.begin(), r.spans.end()};
}

void clear_spans() {
  SpanRing& r = ring();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.spans.clear();
}

std::vector<SpanRecord> drain_spans() {
  SpanRing& r = ring();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<SpanRecord> out(std::make_move_iterator(r.spans.begin()),
                              std::make_move_iterator(r.spans.end()));
  r.spans.clear();
  return out;
}

std::vector<SpanRecord> spans_for_trace(uint64_t trace_id) {
  std::vector<SpanRecord> out;
  if (trace_id == 0) return out;
  SpanRing& r = ring();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& s : r.spans) {
    if (s.trace_id == trace_id) out.push_back(s);
  }
  return out;
}

std::string process_name() {
  std::lock_guard<std::mutex> lock(g_process_name_mutex);
  if (g_process_name == nullptr) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* env = std::getenv("MORPH_PROCESS");
    if (env != nullptr && env[0] != '\0') {
      g_process_name = new std::string(env);
    } else {
      g_process_name = new std::string("pid-" + std::to_string(getpid()));
    }
  }
  return *g_process_name;
}

void set_process_name(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_process_name_mutex);
  delete g_process_name;
  g_process_name = new std::string(name);
}

}  // namespace morph::obs
