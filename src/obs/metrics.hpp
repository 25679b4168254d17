// Lock-light metrics for the morphing pipeline.
//
// Three metric kinds, all safe to record from any thread with nothing
// heavier than a relaxed atomic add on the hot path:
//
//   Counter    monotone u64, striped across cache lines so concurrent
//              writers never share a line;
//   Gauge      a double that can move both ways (queue depth, code bytes);
//   Histogram  log-linear buckets (exact 0..15, then 16 sub-buckets per
//              power of two, ~6% worst-case relative error) with p50/p90/
//              p99/max extraction from a scrape-time snapshot. Recording is
//              one relaxed add into a per-thread-stripe bucket array.
//
// A MetricsRegistry owns metrics by name. Names follow the Prometheus
// convention and may bake labels in (`morph_rx_decode_ns{fmt="X"}`); the
// exporters (obs/export.hpp) understand that shape. Metrics are never
// removed, so a reference obtained once stays valid for the registry's
// lifetime — hot paths look a metric up once and keep the pointer.
//
// Scraping (snapshot()) runs concurrently with recording: it sums the
// stripes with relaxed loads. A snapshot is a plain-data point-in-time
// view, exact for quiescent metrics and within one in-flight update
// otherwise. The TSan suite runs writers against scrapers to keep this
// honest.
//
// Every name the middleware registers is a family of the metric catalog
// (obs/catalog.hpp), looked up through the Metric overloads below.
//
// A subsystem whose instances keep their own counts (a Receiver, a port, a
// server) declares them once, as an X-macro list of (field, catalog family,
// label value) entries, and keeps them in a CounterSet: one relaxed atomic
// per counter, owned by the instance and attached to the registry Counter
// of that series.
// The registry reads live slots at scrape time, so each event costs one
// add, and the instance's stats() and the scrape read the same store.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/catalog.hpp"

namespace morph::obs {

/// Stable per-thread stripe index (round-robin at first use per thread).
inline uint32_t thread_stripe() {
  static std::atomic<uint32_t> next{0};
  thread_local uint32_t idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx;
}

/// Registry-side link of one live CounterSet slot: the intrusive list node
/// through which its Counter reads it.
struct SlotLink {
  const std::atomic<uint64_t>* value = nullptr;
  SlotLink* prev = nullptr;
  SlotLink* next = nullptr;
};

/// Monotone counter, striped to keep concurrent writers off each other's
/// cache lines. Besides its own adds it sums the CounterSet slots attached
/// to it; a destroyed set's slots are folded into the stripes.
class Counter {
 public:
  void add(uint64_t delta) {
    stripes_[thread_stripe() & (kStripes - 1)].v.fetch_add(delta, std::memory_order_relaxed);
  }
  void inc() { add(1); }

  /// Stripes plus live slots, read under the lock that attach and fold
  /// take: a slot is counted either live or folded, never both or neither,
  /// so successive reads never go backwards.
  uint64_t value() const;

 private:
  template <class Stats>
  friend class CounterSet;

  /// Link `slot` into the live list (CounterSet construction).
  void attach(SlotLink& slot);
  /// Add `slot`'s final value to the stripes and unlink it (CounterSet
  /// destruction).
  void fold(SlotLink& slot);

  static constexpr size_t kStripes = 8;
  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  Stripe stripes_[kStripes];
  mutable std::mutex slots_mutex_;
  SlotLink* live_ = nullptr;  // guarded by slots_mutex_
};

/// A double-valued gauge (atomic<double> is lock-free on every target we
/// build for; add() is a CAS loop, fine for the rare writers gauges have).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time view of one histogram. `buckets` holds only non-empty
/// buckets as (inclusive upper bound, count), ascending.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  std::vector<std::pair<uint64_t, uint64_t>> buckets;

  /// Estimated value at quantile q in [0,1]: the representative (midpoint)
  /// of the bucket containing the q-th sample. Monotone in q; 0 when empty.
  uint64_t percentile(double q) const;
};

/// Log-linear latency histogram. Values are clamped to [0, 2^40) (about
/// 18 minutes in nanoseconds); buckets 0..15 are exact, after that each
/// power of two splits into 16 linear sub-buckets.
class Histogram {
 public:
  static constexpr uint64_t kMaxValue = (1ull << 40) - 1;
  static constexpr size_t kSubBits = 4;  // 16 sub-buckets per octave
  static constexpr size_t kBuckets = (40 - kSubBits + 1) << kSubBits;  // 592

  static size_t bucket_index(uint64_t v) {
    if (v < (1u << kSubBits)) return static_cast<size_t>(v);
    if (v > kMaxValue) v = kMaxValue;
    const int msb = 63 - std::countl_zero(v);
    return ((static_cast<size_t>(msb) - kSubBits + 1) << kSubBits) +
           ((v >> (msb - kSubBits)) & ((1u << kSubBits) - 1));
  }

  /// Inclusive upper bound of bucket `idx`.
  static uint64_t bucket_upper(size_t idx);
  /// Representative (midpoint) value of bucket `idx`.
  static uint64_t bucket_mid(size_t idx);

  void record(uint64_t v) {
    const size_t stripe = thread_stripe() & (kStripes - 1);
    stripes_[stripe].buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    stripes_[stripe].sum.fetch_add(v, std::memory_order_relaxed);
    uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot snapshot() const;

 private:
  static constexpr size_t kStripes = 4;
  struct Stripe {
    std::atomic<uint64_t> buckets[kBuckets] = {};
    std::atomic<uint64_t> sum{0};
  };
  // Heap-allocated so an unrecorded histogram costs pointer-sized registry
  // space but the stripes are still plain arrays of relaxed atomics.
  std::unique_ptr<Stripe[]> stripes_ = std::make_unique<Stripe[]>(kStripes);
  std::atomic<uint64_t> max_{0};
};

/// Everything the registry knew at one instant, sorted by name (stable
/// output for exporters and snapshot diffing).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
};

/// Named metric store. Lookup takes a short lock; returned references stay
/// valid forever (metrics are never erased). Use `global()` for the
/// process-wide registry every built-in instrumentation point records to;
/// tests may instantiate private registries.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// The series of a catalogued family, label values in its key order.
  using Labels = std::initializer_list<std::string_view>;
  Counter& counter(Metric family, Labels values = {}) { return counter(series(family, values)); }
  Gauge& gauge(Metric family, Labels values = {}) { return gauge(series(family, values)); }
  Histogram& histogram(Metric family, Labels values = {}) {
    return histogram(series(family, values));
  }

  MetricsSnapshot snapshot() const;

  static MetricsRegistry& global();

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// Shorthand for MetricsRegistry::global().
MetricsRegistry& metrics();

/// One entry of a subsystem's counter list: the stats field it fills and
/// the catalog series it exports as, or no family for a counter kept per
/// instance only.
template <class Stats>
struct StatField {
  uint64_t Stats::*field;
  std::optional<Metric> family = std::nullopt;
  const char* label = nullptr;  // the series' label value, for a labeled family

  std::string series() const {
    if (!family) return "";
    return label != nullptr ? obs::series(*family, {label}) : obs::series(*family);
  }
};

#define MORPH_STATS_FIELD_(field, ...) uint64_t field = 0;
#define MORPH_STATS_ID_(field, ...) field,
#define MORPH_STATS_COUNT_(field, ...) +1
#define MORPH_STATS_ENTRY_(field, ...) \
  ::morph::obs::StatField<S>{&S::field __VA_OPT__(, ::morph::obs::Metric::__VA_ARGS__)},

/// Inside a stats struct, declares its counters from one X-macro list of
/// `X(field, family, "label value")` entries (`X(field, family)` for an
/// unlabeled family, `X(field)` for a per-instance counter): a uint64_t per
/// entry, the slot ids `Self::Id::field`, their number, and the field table
/// `fields()` that CounterSet, stats_delta and stats_add walk.
#define MORPH_STATS(Self, LIST)                                     \
  LIST(MORPH_STATS_FIELD_)                                          \
  enum class Id : size_t { LIST(MORPH_STATS_ID_) };                 \
  static constexpr size_t kCounters = 0 LIST(MORPH_STATS_COUNT_);   \
  static constexpr auto fields() {                                  \
    using S = Self;                                                 \
    return std::array{LIST(MORPH_STATS_ENTRY_)};                    \
  }

/// Field-wise `later - earlier`: what happened between two snapshots.
/// Counters are monotone, so with snapshots taken in order every field is
/// well-defined (wraps if you subtract a later snapshot).
template <class Stats>
Stats stats_delta(Stats later, const Stats& earlier) {
  for (const auto& f : Stats::fields()) later.*f.field -= earlier.*f.field;
  return later;
}

/// Field-wise sum: aggregates the stats of several instances.
template <class Stats>
Stats& stats_add(Stats& into, const Stats& other) {
  for (const auto& f : Stats::fields()) into.*f.field += other.*f.field;
  return into;
}

/// The live counters of one instance of a subsystem whose stats struct is
/// declared with MORPH_STATS. Each slot is a relaxed atomic; a named slot
/// is attached to the global registry's Counter of that name for the set's
/// lifetime and folded into it on destruction, so scrapes count every
/// event once, whether its instance is alive or gone.
template <class Stats>
class CounterSet {
 public:
  using Id = typename Stats::Id;

  CounterSet() {
    const auto& counters = registry_counters();
    for (size_t i = 0; i < kSize; ++i) {
      if (counters[i] == nullptr) continue;
      links_[i].value = &slots_[i];
      counters[i]->attach(links_[i]);
    }
  }
  ~CounterSet() {
    const auto& counters = registry_counters();
    for (size_t i = 0; i < kSize; ++i) {
      if (counters[i] != nullptr) counters[i]->fold(links_[i]);
    }
  }
  CounterSet(const CounterSet&) = delete;
  CounterSet& operator=(const CounterSet&) = delete;

  void add(Id id, uint64_t delta) {
    slots_[static_cast<size_t>(id)].fetch_add(delta, std::memory_order_relaxed);
  }
  void inc(Id id) { add(id, 1); }
  /// Field-wise add of a tally (zero fields cost nothing).
  void add(const Stats& delta) {
    constexpr auto fields = Stats::fields();
    for (size_t i = 0; i < kSize; ++i) {
      const uint64_t v = delta.*fields[i].field;
      if (v != 0) slots_[i].fetch_add(v, std::memory_order_relaxed);
    }
  }

  /// A point-in-time copy (relaxed loads, like a scrape).
  Stats load() const {
    constexpr auto fields = Stats::fields();
    Stats s;
    for (size_t i = 0; i < kSize; ++i) {
      s.*fields[i].field = slots_[i].load(std::memory_order_relaxed);
    }
    return s;
  }

 private:
  // The size only: a stats struct nested in its owner's class has no
  // fields() table until the owner is complete.
  static constexpr size_t kSize = Stats::kCounters;

  /// The registry Counter behind each named slot, looked up once per type.
  static const std::array<Counter*, kSize>& registry_counters() {
    static const std::array<Counter*, kSize> counters = [] {
      std::array<Counter*, kSize> c{};
      constexpr auto fields = Stats::fields();
      for (size_t i = 0; i < kSize; ++i) {
        if (fields[i].family) c[i] = &metrics().counter(fields[i].series());
      }
      return c;
    }();
    return counters;
  }

  std::array<std::atomic<uint64_t>, kSize> slots_{};
  std::array<SlotLink, kSize> links_{};
};

}  // namespace morph::obs
