#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

namespace morph::obs {

uint64_t Histogram::bucket_upper(size_t idx) {
  if (idx < (1u << kSubBits)) return idx;
  const size_t octave = idx >> kSubBits;
  const size_t sub = idx & ((1u << kSubBits) - 1);
  const int msb = static_cast<int>(octave) + static_cast<int>(kSubBits) - 1;
  const uint64_t lower = (1ull << msb) | (static_cast<uint64_t>(sub) << (msb - kSubBits));
  return lower + (1ull << (msb - kSubBits)) - 1;
}

uint64_t Histogram::bucket_mid(size_t idx) {
  if (idx < (1u << kSubBits)) return idx;  // exact buckets
  const size_t octave = idx >> kSubBits;
  const int msb = static_cast<int>(octave) + static_cast<int>(kSubBits) - 1;
  const uint64_t width = 1ull << (msb - kSubBits);
  return bucket_upper(idx) - width / 2;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  uint64_t counts[kBuckets] = {};
  for (size_t st = 0; st < kStripes; ++st) {
    for (size_t i = 0; i < kBuckets; ++i) {
      counts[i] += stripes_[st].buckets[i].load(std::memory_order_relaxed);
    }
    s.sum += stripes_[st].sum.load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    s.count += counts[i];
    s.buckets.emplace_back(bucket_upper(i), counts[i]);
  }
  s.max = max_.load(std::memory_order_relaxed);
  return s;
}

uint64_t HistogramSnapshot::percentile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const uint64_t target = std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count))));
  uint64_t cum = 0;
  for (const auto& [upper, n] : buckets) {
    cum += n;
    if (cum >= target) return Histogram::bucket_mid(Histogram::bucket_index(upper));
  }
  return max;
}

uint64_t Counter::value() const {
  std::lock_guard<std::mutex> lock(slots_mutex_);
  uint64_t sum = 0;
  for (const auto& s : stripes_) sum += s.v.load(std::memory_order_relaxed);
  for (const SlotLink* l = live_; l != nullptr; l = l->next) {
    sum += l->value->load(std::memory_order_relaxed);
  }
  return sum;
}

void Counter::attach(SlotLink& slot) {
  std::lock_guard<std::mutex> lock(slots_mutex_);
  slot.prev = nullptr;
  slot.next = live_;
  if (live_ != nullptr) live_->prev = &slot;
  live_ = &slot;
}

void Counter::fold(SlotLink& slot) {
  std::lock_guard<std::mutex> lock(slots_mutex_);
  add(slot.value->load(std::memory_order_relaxed));
  if (slot.prev != nullptr) {
    slot.prev->next = slot.next;
  } else {
    live_ = slot.next;
  }
  if (slot.next != nullptr) slot.next->prev = slot.prev;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  {
    std::shared_lock lock(mutex_);
    auto it = counters_.find(name);
    if (it != counters_.end()) return *it->second;
  }
  std::unique_lock lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  {
    std::shared_lock lock(mutex_);
    auto it = gauges_.find(name);
    if (it != gauges_.end()) return *it->second;
  }
  std::unique_lock lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  {
    std::shared_lock lock(mutex_);
    auto it = histograms_.find(name);
    if (it != histograms_.end()) return *it->second;
  }
  std::unique_lock lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  std::shared_lock lock(mutex_);
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->value());
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) s.histograms.emplace_back(name, h->snapshot());
  return s;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* reg = new MetricsRegistry();  // leaked: outlives all users
  return *reg;
}

MetricsRegistry& metrics() { return MetricsRegistry::global(); }

}  // namespace morph::obs
