// The build-once cache behind Algorithm 2's "build a format's pipeline
// once, replay it for every later message". core::Receiver keys its
// decisions by wire fingerprint; core::FanoutPlanner keys its group plans
// by (source, target) fingerprint pair.
//
//   * A lookup of a built entry takes one shard reader lock and copies one
//     shared_ptr.
//   * A cold key's build runs exactly once: concurrent arrivals block on
//     that entry's once-flag (never on a shard or the whole cache), and no
//     shard lock is held while it runs, so other keys keep flowing.
//   * Entries are shared_ptr-owned: whatever a caller holds survives a
//     flush or an erase, and late threads read the built value with the
//     happens-before edge call_once provides.
//   * The cache is bounded. Entries are recomputable, so the insertion that
//     takes it past kMaxCachedBuilds flushes it whole (a peer streaming fresh
//     keys costs time, not memory), and get() says so for the caller's
//     flush counter.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace morph::core {

/// The one bound on every build-once cache.
inline constexpr size_t kMaxCachedBuilds = 1024;

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class BuildOnceCache {
 public:
  struct Entry {
    std::once_flag once;
    Value value;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  struct Lookup {
    EntryPtr entry;
    bool built = false;    // this call ran the build
    bool flushed = false;  // this call's insertion overflowed the bound and flushed
  };

  /// The entry for `key`, built by `build(Value&)` first unless some caller
  /// already did. A build that throws leaves the entry unbuilt, so the next
  /// caller retries.
  template <typename Build>
  Lookup get(const Key& key, Build&& build) {
    Lookup out;
    Shard& shard = shard_for(key);
    {
      std::shared_lock lock(shard.mutex);
      auto it = shard.entries.find(key);
      if (it != shard.entries.end()) out.entry = it->second;
    }
    if (out.entry == nullptr) {
      bool inserted = false;
      {
        std::unique_lock lock(shard.mutex);
        auto [it, fresh] = shard.entries.try_emplace(key);
        if (fresh) {
          it->second = std::make_shared<Entry>();
          size_.fetch_add(1, std::memory_order_relaxed);
        }
        out.entry = it->second;
        inserted = fresh;
      }
      // Racy by design: concurrent overflowing callers may each flush, but
      // a flush only costs recomputation, never correctness.
      if (inserted && size() > kMaxCachedBuilds) {
        clear();
        out.flushed = true;
      }
    }
    std::call_once(out.entry->once, [&] {
      build(out.entry->value);
      out.built = true;
    });
    return out;
  }

  /// Drop `key`'s entry — when `only` is set, only if it is still that
  /// entry (a flush and a rebuild may have replaced it meanwhile).
  void erase(const Key& key, const Entry* only = nullptr) {
    Shard& shard = shard_for(key);
    std::unique_lock lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end() || (only != nullptr && it->second.get() != only)) return;
    shard.entries.erase(it);
    size_.fetch_sub(1, std::memory_order_relaxed);
  }

  void clear() {
    for (Shard& shard : shards_) {
      std::unique_lock lock(shard.mutex);
      size_.fetch_sub(shard.entries.size(), std::memory_order_relaxed);
      shard.entries.clear();
    }
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }

 private:
  static constexpr size_t kShards = 16;  // power of two
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<Key, EntryPtr, Hash> entries;
  };

  Shard& shard_for(const Key& key) {
    // Fold the high bits in so shard choice never degenerates even if a
    // bit range of the (fingerprint-derived) hash is biased.
    const uint64_t h = Hash{}(key);
    return shards_[(h ^ (h >> 32)) & (kShards - 1)];
  }

  std::array<Shard, kShards> shards_;
  /// Every change is made under the lock of the shard it changes, so the
  /// count always equals the sum of the shard sizes once writers quiesce.
  std::atomic<size_t> size_{0};
};

}  // namespace morph::core
