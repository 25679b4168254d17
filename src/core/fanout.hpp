// Broker-scale fan-out planning: morph once per target format, not once per
// subscriber.
//
// A publisher whose channel has 10k subscribers spread over 3 format
// revisions should pay 3 morphs per event, not 10k. The FanoutPlanner
// compiles and caches one GroupPlan per (source format, target fingerprint)
// pair; a plan bundles the whole per-group pipeline — decode the publisher's
// wire bytes into the chain's input layout, run the (fused) retro-transform
// chain once, encode the morphed record once — so the broker can hand the
// same encoded payload to every subscriber in the group.
//
// The cache follows the Receiver's sharded decision-cache discipline
// (receiver.cpp): shards guarded by shared_mutex for lookup, a once_flag per
// entry so a plan compiles exactly once under stampede, and shared_ptr
// entries so plans handed out survive cache flushes triggered by
// learn_transform or overflow. plan() and GroupPlan::morph()/encode() are
// safe to call from any thread; the planner must outlive the plans it
// returns.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "core/transform.hpp"
#include "obs/metrics.hpp"
#include "pbio/decode.hpp"
#include "pbio/encode.hpp"
#include "pbio/registry.hpp"

namespace morph::core {

/// The compiled pipeline for one fan-out group. Immutable after build;
/// morph() and encode() are const and thread-safe (each call materializes
/// into the caller's arena/buffer).
class GroupPlan {
 public:
  /// False when the target fingerprint has no learned format definition or
  /// no transform chain from the source — the caller must fall back to
  /// per-subscriber delivery for that group. Also false when the chain was
  /// rejected by the static verifier.
  bool reachable() const { return reachable_; }

  /// True when target == source: no morph needed, the group can reuse the
  /// publisher's own wire encoding.
  bool identity() const { return chain_ == nullptr; }

  const pbio::FormatPtr& source() const { return source_; }
  /// Format the group's records are encoded in. For morphing plans this is
  /// the host-native relayout of the chain's destination (same fingerprint
  /// as the subscriber's registered format whenever both ends share a
  /// layout; a foreign-layout subscriber reconciles it as a perfect match).
  const pbio::FormatPtr& target() const { return target_; }
  const MorphChain* chain() const { return chain_.get(); }

  /// Decode the publisher's wire bytes (PBIO message, no frame header) and
  /// run the chain once — the receiver pipeline executed once per group
  /// instead of once per subscriber. Returns the morphed native record,
  /// arena-owned. Identity plans just decode.
  void* morph(const void* wire, size_t size, RecordArena& arena) const;

  /// Same as morph() but hop-wise (never fused) — the reference execution
  /// the differential tests compare fused output against.
  void* morph_hopwise(const void* wire, size_t size, RecordArena& arena) const;

  /// Encode a record produced by morph() into `out`; the shared per-group
  /// encode. Returns the encoded size.
  size_t encode(const void* record, ByteBuffer& out) const;

 private:
  friend class FanoutPlanner;

  pbio::FormatPtr source_;
  pbio::FormatPtr target_;
  std::shared_ptr<MorphChain> chain_;  // null for identity plans
  std::unique_ptr<pbio::ConversionPlan> decode_;
  std::unique_ptr<pbio::Encoder> encoder_;
  bool reachable_ = false;
};

/// The planner's counters: FanoutPlannerStats field and catalog
/// series, or none for the per-instance request total.
#define MORPH_FANOUT_PLANNER_COUNTERS(X)                         \
  X(plans_requested)                                             \
  X(cache_hits, morph_fanout_plans_total, "hit")                 \
  X(plans_built, morph_fanout_plans_total, "built")              \
  X(unreachable, morph_fanout_plans_total, "unreachable")        \
  X(chains_fused, morph_fanout_chain_fusion_total, "fused")      \
  X(fusion_bailouts, morph_fanout_chain_fusion_total, "bailout") \
  X(verify_rejected, morph_fanout_verify_rejected_total)         \
  X(cache_flushes, morph_fanout_cache_flushes_total)

/// Point-in-time copy of the planner's counters.
struct FanoutPlannerStats {
  MORPH_STATS(FanoutPlannerStats, MORPH_FANOUT_PLANNER_COUNTERS)
};

class FanoutPlanner {
 public:
  /// Transform specs reach the planner from peers, so every chain compiles
  /// under the static verifier, as in the receiver: a chain failing it makes
  /// its target unreachable (the caller falls back to per-subscriber
  /// delivery), and nothing is ever delivered unverified. `fuse` fuses
  /// multi-hop chains into one compiled transform (ecode/fuse.hpp).
  explicit FanoutPlanner(bool fuse = true);

  /// Cache bound, same rationale as ReceiverOptions::max_cached_decisions:
  /// plans are recomputable, so overflow flushes the whole cache.
  static constexpr size_t kMaxCachedPlans = 1024;

  /// Learn a transform (typically a declared retro-transform). Flushes the
  /// plan cache: cached plans may be stale once new chains exist. The
  /// spec's formats are learned as a side effect.
  void learn_transform(TransformSpec spec);

  /// Learn a format definition (e.g. a subscriber-announced target that no
  /// transform mentions). Idempotent.
  pbio::FormatPtr learn_format(pbio::FormatPtr fmt);

  /// The plan for delivering `source`-format events to subscribers whose
  /// registered format has fingerprint `target_fp`. Never null; check
  /// reachable(). Concurrent callers of the same cold key block on one
  /// build (once_flag), as in the receiver's decision cache.
  std::shared_ptr<const GroupPlan> plan(const pbio::FormatPtr& source, uint64_t target_fp);

  FanoutPlannerStats stats() const { return stats_.load(); }
  size_t cached_plans() const;

 private:
  struct PlanKey {
    uint64_t src = 0;
    uint64_t dst = 0;
    bool operator==(const PlanKey& o) const { return src == o.src && dst == o.dst; }
  };
  struct PlanKeyHash {
    size_t operator()(const PlanKey& k) const {
      uint64_t h = k.src * 0x9e3779b97f4a7c15ull ^ (k.dst + 0x517cc1b727220a95ull);
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };
  struct CacheEntry {
    std::once_flag once;
    std::shared_ptr<const GroupPlan> plan;
  };
  static constexpr size_t kShards = 16;
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<PlanKey, std::shared_ptr<CacheEntry>, PlanKeyHash> entries;
  };

  Shard& shard_for(const PlanKey& key);
  std::shared_ptr<const GroupPlan> build_plan(const pbio::FormatPtr& source, uint64_t target_fp);
  void flush_cache();

  const bool fuse_;
  std::array<Shard, kShards> shards_;
  /// Shared for plan builds, exclusive for learn_transform — same
  /// config-vs-build locking as the receiver.
  mutable std::shared_mutex config_mutex_;
  TransformCatalog transforms_;
  pbio::FormatRegistry formats_;

  obs::CounterSet<FanoutPlannerStats> stats_;
};

}  // namespace morph::core
