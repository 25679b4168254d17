#include "core/fanout.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace morph::core {

namespace {
using C = FanoutPlannerStats::Id;

obs::Histogram& build_ns() {
  static obs::Histogram& h =
      obs::metrics().histogram(obs::Metric::morph_span_ns, {"fanout.plan_build"});
  return h;
}
}  // namespace

void* GroupPlan::morph(const void* wire, size_t size, RecordArena& arena) const {
  void* rec = decode_->execute(wire, size, arena);
  if (chain_ == nullptr) return rec;
  return chain_->apply(rec, arena);
}

void* GroupPlan::morph_hopwise(const void* wire, size_t size, RecordArena& arena) const {
  void* rec = decode_->execute(wire, size, arena);
  if (chain_ == nullptr) return rec;
  return chain_->apply_hopwise(rec, arena);
}

size_t GroupPlan::encode(const void* record, ByteBuffer& out) const {
  return encoder_->encode(record, out);
}

FanoutPlanner::FanoutPlanner(bool fuse) : fuse_(fuse) {}

FanoutPlanner::Shard& FanoutPlanner::shard_for(const PlanKey& key) {
  size_t h = PlanKeyHash{}(key);
  return shards_[h & (kShards - 1)];
}

void FanoutPlanner::learn_transform(TransformSpec spec) {
  formats_.register_format(spec.src);
  formats_.register_format(spec.dst);
  {
    std::unique_lock lock(config_mutex_);
    transforms_.add(std::move(spec));
  }
  // New chains may supersede cached plans (e.g. a formerly unreachable
  // target becomes reachable). Plans already handed out stay valid — they
  // are shared_ptr-owned — they are just no longer returned.
  flush_cache();
}

pbio::FormatPtr FanoutPlanner::learn_format(pbio::FormatPtr fmt) {
  return formats_.register_format(std::move(fmt));
}

void FanoutPlanner::flush_cache() {
  for (auto& shard : shards_) {
    std::unique_lock lock(shard.mutex);
    shard.entries.clear();
  }
  stats_.inc(C::cache_flushes);
}

std::shared_ptr<const GroupPlan> FanoutPlanner::plan(const pbio::FormatPtr& source,
                                                     uint64_t target_fp) {
  stats_.inc(C::plans_requested);
  formats_.register_format(source);

  PlanKey key{source->fingerprint(), target_fp};
  Shard& shard = shard_for(key);

  std::shared_ptr<CacheEntry> entry;
  {
    std::shared_lock lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) entry = it->second;
  }
  bool inserted = false;
  if (entry == nullptr) {
    std::unique_lock lock(shard.mutex);
    auto [it, fresh] = shard.entries.try_emplace(key);
    if (fresh) it->second = std::make_shared<CacheEntry>();
    entry = it->second;
    inserted = fresh;
  }

  bool built_here = false;
  std::call_once(entry->once, [&] {
    entry->plan = build_plan(source, target_fp);
    built_here = true;
  });
  if (built_here) {
    stats_.inc(C::plans_built);
    if (!entry->plan->reachable()) {
      stats_.inc(C::unreachable);
    }
  } else {
    stats_.inc(C::cache_hits);
  }

  // Bound the cache: recomputable, so overflow just flushes (the hostile
  // peer streaming fresh fingerprints costs time, not memory).
  if (inserted && cached_plans() > kMaxCachedPlans) flush_cache();

  return entry->plan;
}

std::shared_ptr<const GroupPlan> FanoutPlanner::build_plan(const pbio::FormatPtr& source,
                                                           uint64_t target_fp) {
  uint64_t t0 = obs::monotonic_ns();
  auto plan = std::make_shared<GroupPlan>();
  plan->source_ = source;

  if (target_fp == source->fingerprint()) {
    // Identity group: subscribers registered the publish format itself.
    // The broker reuses the publisher's wire encoding, but the plan can
    // still decode/encode for callers that want a materialized record.
    plan->target_ = source;
    plan->decode_ = std::make_unique<pbio::ConversionPlan>(source, source);
    plan->encoder_ = std::make_unique<pbio::Encoder>(source);
    plan->reachable_ = true;
    build_ns().record(obs::monotonic_ns() - t0);
    return plan;
  }

  std::shared_lock config_lock(config_mutex_);
  pbio::FormatPtr target = formats_.by_fingerprint(target_fp);
  if (target == nullptr) {
    MORPH_LOG_DEBUG("fanout") << "no format definition for target fingerprint " << target_fp;
    return plan;
  }
  auto specs = transforms_.chain(source->fingerprint(), target_fp);
  if (!specs || specs->empty()) {
    MORPH_LOG_DEBUG("fanout") << "no transform chain " << source->name() << " -> "
                              << target->name() << " (" << target_fp << ")";
    return plan;
  }

  ecode::CompileOptions copts;
  copts.verify = true;
  try {
    plan->chain_ = std::make_shared<MorphChain>(*specs, copts, fuse_);
  } catch (const ecode::VerifyError& e) {
    stats_.inc(C::verify_rejected);
    std::ostringstream msg;
    msg << "fan-out chain for target fingerprint " << target_fp
        << " rejected by the static verifier:";
    for (const auto& f : e.result().findings) msg << "\n  " << f.to_string();
    MORPH_LOG_WARN("fanout") << msg.str();
    return plan;
  }
  if (plan->chain_->fused()) {
    stats_.inc(C::chains_fused);
  } else if (plan->chain_->hops() > 1) {
    stats_.inc(C::fusion_bailouts);
  }

  // The chain compiles against host-native relayouts; decode the publisher's
  // wire bytes straight into the chain's input layout (decode-into-morph),
  // and encode from the chain's output layout.
  plan->target_ = plan->chain_->dst_format();
  plan->decode_ = std::make_unique<pbio::ConversionPlan>(source, plan->chain_->src_format());
  plan->encoder_ = std::make_unique<pbio::Encoder>(plan->target_);
  plan->reachable_ = true;
  build_ns().record(obs::monotonic_ns() - t0);
  return plan;
}

size_t FanoutPlanner::cached_plans() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    total += shard.entries.size();
  }
  return total;
}

}  // namespace morph::core
