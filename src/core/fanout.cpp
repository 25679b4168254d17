#include "core/fanout.hpp"

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
  cache_.clear();
  stats_.inc(C::cache_flushes);
}

pbio::FormatPtr FanoutPlanner::learn_format(pbio::FormatPtr fmt) {
  return formats_.register_format(std::move(fmt));
}

std::shared_ptr<const GroupPlan> FanoutPlanner::plan(const pbio::FormatPtr& source,
                                                     uint64_t target_fp) {
  stats_.inc(C::plans_requested);
  PlanCache::Lookup got = cache_.get(
      PlanKey{source->fingerprint(), target_fp},
      [&](std::shared_ptr<const GroupPlan>& plan) { plan = build_plan(source, target_fp); });
  if (got.flushed) stats_.inc(C::cache_flushes);
  if (got.built) {
    stats_.inc(C::plans_built);
    if (!got.entry->value->reachable()) stats_.inc(C::unreachable);
  } else {
    stats_.inc(C::cache_hits);
  }
  return got.entry->value;
}

std::shared_ptr<const GroupPlan> FanoutPlanner::build_plan(const pbio::FormatPtr& source,
                                                           uint64_t target_fp) {
  uint64_t t0 = obs::monotonic_ns();
  formats_.register_format(source);
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

  plan->chain_ = compile_peer_chain(
      *specs, "fanout", "fan-out chain for target fingerprint " + std::to_string(target_fp));
  if (plan->chain_ == nullptr) {
    stats_.inc(C::verify_rejected);
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

}  // namespace morph::core
