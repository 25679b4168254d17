#include "core/receiver.hpp"

#include <iterator>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "pbio/encode.hpp"
#include "pbio/record.hpp"

namespace morph::core {

using pbio::FormatPtr;

namespace {
constexpr auto kRelaxed = std::memory_order_relaxed;

/// Process-wide mirrors of the per-receiver counters, so one scrape covers
/// every Receiver in the process. The per-instance Counters stay
/// authoritative for stats(); these are bumped alongside them (same relaxed
/// adds, so the mirror costs one extra add per event).
struct RxMetrics {
  obs::Counter& messages;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Counter& cache_flushes;
  obs::Counter& exact;
  obs::Counter& perfect;
  obs::Counter& morphed;
  obs::Counter& reconciled;
  obs::Counter& morphed_reconciled;
  obs::Counter& defaulted;
  obs::Counter& rejected;
  obs::Counter& zero_copy;
  obs::Counter& verify_rejected;
  obs::Counter& transforms_compiled;
  obs::Counter& resolve_fetched;
  obs::Counter& resolve_degraded;
  obs::Counter& morph_fused;
  obs::Counter& morph_hopwise;
  obs::Counter& morph_inplace;
  obs::Counter& morphs;  // morph executions (chain and/or reconcile ran)
  obs::Counter& chain_fused_builds;
  obs::Counter& chain_fusion_bailouts;
  obs::Histogram& chain_hops;
  obs::Histogram& decide_hit_ns;
  obs::Histogram& decide_miss_ns;
  obs::Histogram& build_ns;
  obs::Histogram& match_ns;

  RxMetrics()
      : messages(obs::metrics().counter("morph_rx_messages_total")),
        cache_hits(obs::metrics().counter("morph_rx_cache_events_total{event=\"hit\"}")),
        cache_misses(obs::metrics().counter("morph_rx_cache_events_total{event=\"miss\"}")),
        cache_flushes(obs::metrics().counter("morph_rx_cache_events_total{event=\"flush\"}")),
        exact(obs::metrics().counter("morph_rx_outcome_total{outcome=\"exact\"}")),
        perfect(obs::metrics().counter("morph_rx_outcome_total{outcome=\"perfect\"}")),
        morphed(obs::metrics().counter("morph_rx_outcome_total{outcome=\"morphed\"}")),
        reconciled(obs::metrics().counter("morph_rx_outcome_total{outcome=\"reconciled\"}")),
        morphed_reconciled(
            obs::metrics().counter("morph_rx_outcome_total{outcome=\"morphed+reconciled\"}")),
        defaulted(obs::metrics().counter("morph_rx_outcome_total{outcome=\"defaulted\"}")),
        rejected(obs::metrics().counter("morph_rx_outcome_total{outcome=\"rejected\"}")),
        zero_copy(obs::metrics().counter("morph_rx_zero_copy_total")),
        verify_rejected(obs::metrics().counter("morph_rx_verify_rejected_total")),
        transforms_compiled(obs::metrics().counter("morph_rx_transforms_compiled_total")),
        resolve_fetched(obs::metrics().counter("morph_rx_resolve_total{result=\"fetched\"}")),
        resolve_degraded(obs::metrics().counter("morph_rx_resolve_total{result=\"degraded\"}")),
        morph_fused(obs::metrics().counter("morph_rx_fused_total")),
        morph_hopwise(obs::metrics().counter("morph_rx_hopwise_total")),
        morph_inplace(obs::metrics().counter("morph_rx_morph_inplace_total")),
        morphs(obs::metrics().counter("morph_rx_morphs_total")),
        chain_fused_builds(obs::metrics().counter("morph_rx_chain_fusion_total{result=\"fused\"}")),
        chain_fusion_bailouts(
            obs::metrics().counter("morph_rx_chain_fusion_total{result=\"bailout\"}")),
        chain_hops(obs::metrics().histogram("morph_rx_chain_hops")),
        decide_hit_ns(obs::metrics().histogram("morph_rx_decide_ns{result=\"hit\"}")),
        decide_miss_ns(obs::metrics().histogram("morph_rx_decide_ns{result=\"miss\"}")),
        build_ns(obs::metrics().histogram("morph_rx_decision_build_ns")),
        match_ns(obs::metrics().histogram("morph_rx_match_ns")) {}
};

RxMetrics& rx() {
  static RxMetrics& m = *new RxMetrics();  // leaked: outlives static dtors
  return m;
}

/// Every ReceiverStats counter, so field-wise arithmetic lives in one place.
constexpr uint64_t ReceiverStats::*kStatFields[] = {
    &ReceiverStats::messages,        &ReceiverStats::cache_hits,
    &ReceiverStats::cache_misses,    &ReceiverStats::exact,
    &ReceiverStats::perfect,         &ReceiverStats::morphed,
    &ReceiverStats::reconciled,      &ReceiverStats::defaulted,
    &ReceiverStats::rejected,        &ReceiverStats::transforms_compiled,
    &ReceiverStats::verify_rejected, &ReceiverStats::zero_copy,
    &ReceiverStats::cache_flushes,   &ReceiverStats::resolve_fetched,
    &ReceiverStats::resolve_degraded, &ReceiverStats::morph_fused,
    &ReceiverStats::morph_hopwise,   &ReceiverStats::morph_inplace,
    &ReceiverStats::chains_fused,    &ReceiverStats::fusion_bailouts,
};
static_assert(sizeof(ReceiverStats) == std::size(kStatFields) * sizeof(uint64_t),
              "a ReceiverStats field is missing from kStatFields");
}  // namespace

ReceiverStats ReceiverStats::delta(const ReceiverStats& earlier) const {
  ReceiverStats d = *this;
  for (auto f : kStatFields) d.*f -= earlier.*f;
  return d;
}

ReceiverStats& ReceiverStats::operator+=(const ReceiverStats& other) {
  for (auto f : kStatFields) this->*f += other.*f;
  return *this;
}

const char* resolve_policy_name(ResolvePolicy p) {
  switch (p) {
    case ResolvePolicy::kFail: return "fail";
    case ResolvePolicy::kFetch: return "fetch";
    case ResolvePolicy::kFetchOrInline: return "fetch-or-inline";
  }
  return "?";
}

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kExact: return "exact";
    case Outcome::kPerfect: return "perfect";
    case Outcome::kMorphed: return "morphed";
    case Outcome::kReconciled: return "reconciled";
    case Outcome::kMorphedReconciled: return "morphed+reconciled";
    case Outcome::kDefaulted: return "defaulted";
    case Outcome::kRejected: return "rejected";
  }
  return "?";
}

Receiver::Receiver(ReceiverOptions options) : options_(options) {}

void Receiver::register_handler(FormatPtr fmt, Handler handler) {
  fmt = reader_formats_.register_format(std::move(fmt));
  {
    std::unique_lock lock(config_mutex_);
    handlers_[fmt->fingerprint()] = std::make_shared<Handler>(std::move(handler));
  }
  flush_cache();  // registrations invalidate cached decisions
}

void Receiver::set_default_handler(DefaultHandler handler) {
  {
    std::unique_lock lock(config_mutex_);
    default_handler_ = std::make_shared<DefaultHandler>(std::move(handler));
  }
  flush_cache();
}

FormatPtr Receiver::learn_format(FormatPtr fmt) {
  const uint64_t fp = fmt->fingerprint();
  const bool known = learned_.by_fingerprint(fp) != nullptr;
  FormatPtr out = learned_.register_format(std::move(fmt));
  if (!known) {
    // A genuinely new definition can only change this fingerprint's own
    // decision (it was previously rejected as unknown — e.g. built while
    // the format service was unreachable), so evict exactly that entry
    // instead of flushing the whole cache.
    Shard& shard = shard_for(fp);
    std::unique_lock lock(shard.mutex);
    if (shard.entries.erase(fp) != 0) cached_count_.fetch_sub(1, kRelaxed);
  }
  return out;
}

void Receiver::learn_transform(TransformSpec spec) {
  learned_.register_format(spec.src);
  learned_.register_format(spec.dst);
  {
    std::unique_lock lock(config_mutex_);
    transforms_.add(std::move(spec));
  }
  flush_cache();  // new transforms may unlock previously rejected formats
}

std::vector<FormatPtr> Receiver::reader_formats(const std::string& name) const {
  return reader_formats_.by_name(name);
}

ReceiverStats Receiver::stats() const {
  ReceiverStats s;
  s.messages = stats_.messages.load(kRelaxed);
  s.cache_hits = stats_.cache_hits.load(kRelaxed);
  s.cache_misses = stats_.cache_misses.load(kRelaxed);
  s.exact = stats_.exact.load(kRelaxed);
  s.perfect = stats_.perfect.load(kRelaxed);
  s.morphed = stats_.morphed.load(kRelaxed);
  s.reconciled = stats_.reconciled.load(kRelaxed);
  s.defaulted = stats_.defaulted.load(kRelaxed);
  s.rejected = stats_.rejected.load(kRelaxed);
  s.transforms_compiled = stats_.transforms_compiled.load(kRelaxed);
  s.verify_rejected = stats_.verify_rejected.load(kRelaxed);
  s.zero_copy = stats_.zero_copy.load(kRelaxed);
  s.cache_flushes = stats_.cache_flushes.load(kRelaxed);
  s.resolve_fetched = stats_.resolve_fetched.load(kRelaxed);
  s.resolve_degraded = stats_.resolve_degraded.load(kRelaxed);
  s.morph_fused = stats_.morph_fused.load(kRelaxed);
  s.morph_hopwise = stats_.morph_hopwise.load(kRelaxed);
  s.morph_inplace = stats_.morph_inplace.load(kRelaxed);
  s.chains_fused = stats_.chains_fused.load(kRelaxed);
  s.fusion_bailouts = stats_.fusion_bailouts.load(kRelaxed);
  return s;
}

void Receiver::flush_cache() {
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mutex);
    shard.entries.clear();
  }
  cached_count_.store(0, kRelaxed);
}

Receiver::EntryPtr Receiver::decide(uint64_t fingerprint) {
  uint64_t t0 = obs::monotonic_ns();
  Shard& shard = shard_for(fingerprint);
  EntryPtr entry;
  {
    std::shared_lock lock(shard.mutex);
    auto it = shard.entries.find(fingerprint);
    if (it != shard.entries.end()) entry = it->second;
  }
  if (entry == nullptr) {
    if (cached_count_.load(kRelaxed) >= options_.max_cached_decisions) {
      // Racy by design: concurrent overflowing threads may each flush, but
      // a flush only costs recomputation, never correctness.
      flush_cache();
      stats_.cache_flushes.fetch_add(1, kRelaxed);
      rx().cache_flushes.inc();
    }
    std::unique_lock lock(shard.mutex);
    auto [it, inserted] = shard.entries.try_emplace(fingerprint);
    if (inserted) {
      it->second = std::make_shared<CacheEntry>();
      cached_count_.fetch_add(1, kRelaxed);
    }
    entry = it->second;
  }
  // The expensive pipeline build runs exactly once per entry; concurrent
  // cold arrivals for the same fingerprint serialize here — on this entry
  // only, never on the shard or the whole cache. No shard lock is held, so
  // other fingerprints keep flowing while this one compiles.
  bool built_here = false;
  std::call_once(entry->build_once, [&] {
    built_here = true;
    stats_.cache_misses.fetch_add(1, kRelaxed);
    rx().cache_misses.inc();
    // Out-of-band resolution happens here, before the shared config lock:
    // registering the fetched format and transforms takes the config lock
    // exclusively, which would deadlock from inside the build.
    maybe_resolve(fingerprint, entry->decision);
    uint64_t b0 = obs::monotonic_ns();
    {
      std::shared_lock config(config_mutex_);
      build_decision(entry->decision, fingerprint);
    }
    rx().build_ns.record(obs::monotonic_ns() - b0);
  });
  if (built_here && entry->decision.provisional) {
    // Don't cache a rejection caused by an unreachable format service:
    // drop the entry (unless a flush already did) so the next message of
    // this format retries the fetch. In-flight threads holding `entry`
    // still deliver against the provisional decision safely.
    std::unique_lock lock(shard.mutex);
    auto it = shard.entries.find(fingerprint);
    if (it != shard.entries.end() && it->second == entry) {
      shard.entries.erase(it);
      cached_count_.fetch_sub(1, kRelaxed);
    }
  }
  if (!built_here) {
    stats_.cache_hits.fetch_add(1, kRelaxed);
    rx().cache_hits.inc();
    rx().decide_hit_ns.record(obs::monotonic_ns() - t0);
  } else {
    rx().decide_miss_ns.record(obs::monotonic_ns() - t0);
  }
  return entry;
}

void Receiver::maybe_resolve(uint64_t fingerprint, Decision& d) {
  if (options_.format_source == nullptr || options_.resolve == ResolvePolicy::kFail) return;
  if (learned_.by_fingerprint(fingerprint) != nullptr) return;  // already known
  if (auto resolved = options_.format_source->resolve(fingerprint)) {
    add_resolved(std::move(*resolved));
    stats_.resolve_fetched.fetch_add(1, kRelaxed);
    rx().resolve_fetched.inc();
    return;
  }
  stats_.resolve_degraded.fetch_add(1, kRelaxed);
  rx().resolve_degraded.inc();
  MORPH_LOG_WARN("receiver") << "out-of-band resolve of fingerprint " << fingerprint
                             << " failed (policy "
                             << resolve_policy_name(options_.resolve) << ")";
  if (options_.resolve == ResolvePolicy::kFetchOrInline) d.provisional = true;
}

void Receiver::add_resolved(ResolvedFormat resolved) {
  learned_.register_format(resolved.format);
  for (const TransformSpec& spec : resolved.transforms) {
    learned_.register_format(spec.src);
    learned_.register_format(spec.dst);
  }
  std::unique_lock lock(config_mutex_);
  for (TransformSpec& spec : resolved.transforms) transforms_.add(std::move(spec));
  // No cache flush, unlike learn_transform: this runs inside the resolving
  // fingerprint's own first build, so no decision for it can be cached yet.
  // (Other formats' decisions don't see the fetched transforms until their
  // next build — the same staleness window inline delivery always had.)
}

void Receiver::build_decision(Decision& d, uint64_t fingerprint) {
  // Capture the default handler into the decision: set_default_handler
  // flushes the cache, so a cached copy can never go stale.
  d.default_handler = default_handler_;

  FormatPtr fm = learned_.by_fingerprint(fingerprint);
  if (fm == nullptr) {
    // Unknown format: no out-of-band definition arrived. Reject.
    MORPH_LOG_INFO("receiver") << "no format definition for fingerprint " << fingerprint;
    obs::flight_record(obs::FlightKind::kReject, obs::current_trace().trace_id,
                       "rx: no format definition for fingerprint " +
                           std::to_string(fingerprint));
    d.outcome = Outcome::kRejected;
    return;
  }

  std::vector<FormatPtr> fr = reader_formats_.by_name(fm->name());
  auto handler_for = [&](uint64_t fp) -> std::shared_ptr<Handler> {
    auto it = handlers_.find(fp);
    return it == handlers_.end() ? nullptr : it->second;
  };

  // Per-format latency series, cached on the decision so the steady-state
  // cost per message is one clock read + relaxed add. Labeled by format
  // *name* (bounded by the application's schema count), never fingerprint.
  // The name is baked raw; the exporters escape label values at render
  // time (obs/export.hpp), so escaping here would double up.
  d.fmt_name = fm->name();
  std::string fmt_label = "{fmt=\"" + fm->name() + "\"}";
  d.decode_ns = &obs::metrics().histogram("morph_rx_decode_ns" + fmt_label);
  d.morph_ns = &obs::metrics().histogram("morph_rx_morph_ns" + fmt_label);

  // Lines 11-15: MaxMatch(fm, Fr); a perfect pair needs only a layout
  // conversion (possibly a pure no-op when fingerprints coincide).
  uint64_t m0 = obs::monotonic_ns();
  auto first = max_match({fm}, fr, options_.thresholds);
  rx().match_ns.record(obs::monotonic_ns() - m0);
  if (auto& m = first; m && m->perfect()) {
    d.outcome = m->f2->fingerprint() == fm->fingerprint() ? Outcome::kExact : Outcome::kPerfect;
    d.deliver_fmt = m->f2;
    d.native_fmt = m->f2;
    d.handler = handler_for(m->f2->fingerprint());
    d.decode_plan = std::make_unique<pbio::ConversionPlan>(fm, m->f2);
    if (d.outcome == Outcome::kExact) {
      d.exact_decoder = std::make_unique<pbio::Decoder>(m->f2);
    }
    return;
  }

  // Lines 16-19: MaxMatch over the transform closure Ft.
  std::vector<FormatPtr> ft = transforms_.closure(fm);
  m0 = obs::monotonic_ns();
  auto m = max_match(ft, fr, options_.thresholds);
  rx().match_ns.record(obs::monotonic_ns() - m0);
  if (!m) {
    obs::flight_record(obs::FlightKind::kReject, obs::current_trace().trace_id,
                       "rx: no acceptable match for format '" + fm->name() + "'");
    d.outcome = Outcome::kRejected;
    return;
  }

  d.deliver_fmt = m->f2;
  d.handler = handler_for(m->f2->fingerprint());

  bool morphs = m->f1->fingerprint() != fm->fingerprint();
  FormatPtr native_fmt;  // format of the record after decode (+ chain)
  if (morphs) {
    // Lines 21-24: generate and cache the fm -> f1 transformation code.
    auto specs = transforms_.chain(fm->fingerprint(), m->f1->fingerprint());
    if (!specs || specs->empty()) {
      // Closure said reachable; a missing chain would be a logic error.
      throw Error("receiver: transform chain vanished");
    }
    ecode::CompileOptions copts;
    copts.backend = options_.backend;
    copts.verify = options_.verify;
    copts.fuel_limit = options_.verify_fuel_limit;
    try {
      d.chain = std::make_shared<MorphChain>(*specs, copts, options_.fuse);
    } catch (const ecode::VerifyError& e) {
      // Peer-supplied code failed static verification: reject the format
      // before any native code exists. The structured findings name the
      // check, the field, and the source line for the peer's operator.
      stats_.verify_rejected.fetch_add(1, kRelaxed);
      rx().verify_rejected.inc();
      std::ostringstream msg;
      msg << "transform chain for fingerprint " << fingerprint
          << " rejected by the static verifier:";
      for (const auto& f : e.result().findings) msg << "\n  " << f.to_string();
      MORPH_LOG_WARN("receiver") << msg.str();
      obs::flight_record(obs::FlightKind::kReject, obs::current_trace().trace_id,
                         "rx: verifier rejected transform chain for '" + fm->name() + "'");
      d.chain = nullptr;
      d.handler = nullptr;
      d.deliver_fmt = nullptr;
      d.outcome = Outcome::kRejected;
      return;
    }
    for (const auto& f : d.chain->verify_findings()) {
      MORPH_LOG_WARN("receiver") << "transform verifier: " << f.to_string();
    }
    stats_.transforms_compiled.fetch_add(d.chain->hops(), kRelaxed);
    rx().transforms_compiled.add(d.chain->hops());
    // Fusion happened (or bailed) inside the chain compile above — i.e.
    // once per (wire format, chain) under this entry's once-flag.
    rx().chain_hops.record(static_cast<int64_t>(d.chain->hops()));
    if (d.chain->fused()) {
      stats_.chains_fused.fetch_add(1, kRelaxed);
      rx().chain_fused_builds.inc();
    } else {
      stats_.fusion_bailouts.fetch_add(1, kRelaxed);
      rx().chain_fusion_bailouts.inc();
      MORPH_LOG_INFO("receiver") << "morph chain for fingerprint " << fingerprint
                                 << " runs hop-wise: " << d.chain->fusion_bailout();
    }
    // Decode-into-morph: the conversion plan targets the chain's source
    // layout directly, and when the wire layout already *is* that layout
    // the in-place decoder lets process_in_place skip conversion entirely.
    d.decode_plan = std::make_unique<pbio::ConversionPlan>(fm, d.chain->src_format());
    if (fm->fingerprint() == d.chain->src_format()->fingerprint()) {
      d.morph_decoder = std::make_unique<pbio::Decoder>(d.chain->src_format());
    }
    native_fmt = d.chain->dst_format();
  } else {
    native_fmt = pbio::relayout(*fm);
    d.decode_plan = std::make_unique<pbio::ConversionPlan>(fm, native_fmt);
  }

  d.native_fmt = native_fmt;

  // Lines 26-28: imperfect pairs get defaults filled and extras dropped.
  bool needs_reconcile = !native_fmt->identical_to(*m->f2);
  if (needs_reconcile) {
    d.reconciler = std::make_unique<Reconciler>(native_fmt, m->f2);
  }
  bool imperfect = !m->perfect();
  if (morphs) {
    d.outcome = imperfect ? Outcome::kMorphedReconciled : Outcome::kMorphed;
  } else {
    d.outcome = Outcome::kReconciled;
  }
}

Outcome Receiver::finish_delivery(const Decision& d, void* record) {
  switch (d.outcome) {
    case Outcome::kExact:
      stats_.exact.fetch_add(1, kRelaxed);
      rx().exact.inc();
      break;
    case Outcome::kPerfect:
      stats_.perfect.fetch_add(1, kRelaxed);
      rx().perfect.inc();
      break;
    case Outcome::kMorphed:
      stats_.morphed.fetch_add(1, kRelaxed);
      rx().morphed.inc();
      break;
    case Outcome::kReconciled:
      stats_.reconciled.fetch_add(1, kRelaxed);
      rx().reconciled.inc();
      break;
    case Outcome::kMorphedReconciled:
      stats_.reconciled.fetch_add(1, kRelaxed);
      rx().morphed_reconciled.inc();
      break;
    default:
      break;
  }
  // The caller holds the cache entry via shared_ptr, so the decision (and
  // this handler) stay alive even if the handler itself registers formats
  // and flushes the cache mid-delivery.
  if (d.handler != nullptr && *d.handler) {
    Delivery delivery{record, d.deliver_fmt, d.outcome};
    (*d.handler)(delivery);
  }
  return d.outcome;
}

Outcome Receiver::process(const void* buf, size_t size, RecordArena& arena) {
  stats_.messages.fetch_add(1, kRelaxed);
  rx().messages.inc();
  pbio::WireInfo info = pbio::peek_header(buf, size);
  EntryPtr entry = decide(info.fingerprint);
  const Decision& d = entry->decision;

  switch (d.outcome) {
    case Outcome::kRejected:
    case Outcome::kDefaulted: {
      if (d.default_handler != nullptr && *d.default_handler) {
        (*d.default_handler)(buf, size);
        stats_.defaulted.fetch_add(1, kRelaxed);
        rx().defaulted.inc();
        return Outcome::kDefaulted;
      }
      stats_.rejected.fetch_add(1, kRelaxed);
      rx().rejected.inc();
      return Outcome::kRejected;
    }
    default:
      break;
  }

  uint64_t t0 = obs::monotonic_ns();
  void* record = d.decode_plan->execute(buf, size, arena);
  uint64_t t1 = obs::monotonic_ns();
  if (d.decode_ns != nullptr) d.decode_ns->record(t1 - t0);
  if (d.chain || d.reconciler) {
    if (d.chain) {
      record = d.chain->apply(record, arena);
      if (d.chain->fused()) {
        stats_.morph_fused.fetch_add(1, kRelaxed);
        rx().morph_fused.inc();
      } else {
        stats_.morph_hopwise.fetch_add(1, kRelaxed);
        rx().morph_hopwise.inc();
      }
    }
    if (d.reconciler) record = d.reconciler->apply(record, arena);
    const uint64_t morph_dur = obs::monotonic_ns() - t1;
    if (d.morph_ns != nullptr) d.morph_ns->record(morph_dur);
    rx().morphs.inc();
    obs::record_span("rx.morph", d.fmt_name, t1, morph_dur);
    if (morph_dur >= obs::flight_slow_ns()) {
      obs::flight_record(obs::FlightKind::kSlowMorph, obs::current_trace().trace_id,
                         "rx: morph of '" + d.fmt_name + "' took " +
                             std::to_string(morph_dur) + " ns");
    }
  }
  return finish_delivery(d, record);
}

Outcome Receiver::process_in_place(void* buf, size_t size, RecordArena& arena) {
  pbio::WireInfo info = pbio::peek_header(buf, size);
  EntryPtr entry = decide(info.fingerprint);
  const Decision& d = entry->decision;
  if (d.outcome == Outcome::kExact && d.exact_decoder != nullptr) {
    void* record = d.exact_decoder->decode_in_place(buf, size);
    if (record != nullptr) {
      // Zero-copy fast path: counters only, no clock reads (the in-place
      // decode is tens of ns — a timestamp pair would dominate it).
      stats_.messages.fetch_add(1, kRelaxed);
      stats_.zero_copy.fetch_add(1, kRelaxed);
      rx().messages.inc();
      rx().zero_copy.inc();
      return finish_delivery(d, record);
    }
    // Foreign byte order: fall through to the copying path.
  }
  if (d.chain != nullptr && d.morph_decoder != nullptr) {
    // Decode-into-morph zero-copy path: the wire layout equals the chain's
    // source layout, so rewrite pointers in the caller's buffer and feed
    // the record straight into the (ideally fused) chain — the conversion
    // plan never runs and no source-side record is materialized.
    void* record = d.morph_decoder->decode_in_place(buf, size);
    if (record != nullptr) {
      stats_.messages.fetch_add(1, kRelaxed);
      stats_.morph_inplace.fetch_add(1, kRelaxed);
      rx().messages.inc();
      rx().morph_inplace.inc();
      uint64_t t0 = obs::monotonic_ns();
      record = d.chain->apply(record, arena);
      if (d.chain->fused()) {
        stats_.morph_fused.fetch_add(1, kRelaxed);
        rx().morph_fused.inc();
      } else {
        stats_.morph_hopwise.fetch_add(1, kRelaxed);
        rx().morph_hopwise.inc();
      }
      if (d.reconciler) record = d.reconciler->apply(record, arena);
      const uint64_t morph_dur = obs::monotonic_ns() - t0;
      if (d.morph_ns != nullptr) d.morph_ns->record(morph_dur);
      rx().morphs.inc();
      obs::record_span("rx.morph", d.fmt_name, t0, morph_dur);
      if (morph_dur >= obs::flight_slow_ns()) {
        obs::flight_record(obs::FlightKind::kSlowMorph, obs::current_trace().trace_id,
                           "rx: morph of '" + d.fmt_name + "' took " +
                               std::to_string(morph_dur) + " ns");
      }
      return finish_delivery(d, record);
    }
  }
  return process(buf, size, arena);
}

Outcome Receiver::process_record(const pbio::FormatPtr& fmt, void* record,
                                 RecordArena& arena) {
  EntryPtr entry = decide(fmt->fingerprint());
  const Decision& d = entry->decision;

  if (d.outcome == Outcome::kRejected || d.outcome == Outcome::kDefaulted) {
    stats_.messages.fetch_add(1, kRelaxed);
    rx().messages.inc();
    if (d.default_handler != nullptr && *d.default_handler) {
      // The default handler's contract is raw wire bytes; hand it a PBIO
      // encoding of the record (the bridge's frame bytes are long gone).
      ByteBuffer wire;
      pbio::encode_record(*fmt, record, wire);
      (*d.default_handler)(wire.data(), wire.size());
      stats_.defaulted.fetch_add(1, kRelaxed);
      rx().defaulted.inc();
      return Outcome::kDefaulted;
    }
    stats_.rejected.fetch_add(1, kRelaxed);
    rx().rejected.inc();
    return Outcome::kRejected;
  }

  // Fingerprint equality fixes the shape but not the offsets, so each
  // shortcut below also proves layout equality (pointer check first: the
  // caller usually passes the very format the decision was built from).
  auto same_layout = [&fmt](const pbio::FormatPtr& f) {
    return f != nullptr && (f.get() == fmt.get() || f->identical_to(*fmt));
  };

  if (d.outcome == Outcome::kExact && same_layout(d.deliver_fmt)) {
    stats_.messages.fetch_add(1, kRelaxed);
    rx().messages.inc();
    return finish_delivery(d, record);
  }

  if (d.chain != nullptr && same_layout(d.chain->src_format())) {
    // The record is already in the chain's source layout: feed it straight
    // into the morph pipeline, exactly as a decode-into-morph frame would.
    stats_.messages.fetch_add(1, kRelaxed);
    rx().messages.inc();
    uint64_t t0 = obs::monotonic_ns();
    record = d.chain->apply(record, arena);
    if (d.chain->fused()) {
      stats_.morph_fused.fetch_add(1, kRelaxed);
      rx().morph_fused.inc();
    } else {
      stats_.morph_hopwise.fetch_add(1, kRelaxed);
      rx().morph_hopwise.inc();
    }
    if (d.reconciler) record = d.reconciler->apply(record, arena);
    const uint64_t morph_dur = obs::monotonic_ns() - t0;
    if (d.morph_ns != nullptr) d.morph_ns->record(morph_dur);
    rx().morphs.inc();
    obs::record_span("rx.morph", d.fmt_name, t0, morph_dur);
    if (morph_dur >= obs::flight_slow_ns()) {
      obs::flight_record(obs::FlightKind::kSlowMorph, obs::current_trace().trace_id,
                         "rx: morph of '" + d.fmt_name + "' took " +
                             std::to_string(morph_dur) + " ns");
    }
    return finish_delivery(d, record);
  }

  if (d.chain == nullptr && d.reconciler != nullptr && same_layout(d.native_fmt)) {
    // Already in the reconciler's input layout: fill defaults, drop extras,
    // deliver.
    stats_.messages.fetch_add(1, kRelaxed);
    rx().messages.inc();
    uint64_t t0 = obs::monotonic_ns();
    record = d.reconciler->apply(record, arena);
    const uint64_t morph_dur = obs::monotonic_ns() - t0;
    if (d.morph_ns != nullptr) d.morph_ns->record(morph_dur);
    rx().morphs.inc();
    obs::record_span("rx.morph", d.fmt_name, t0, morph_dur);
    return finish_delivery(d, record);
  }

  // The decision's pipeline starts from wire bytes (its conversion plan
  // changes byte order or layout first), so the record cannot enter
  // mid-pipeline: round-trip through a PBIO encoding. process() does its
  // own message accounting — no pre-increment here.
  ByteBuffer wire;
  pbio::encode_record(*fmt, record, wire);
  return process(wire.data(), wire.size(), arena);
}

}  // namespace morph::core
