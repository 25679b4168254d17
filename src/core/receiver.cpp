#include "core/receiver.hpp"

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
using C = ReceiverStats::Id;

/// Process-wide receiver histograms. The counters live in each receiver's
/// CounterSet, which the registry reads directly.
struct RxMetrics {
  obs::Histogram& chain_hops = obs::metrics().histogram(obs::Metric::morph_rx_chain_hops);
  obs::Histogram& decide_hit_ns =
      obs::metrics().histogram(obs::Metric::morph_rx_decide_ns, {"hit"});
  obs::Histogram& decide_miss_ns =
      obs::metrics().histogram(obs::Metric::morph_rx_decide_ns, {"miss"});
  obs::Histogram& build_ns = obs::metrics().histogram(obs::Metric::morph_rx_decision_build_ns);
  obs::Histogram& match_ns = obs::metrics().histogram(obs::Metric::morph_rx_match_ns);
};

RxMetrics& rx() {
  static RxMetrics& m = *new RxMetrics();  // leaked: outlives static dtors
  return m;
}
}  // namespace

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
      stats_.inc(C::cache_flushes);
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
    stats_.inc(C::cache_misses);
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
    stats_.inc(C::cache_hits);
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
    stats_.inc(C::resolve_fetched);
    return;
  }
  stats_.inc(C::resolve_degraded);
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
  d.decode_ns = &obs::metrics().histogram(obs::Metric::morph_rx_decode_ns, {fm->name()});
  d.morph_ns = &obs::metrics().histogram(obs::Metric::morph_rx_morph_ns, {fm->name()});

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
    if (d.outcome == Outcome::kExact && fm->identical_to(*m->f2)) {
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
      stats_.inc(C::verify_rejected);
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
    stats_.add(C::transforms_compiled, d.chain->hops());
    // Fusion happened (or bailed) inside the chain compile above — i.e.
    // once per (wire format, chain) under this entry's once-flag.
    rx().chain_hops.record(static_cast<int64_t>(d.chain->hops()));
    if (d.chain->fused()) {
      stats_.inc(C::chains_fused);
    } else {
      stats_.inc(C::fusion_bailouts);
      MORPH_LOG_INFO("receiver") << "morph chain for fingerprint " << fingerprint
                                 << " runs hop-wise: " << d.chain->fusion_bailout();
    }
    // Decode-into-morph: the conversion plan targets the chain's source
    // layout directly, and when the wire layout already *is* that layout
    // the in-place decoder lets process_in_place skip conversion entirely.
    d.decode_plan = std::make_unique<pbio::ConversionPlan>(fm, d.chain->src_format());
    if (fm->identical_to(*d.chain->src_format())) {
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
      stats_.inc(C::exact);
      break;
    case Outcome::kPerfect:
      stats_.inc(C::perfect);
      break;
    case Outcome::kMorphed:
      stats_.inc(C::morphed);
      break;
    case Outcome::kReconciled:
      stats_.inc(C::reconciled);
      break;
    case Outcome::kMorphedReconciled:
      stats_.inc(C::morphed_reconciled);
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

void* Receiver::apply_morph(const Decision& d, void* record, RecordArena& arena, uint64_t t0) {
  if (d.chain) {
    record = d.chain->apply(record, arena);
    if (d.chain->fused()) {
      stats_.inc(C::morph_fused);
    } else {
      stats_.inc(C::morph_hopwise);
    }
  }
  if (d.reconciler) record = d.reconciler->apply(record, arena);
  const uint64_t morph_dur = obs::monotonic_ns() - t0;
  if (d.morph_ns != nullptr) d.morph_ns->record(morph_dur);
  stats_.inc(C::morphs);
  obs::record_span("rx.morph", d.fmt_name, t0, morph_dur);
  if (morph_dur >= obs::flight_slow_ns()) {
    obs::flight_record(obs::FlightKind::kSlowMorph, obs::current_trace().trace_id,
                       "rx: morph of '" + d.fmt_name + "' took " + std::to_string(morph_dur) +
                           " ns");
  }
  return record;
}

Outcome Receiver::deliver_converted(const Decision& d, const void* buf, size_t size,
                                    RecordArena& arena) {
  switch (d.outcome) {
    case Outcome::kRejected:
    case Outcome::kDefaulted: {
      if (d.default_handler != nullptr && *d.default_handler) {
        (*d.default_handler)(buf, size);
        stats_.inc(C::defaulted);
        return Outcome::kDefaulted;
      }
      stats_.inc(C::rejected);
      return Outcome::kRejected;
    }
    default:
      break;
  }

  uint64_t t0 = obs::monotonic_ns();
  void* record = d.decode_plan->execute(buf, size, arena);
  uint64_t t1 = obs::monotonic_ns();
  if (d.decode_ns != nullptr) d.decode_ns->record(t1 - t0);
  if (d.chain || d.reconciler) record = apply_morph(d, record, arena, t1);
  return finish_delivery(d, record);
}

Outcome Receiver::process(const void* buf, size_t size, RecordArena& arena) {
  stats_.inc(C::messages);
  pbio::WireInfo info = pbio::peek_header(buf, size);
  EntryPtr entry = decide(info.fingerprint);
  return deliver_converted(entry->decision, buf, size, arena);
}

Outcome Receiver::process_in_place(void* buf, size_t size, RecordArena& arena) {
  stats_.inc(C::messages);
  pbio::WireInfo info = pbio::peek_header(buf, size);
  EntryPtr entry = decide(info.fingerprint);
  const Decision& d = entry->decision;
  if (d.exact_decoder != nullptr) {
    void* record = d.exact_decoder->decode_in_place(buf, size);
    if (record != nullptr) {
      // Zero-copy fast path: counters only, no clock reads (the in-place
      // decode is tens of ns — a timestamp pair would dominate it).
      stats_.inc(C::zero_copy);
      return finish_delivery(d, record);
    }
  } else if (d.morph_decoder != nullptr) {
    // Decode-into-morph: the wire layout equals the chain's source layout,
    // so rewrite pointers in the caller's buffer and feed the record
    // straight into the (ideally fused) chain — the conversion plan never
    // runs and no source-side record is materialized.
    uint64_t t0 = obs::monotonic_ns();
    void* record = d.morph_decoder->decode_in_place(buf, size);
    if (record != nullptr) {
      uint64_t t1 = obs::monotonic_ns();
      if (d.decode_ns != nullptr) d.decode_ns->record(t1 - t0);
      stats_.inc(C::morph_inplace);
      return finish_delivery(d, apply_morph(d, record, arena, t1));
    }
  }
  // Foreign byte order, or a decision that needs a conversion.
  return deliver_converted(d, buf, size, arena);
}

Outcome Receiver::process_record(const pbio::FormatPtr& fmt, void* record,
                                 RecordArena& arena) {
  EntryPtr entry = decide(fmt->fingerprint());
  const Decision& d = entry->decision;

  if (d.outcome == Outcome::kRejected || d.outcome == Outcome::kDefaulted) {
    stats_.inc(C::messages);
    if (d.default_handler != nullptr && *d.default_handler) {
      // The default handler's contract is raw wire bytes; hand it a PBIO
      // encoding of the record (the bridge's frame bytes are long gone).
      ByteBuffer wire;
      pbio::encode_record(*fmt, record, wire);
      (*d.default_handler)(wire.data(), wire.size());
      stats_.inc(C::defaulted);
      return Outcome::kDefaulted;
    }
    stats_.inc(C::rejected);
    return Outcome::kRejected;
  }

  // Fingerprint equality fixes the shape but not the offsets, so each
  // shortcut below also proves layout equality (pointer check first: the
  // caller usually passes the very format the decision was built from).
  auto same_layout = [&fmt](const pbio::FormatPtr& f) {
    return f != nullptr && (f.get() == fmt.get() || f->identical_to(*fmt));
  };

  if (d.outcome == Outcome::kExact && same_layout(d.deliver_fmt)) {
    stats_.inc(C::messages);
    return finish_delivery(d, record);
  }

  if (d.chain != nullptr && same_layout(d.chain->src_format())) {
    // The record is already in the chain's source layout: feed it straight
    // into the morph pipeline, exactly as a decode-into-morph frame would.
    stats_.inc(C::messages);
    return finish_delivery(d, apply_morph(d, record, arena, obs::monotonic_ns()));
  }

  if (d.chain == nullptr && d.reconciler != nullptr && same_layout(d.native_fmt)) {
    // Already in the reconciler's input layout: fill defaults, drop extras,
    // deliver.
    stats_.inc(C::messages);
    return finish_delivery(d, apply_morph(d, record, arena, obs::monotonic_ns()));
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
