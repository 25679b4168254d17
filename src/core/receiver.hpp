// Receiver-side message processing: the paper's Algorithm 2.
//
// A Receiver owns, per reading endpoint:
//   * the registered reader formats and their handlers (what this
//     application understands),
//   * the learned wire formats and transform specs (what peers have
//     declared out-of-band),
//   * a decision cache keyed by incoming format fingerprint — the expensive
//     steps (MaxMatch, transform chain search, dynamic code generation)
//     run only for formats never seen before; afterwards every message of
//     that format replays the compiled pipeline.
//
// Pipeline shapes, by decision:
//   exact     wire == reader format: in-place pointer fix-up (or, for
//             const buffers and foreign byte order, one conversion plan)
//   perfect   same shape, different layout/order: one conversion plan
//   morphed   decode to native -> compiled Ecode chain -> [reconcile]
//   rejected  no admissible MaxMatch pair: default handler or drop
//
// Transform code comes from peers, so the receiver is a trust boundary:
// every chain compiles under the static verifier (ecode/verify.hpp), and a
// chain that fails it rejects its format (Outcome::kRejected, counted in
// stats().verify_rejected) before any native code exists.
//
// Thread safety (see docs/CONCURRENCY.md for the full model):
//   * process()/process_in_place() may be called from any number of
//     threads concurrently, each with its own RecordArena. The decision
//     cache is sharded; steady-state lookups take only a per-shard reader
//     lock, and a cold format's expensive pipeline build runs exactly once
//     per fingerprint — concurrent arrivals block on that entry's
//     once-flag, not on the cache.
//   * Compiled pipeline pieces (ConversionPlan, MorphChain/JIT code,
//     Reconciler) are immutable after publish; per-call mutable state lives
//     in the caller's arena and the per-call Ecode runtime.
//   * register_handler / set_default_handler / learn_transform are
//     exclusive writers: rare, safe to call concurrently with processing.
//   * Handlers may be invoked concurrently from many threads and must be
//     thread-safe themselves when the receiver is driven in parallel.
#pragma once

#include <functional>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/arena.hpp"
#include "obs/metrics.hpp"
#include "core/build_cache.hpp"
#include "core/format_source.hpp"
#include "core/match.hpp"
#include "core/reconcile.hpp"
#include "core/transform.hpp"
#include "pbio/decode.hpp"
#include "pbio/registry.hpp"

namespace morph::core {

enum class Outcome : uint8_t {
  kExact,       // fingerprint-identical format
  kPerfect,     // perfect match after layout conversion
  kMorphed,     // Ecode transform chain applied
  kReconciled,  // imperfect match: defaults filled / extras dropped
  kMorphedReconciled,  // chain + reconciliation
  kDefaulted,   // no match; handed to the default handler
  kRejected,    // no match and no default handler
};

const char* outcome_name(Outcome o);

/// What a handler receives: a native record in the handler's registered
/// format. The record lives in the arena passed to process().
struct Delivery {
  void* record = nullptr;
  pbio::FormatPtr format;
  Outcome outcome = Outcome::kExact;
};

using Handler = std::function<void(const Delivery&)>;
using DefaultHandler = std::function<void(const void* buf, size_t size)>;

struct ReceiverOptions {
  MatchThresholds thresholds;
  /// Out-of-band format resolution (the paper's third-party format server).
  /// When a data frame references a fingerprint with no learned definition,
  /// the receiver consults `format_source` (typically a
  /// fmtsvc::FormatResolver) per `resolve` before deciding. The source must
  /// outlive the receiver; it is called during cold decision builds only —
  /// never on the steady-state path — and may block (the resolver bounds
  /// that with its own deadline).
  FormatSource* format_source = nullptr;
  ResolvePolicy resolve = ResolvePolicy::kFail;
};

/// The receiver's counters, one line each: the ReceiverStats field and the
/// catalog series it exports as. Every outcome has its own field, so
/// `reconciled` counts pure reconciliations only and morph-then-reconcile
/// deliveries land in `morphed_reconciled`.
#define MORPH_RECEIVER_COUNTERS(X)                                    \
  X(messages, morph_rx_messages_total)                                \
  X(cache_hits, morph_rx_cache_events_total, "hit")                   \
  X(cache_misses, morph_rx_cache_events_total, "miss")                \
  X(exact, morph_rx_outcome_total, "exact")                           \
  X(perfect, morph_rx_outcome_total, "perfect")                       \
  X(morphed, morph_rx_outcome_total, "morphed")                       \
  X(reconciled, morph_rx_outcome_total, "reconciled")                 \
  X(morphed_reconciled, morph_rx_outcome_total, "morphed+reconciled") \
  X(defaulted, morph_rx_outcome_total, "defaulted")                   \
  X(rejected, morph_rx_outcome_total, "rejected")                     \
  X(transforms_compiled, morph_rx_transforms_compiled_total)          \
  X(verify_rejected, morph_rx_verify_rejected_total)                  \
  X(zero_copy, morph_rx_zero_copy_total)                              \
  X(cache_flushes, morph_rx_cache_events_total, "flush")              \
  X(resolve_fetched, morph_rx_resolve_total, "fetched")               \
  X(resolve_degraded, morph_rx_resolve_total, "degraded")             \
  X(morph_fused, morph_rx_fused_total)                                \
  X(morph_hopwise, morph_rx_hopwise_total)                            \
  X(morph_inplace, morph_rx_morph_inplace_total)                      \
  X(morphs, morph_rx_morphs_total)                                    \
  X(chains_fused, morph_rx_chain_fusion_total, "fused")               \
  X(fusion_bailouts, morph_rx_chain_fusion_total, "bailout")

/// A point-in-time copy of the receiver's counters (the live counters are
/// relaxed atomics; the snapshot is plain data).
struct ReceiverStats {
  MORPH_STATS(ReceiverStats, MORPH_RECEIVER_COUNTERS)

  ReceiverStats delta(const ReceiverStats& earlier) const {
    return obs::stats_delta(*this, earlier);
  }
  ReceiverStats& operator+=(const ReceiverStats& other) { return obs::stats_add(*this, other); }

  /// Messages that reached a terminal outcome. Every processed message
  /// lands in exactly one of these counters.
  uint64_t outcome_sum() const {
    return exact + perfect + morphed + reconciled + morphed_reconciled + defaulted + rejected;
  }

  /// The pipeline's conservation law: every counted message reached exactly
  /// one outcome. Holds whenever no process() call aborted by exception
  /// between the message count and its outcome (hostile frames can throw
  /// mid-decode), and no snapshot raced a message in flight — so quiesce
  /// first, then assert. Tests use it; a live scrape can only promise the
  /// `<=` form, the catalog law `rx.outcomes` that morph-stat checks.
  bool consistent() const { return messages == outcome_sum(); }
};

class Receiver {
 public:
  explicit Receiver(ReceiverOptions options = {});

  /// Register a format this reader understands and the handler to invoke
  /// for it (multiple formats may share a name across protocol revisions).
  void register_handler(pbio::FormatPtr fmt, Handler handler);

  /// Handler for messages that match nothing (Algorithm 2's rejection path
  /// delivers the raw buffer here if set).
  void set_default_handler(DefaultHandler handler);

  /// Out-of-band learning: a peer's format definition, and the transforms
  /// it associated with its formats.
  pbio::FormatPtr learn_format(pbio::FormatPtr fmt);
  void learn_transform(TransformSpec spec);

  /// Process one encoded message without touching `buf`: the copying
  /// path, for callers holding const bytes. Converted records are allocated
  /// from `arena` and are valid until the caller resets it. Thread-safe: may
  /// be called concurrently as long as every thread passes its own arena.
  Outcome process(const void* buf, size_t size, RecordArena& arena);

  /// In-place variant, the data-plane default (MessagePort uses it for
  /// every PBIO data frame). Two decisions decode in `buf` itself, which
  /// they mutate:
  ///   * exact match in host byte order: the delivered record aliases
  ///     `buf` and the arena is untouched (PBIO's same-machine fast path,
  ///     counted in stats().zero_copy and never timed);
  ///   * morph whose wire layout is the chain's source layout: the chain
  ///     reads the record straight from `buf` (stats().morph_inplace; the
  ///     fix-up is timed into morph_rx_decode_ns).
  /// Foreign byte order and every other decision (perfect, reconcile,
  /// reject) fall back to the copying path of process(). The buffer must
  /// be 8-byte aligned, stay alive through delivery, and cannot be
  /// processed twice after an in-place decode.
  Outcome process_in_place(void* buf, size_t size, RecordArena& arena);

  /// Native-record entry point for foreign-encoding bridges (pbuf): the
  /// caller has already decoded a frame into a record laid out as `fmt`
  /// (allocated from `arena`), and the receiver runs the same decision —
  /// morph chain, reconciler, delivery — it would for a PBIO frame of that
  /// format. When the decision's pipeline does not start at `fmt` (the plan
  /// converts byte order or layout first), the record is re-encoded as PBIO
  /// and routed through process(); rejections with a default handler also
  /// hand over a PBIO encoding of the record.
  Outcome process_record(const pbio::FormatPtr& fmt, void* record, RecordArena& arena);

  ReceiverStats stats() const { return stats_.load(); }
  const ReceiverOptions& options() const { return options_; }
  /// Cached per-format decisions. A hostile peer streaming endless fresh
  /// formats cannot grow the cache past kMaxCachedBuilds: the
  /// overflowing build flushes it (counted in stats().cache_flushes).
  size_t cached_decisions() const { return cache_.size(); }

  /// All reader formats registered under `name` (the Fr of Algorithm 2).
  std::vector<pbio::FormatPtr> reader_formats(const std::string& name) const;

  /// Exposed for the compatibility-space analyzer: the transform catalog
  /// and learned-format registry. Not synchronized against concurrent
  /// learn_transform — analyze offline or quiesce writers first.
  const TransformCatalog& transforms() const { return transforms_; }
  const pbio::FormatRegistry& learned() const { return learned_; }

 private:
  struct Decision {
    Outcome outcome = Outcome::kRejected;
    std::shared_ptr<Handler> handler;                   // null for reject/default
    std::shared_ptr<DefaultHandler> default_handler;    // captured at build time
    pbio::FormatPtr deliver_fmt;                        // handler's format
    std::unique_ptr<pbio::ConversionPlan> decode_plan;  // wire -> native
    std::unique_ptr<pbio::Decoder> exact_decoder;       // kExact only: in-place path
    /// Morph decisions whose wire layout already equals the chain's source
    /// layout: process_in_place() decodes in the caller's buffer and feeds
    /// the chain directly, skipping the conversion plan entirely.
    std::unique_ptr<pbio::Decoder> morph_decoder;
    std::shared_ptr<MorphChain> chain;                  // optional
    std::unique_ptr<Reconciler> reconciler;             // optional
    /// Format of the decoded record once the conversion plan (and chain,
    /// if any) has run — the layout the reconciler expects. Lets
    /// process_record() tell whether an already-native record can skip
    /// straight to the chain/reconciler or must re-enter via PBIO bytes.
    pbio::FormatPtr native_fmt;
    // Per-format latency series, resolved once at build time so the
    // per-message cost is a clock read + relaxed add (registry metrics are
    // never erased, so the pointers stay valid).
    obs::Histogram* decode_ns = nullptr;                // plan execute time
    obs::Histogram* morph_ns = nullptr;                 // chain + reconcile time
    std::string fmt_name;  // wire format name: span/flight attribution tag
    /// Under ResolvePolicy::kFetchOrInline a rejection caused by an
    /// unreachable format service is provisional: decide() drops the cache
    /// entry right after the build, so the next message retries (the
    /// resolver's negative TTL rate-limits the RPCs) and a late inline
    /// kFormatDef recovers immediately via learn_format's eviction.
    bool provisional = false;
  };

  /// Cache entries are handed out as shared_ptrs, so an in-flight
  /// delivery survives a cache flush.
  using DecisionCache = BuildOnceCache<uint64_t, Decision>;
  using EntryPtr = DecisionCache::EntryPtr;

  EntryPtr decide(uint64_t fingerprint);
  void build_decision(Decision& d, uint64_t fingerprint);
  void maybe_resolve(uint64_t fingerprint, Decision& d);
  void add_resolved(ResolvedFormat resolved);
  Outcome finish_delivery(const Decision& d, void* record);
  /// The copying pipeline: conversion plan, then chain and reconciler.
  Outcome deliver_converted(const Decision& d, const void* buf, size_t size,
                            RecordArena& arena);
  /// Chain and reconciler over a decoded record, timed from `t0`.
  void* apply_morph(const Decision& d, void* record, RecordArena& arena, uint64_t t0);

  ReceiverOptions options_;

  /// Guards the reader-side configuration (handlers_, default_handler_,
  /// transforms_). Decision builds hold it shared; register_* / learn_*
  /// hold it exclusive. Lock order: never acquire the config lock while
  /// holding a shard lock (builds run with no shard lock held; writers
  /// release the config lock before clearing the cache).
  mutable std::shared_mutex config_mutex_;
  pbio::FormatRegistry reader_formats_;  // internally thread-safe
  std::unordered_map<uint64_t, std::shared_ptr<Handler>> handlers_;
  std::shared_ptr<DefaultHandler> default_handler_;
  pbio::FormatRegistry learned_;  // internally thread-safe
  TransformCatalog transforms_;

  DecisionCache cache_;
  obs::CounterSet<ReceiverStats> stats_;
};

}  // namespace morph::core
