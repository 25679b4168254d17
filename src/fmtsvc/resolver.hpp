// Client-side format resolution against a FormatService.
//
// A FormatResolver is the process-wide bridge between receivers and the
// out-of-band format service. It implements core::FormatSource, so a
// Receiver plugs it in through ReceiverOptions::format_source and fetches
// the definition of an unseen fingerprint on first contact.
//
// Layers, hot to cold:
//   * TTL'd LRU cache: positive entries (format + transforms) live for
//     ttl_ms, negative entries ("the service does not know this
//     fingerprint" / "the service is unreachable") for negative_ttl_ms —
//     a stream of messages in an unknown format costs one RPC per
//     negative-TTL window, not one per message.
//   * Single-flight: N threads missing the same fingerprint concurrently
//     produce ONE fetch; the rest block on the flight and share its result.
//   * Retries: each fetch gets max_attempts tries under an overall
//     deadline_ms, with exponential backoff and +/-50% jitter between
//     attempts; a dead connection is dropped and redialed on the next try.
//
// publish() is the writer side: REGISTER a format (+ attached transforms)
// with the service, as MessagePort's meta-publisher hook or explicitly.
//
// Thread safety: every public method may be called from any thread. The
// cache and flight table use one mutex each; the connection is serialized
// by its own mutex (one RPC in flight per resolver — fetches are cold-path
// by design, and FETCH_MULTI batches the warm-up case).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/format_source.hpp"
#include "core/lint.hpp"
#include "fmtsvc/protocol.hpp"
#include "obs/metrics.hpp"
#include "transport/framing.hpp"
#include "transport/tcp.hpp"

namespace morph::fmtsvc {

struct ResolverOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  size_t cache_capacity = 4096;    // LRU entries (positive + negative)
  uint64_t ttl_ms = 300'000;       // positive-entry lifetime
  uint64_t negative_ttl_ms = 2'000;

  int max_attempts = 3;            // tries per fetch
  uint64_t base_backoff_ms = 10;   // doubles per retry, +/-50% jitter
  uint64_t max_backoff_ms = 1'000;
  uint64_t deadline_ms = 2'000;    // overall budget per resolve()
  int io_timeout_ms = 500;         // per-attempt socket wait

  /// Audit fetched descriptors before they are handed to a receiver (the
  /// receiver itself always verifies transform code). kEnforce treats a
  /// descriptor with error-severity findings like a not-found.
  core::LintPolicy lint = core::LintPolicy::kWarn;
};

/// The resolver's counters: ResolverStats field and catalog series.
/// resolves == cache_hits + negative_hits + fetched + failed +
/// lint_rejected + stampede_joins once the resolver is quiescent — every
/// resolve() lands in exactly one result bucket (joining another thread's
/// flight counts as "stampede"), the conservation law `morph-stat --check`
/// asserts.
#define MORPH_RESOLVER_COUNTERS(X)                                     \
  X(resolves, morph_fmtsvc_client_resolves_total)                      \
  X(cache_hits, morph_fmtsvc_client_resolve_total, "cached")           \
  X(negative_hits, morph_fmtsvc_client_resolve_total, "negative")      \
  X(fetched, morph_fmtsvc_client_resolve_total, "fetched")             \
  X(failed, morph_fmtsvc_client_resolve_total, "failed")               \
  X(lint_rejected, morph_fmtsvc_client_resolve_total, "lint_rejected") \
  X(expired, morph_fmtsvc_client_cache_evictions_total, "ttl")         \
  X(evicted, morph_fmtsvc_client_cache_evictions_total, "capacity")    \
  X(stampede_joins, morph_fmtsvc_client_resolve_total, "stampede")     \
  X(rpcs, morph_fmtsvc_client_rpcs_total)                              \
  X(retries, morph_fmtsvc_client_retries_total)                        \
  X(published, morph_fmtsvc_client_published_total)

/// Point-in-time counter snapshot.
struct ResolverStats {
  MORPH_STATS(ResolverStats, MORPH_RESOLVER_COUNTERS)
};

class FormatResolver final : public core::FormatSource {
 public:
  explicit FormatResolver(ResolverOptions options);
  ~FormatResolver() override;

  FormatResolver(const FormatResolver&) = delete;
  FormatResolver& operator=(const FormatResolver&) = delete;

  /// Resolve one fingerprint (core::FormatSource). Blocking: worst case
  /// ~deadline_ms when the service is down and no negative entry exists.
  std::optional<core::ResolvedFormat> resolve(uint64_t fingerprint) override;

  /// Warm the cache for a batch of fingerprints with one FETCH_MULTI RPC.
  /// Unknown fingerprints get negative entries. Returns how many resolved.
  size_t prefetch(const std::vector<uint64_t>& fingerprints);

  /// REGISTER `fmt` (+ its transforms) with the service. Returns false when
  /// the service is unreachable or refused the entry — the caller's cue to
  /// fall back to inline meta-data frames.
  bool publish(const pbio::FormatPtr& fmt,
               const std::vector<core::TransformSpec>& transforms = {});

  /// Everything the service currently stores (one LIST RPC, no caching).
  std::vector<FormatEntry> list();

  /// Drop every cached entry (tests and operational cache-busting).
  void flush_cache();

  ResolverStats stats() const { return counters_.load(); }
  const ResolverOptions& options() const { return options_; }

 private:
  struct CacheEntry {
    bool negative = false;
    core::ResolvedFormat value;        // valid when !negative
    uint64_t expires_at_ms = 0;
    std::list<uint64_t>::iterator lru; // position in lru_ (most recent front)
  };

  /// One in-flight fetch; latecomers block on the mutex/cv pair.
  struct Flight {
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::optional<core::ResolvedFormat> result;
  };

  std::optional<core::ResolvedFormat> cache_lookup(uint64_t fingerprint, bool& negative);
  void cache_store(uint64_t fingerprint, std::optional<core::ResolvedFormat> value);
  void cache_touch(uint64_t fingerprint, CacheEntry& entry);

  /// The retry loop around one FETCH. Returns nullopt on miss or failure.
  std::optional<core::ResolvedFormat> fetch_with_retries(uint64_t fingerprint);

  /// One request/reply RPC over the (lazily dialed) connection; assigns the
  /// request id. Throws TransportError/DecodeError on any failure (the
  /// connection is dropped first, so the next attempt redials); callers
  /// retry or report.
  Reply rpc(Request& req);

  /// Accept a fetched entry: lint per policy; nullopt when rejected.
  std::optional<core::ResolvedFormat> admit(FormatEntry entry);

  ResolverOptions options_;

  std::mutex cache_mutex_;
  std::unordered_map<uint64_t, CacheEntry> cache_;
  std::list<uint64_t> lru_;  // front = most recently used

  std::mutex flights_mutex_;
  std::unordered_map<uint64_t, std::shared_ptr<Flight>> flights_;

  std::mutex conn_mutex_;
  std::unique_ptr<transport::TcpLink> link_;
  uint64_t next_request_id_ = 1;

  obs::CounterSet<ResolverStats> counters_;
};

}  // namespace morph::fmtsvc
