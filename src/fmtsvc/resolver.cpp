#include "fmtsvc/resolver.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/error.hpp"
#include "common/log.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace morph::fmtsvc {

namespace {
using C = ResolverStats::Id;

uint64_t now_ms() { return obs::monotonic_ns() / 1'000'000; }

/// +/-50% jitter: uniform in [ms/2, 3*ms/2]. Per-thread PRNG so concurrent
/// fetches never contend (and never share a deterministic stream).
uint64_t jittered(uint64_t ms) {
  if (ms == 0) return 0;
  thread_local Rng rng(obs::monotonic_ns() ^ (0x9e3779b97f4a7c15ull * obs::thread_stripe()));
  return ms / 2 + rng.next_below(ms + 1);
}

obs::Histogram& fetch_ns() {
  static obs::Histogram& h = obs::metrics().histogram(obs::Metric::morph_fmtsvc_client_fetch_ns);
  return h;
}
}  // namespace

FormatResolver::FormatResolver(ResolverOptions options)
    : options_(std::move(options)) {
  if (options_.max_attempts < 1) options_.max_attempts = 1;
  if (options_.cache_capacity < 1) options_.cache_capacity = 1;
}

FormatResolver::~FormatResolver() = default;

std::optional<core::ResolvedFormat> FormatResolver::resolve(uint64_t fingerprint) {
  counters_.inc(C::resolves);

  bool negative = false;
  if (auto hit = cache_lookup(fingerprint, negative)) {
    counters_.inc(C::cache_hits);
    return hit;
  }
  if (negative) {
    counters_.inc(C::negative_hits);
    return std::nullopt;
  }

  // Single-flight: the first thread to miss becomes the fetcher; everyone
  // else blocks on its Flight and shares the result.
  std::shared_ptr<Flight> flight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(flights_mutex_);
    auto it = flights_.find(fingerprint);
    if (it != flights_.end()) {
      flight = it->second;
    } else {
      flight = std::make_shared<Flight>();
      flights_.emplace(fingerprint, flight);
      owner = true;
    }
  }
  if (!owner) {
    counters_.inc(C::stampede_joins);
    std::unique_lock<std::mutex> lock(flight->mutex);
    flight->cv.wait(lock, [&] { return flight->done; });
    return flight->result;
  }

  std::optional<core::ResolvedFormat> result = fetch_with_retries(fingerprint);
  cache_store(fingerprint, result);
  {
    // Unpublish the flight only after the cache holds the answer: a thread
    // arriving in between either joins the flight or hits the fresh entry.
    std::lock_guard<std::mutex> lock(flights_mutex_);
    flights_.erase(fingerprint);
  }
  {
    std::lock_guard<std::mutex> lock(flight->mutex);
    flight->result = result;
    flight->done = true;
  }
  flight->cv.notify_all();
  return result;
}

size_t FormatResolver::prefetch(const std::vector<uint64_t>& fingerprints) {
  size_t resolved = 0;
  for (size_t begin = 0; begin < fingerprints.size(); begin += kMaxEntriesPerRequest) {
    Request req;
    req.op = Op::kFetchMulti;
    size_t end = std::min(fingerprints.size(), begin + kMaxEntriesPerRequest);
    req.fingerprints.assign(fingerprints.begin() + static_cast<ptrdiff_t>(begin),
                            fingerprints.begin() + static_cast<ptrdiff_t>(end));
    Reply rep;
    try {
      rep = rpc(req);
    } catch (const Error& e) {
      MORPH_LOG_WARN("fmtsvc") << "prefetch failed: " << e.what();
      return resolved;
    }
    for (ReplyItem& item : rep.items) {
      std::optional<core::ResolvedFormat> value;
      if (item.found) value = admit(std::move(item.entry));
      if (value) ++resolved;
      cache_store(item.fingerprint, std::move(value));
    }
  }
  return resolved;
}

bool FormatResolver::publish(const pbio::FormatPtr& fmt,
                             const std::vector<core::TransformSpec>& transforms) {
  Request req;
  req.op = Op::kRegister;
  req.entries.push_back(FormatEntry{fmt, transforms});
  try {
    Reply rep = rpc(req);
    if (rep.status != Status::kOk || rep.accepted == 0) {
      MORPH_LOG_WARN("fmtsvc") << "publish of '" << fmt->name()
                               << "' refused: " << status_name(rep.status);
      return false;
    }
    counters_.inc(C::published);
    return true;
  } catch (const Error& e) {
    MORPH_LOG_WARN("fmtsvc") << "publish of '" << fmt->name() << "' failed: " << e.what();
    return false;
  }
}

std::vector<FormatEntry> FormatResolver::list() {
  Request req;
  req.op = Op::kList;
  Reply rep = rpc(req);  // propagate Error: list() is a diagnostic call
  std::vector<FormatEntry> out;
  out.reserve(rep.items.size());
  for (ReplyItem& item : rep.items) {
    if (item.found) out.push_back(std::move(item.entry));
  }
  return out;
}

void FormatResolver::flush_cache() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  cache_.clear();
  lru_.clear();
}

std::optional<core::ResolvedFormat> FormatResolver::cache_lookup(uint64_t fingerprint,
                                                                 bool& negative) {
  negative = false;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_.find(fingerprint);
  if (it == cache_.end()) return std::nullopt;
  if (now_ms() >= it->second.expires_at_ms) {
    counters_.inc(C::expired);
    lru_.erase(it->second.lru);
    cache_.erase(it);
    return std::nullopt;
  }
  cache_touch(fingerprint, it->second);
  if (it->second.negative) {
    negative = true;
    return std::nullopt;
  }
  return it->second.value;
}

void FormatResolver::cache_store(uint64_t fingerprint,
                                 std::optional<core::ResolvedFormat> value) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_.find(fingerprint);
  if (it != cache_.end()) {
    lru_.erase(it->second.lru);
    cache_.erase(it);
  }
  while (cache_.size() >= options_.cache_capacity && !lru_.empty()) {
    counters_.inc(C::evicted);
    cache_.erase(lru_.back());
    lru_.pop_back();
  }
  CacheEntry entry;
  entry.negative = !value.has_value();
  if (value) entry.value = std::move(*value);
  entry.expires_at_ms =
      now_ms() + (entry.negative ? options_.negative_ttl_ms : options_.ttl_ms);
  lru_.push_front(fingerprint);
  entry.lru = lru_.begin();
  cache_.emplace(fingerprint, std::move(entry));
}

void FormatResolver::cache_touch(uint64_t fingerprint, CacheEntry& entry) {
  lru_.erase(entry.lru);
  lru_.push_front(fingerprint);
  entry.lru = lru_.begin();
}

std::optional<core::ResolvedFormat> FormatResolver::fetch_with_retries(uint64_t fingerprint) {
  const uint64_t deadline = now_ms() + options_.deadline_ms;
  uint64_t backoff = options_.base_backoff_ms;

  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      counters_.inc(C::retries);
      obs::flight_record(obs::FlightKind::kResolverRetry, obs::current_trace().trace_id,
                         "fmtsvc: fetch of fingerprint " + std::to_string(fingerprint) +
                             " retrying (attempt " + std::to_string(attempt + 1) + "/" +
                             std::to_string(options_.max_attempts) + ", backoff " +
                             std::to_string(backoff) + " ms)");
      uint64_t now = now_ms();
      if (now >= deadline) break;
      uint64_t sleep_ms = std::min(jittered(backoff), deadline - now);
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      backoff = std::min(backoff * 2, options_.max_backoff_ms);
      if (now_ms() >= deadline) break;
    }
    Request req;
    req.op = Op::kFetch;
    req.fingerprints.push_back(fingerprint);
    try {
      const uint64_t t0 = obs::monotonic_ns();
      Reply rep = rpc(req);
      fetch_ns().record(obs::monotonic_ns() - t0);
      if (rep.status == Status::kOverloaded) {
        throw TransportError("fmtsvc: service overloaded");  // retryable
      }
      if (!rep.items.empty() && rep.items.front().found) {
        if (auto value = admit(std::move(rep.items.front().entry))) {
          counters_.inc(C::fetched);
          return value;
        }
        counters_.inc(C::lint_rejected);
        return std::nullopt;
      }
      // Authoritative not-found: the service answered; retrying now would
      // only hammer it. The negative TTL owns the retry cadence.
      counters_.inc(C::failed);
      return std::nullopt;
    } catch (const Error& e) {
      MORPH_LOG_WARN("fmtsvc") << "fetch of " << fingerprint << " attempt " << (attempt + 1)
                               << "/" << options_.max_attempts << " failed: " << e.what();
    }
  }
  counters_.inc(C::failed);
  return std::nullopt;
}

Reply FormatResolver::rpc(Request& req) {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  counters_.inc(C::rpcs);
  try {
    if (link_ == nullptr) {
      link_ = transport::TcpLink::connect(options_.host, options_.port);
    }
    req.request_id = next_request_id_++;

    ByteBuffer payload;
    req.serialize(payload);
    ByteBuffer frame;
    transport::write_frame(frame, transport::FrameType::kFmtsvcRequest, payload.data(),
                           payload.size(), obs::current_trace().trace_id);
    link_->send(frame);

    // The assembler is per-RPC on purpose: exactly one request is in flight
    // per connection, and every abnormal exit below drops the link, so a
    // fresh RPC never inherits half a frame or a stale late reply.
    std::optional<Reply> got;
    transport::FrameAssembler assembler;
    link_->set_on_data([&](const uint8_t* data, size_t size) {
      assembler.feed(data, size, [&](transport::Frame& f) {
        if (f.type != transport::FrameType::kFmtsvcReply) {
          throw TransportError("fmtsvc: unexpected frame type from service");
        }
        ByteReader r(f.payload.data(), f.payload.size());
        Reply rep = Reply::deserialize(r);
        if (rep.request_id == req.request_id) got = std::move(rep);
        // A mismatched id is a stale reply from a timed-out predecessor on
        // a link we failed to drop; ignoring it would desynchronize —
        // impossible by construction, but cheap to keep honest:
        else throw TransportError("fmtsvc: reply id mismatch");
      });
    });
    const uint64_t io_deadline = now_ms() + static_cast<uint64_t>(options_.io_timeout_ms);
    while (!got) {
      uint64_t now = now_ms();
      if (now >= io_deadline) throw TransportError("fmtsvc: rpc timed out");
      int slice = static_cast<int>(std::min<uint64_t>(io_deadline - now, 50));
      if (!link_->pump(slice)) throw TransportError("fmtsvc: service closed connection");
    }
    link_->set_on_data(nullptr);
    return std::move(*got);
  } catch (...) {
    link_.reset();  // next attempt redials
    throw;
  }
}

std::optional<core::ResolvedFormat> FormatResolver::admit(FormatEntry entry) {
  if (options_.lint != core::LintPolicy::kOff) {
    core::LintReport rep = core::lint_resolved(*entry.format, entry.transforms);
    for (const auto& f : rep.findings) {
      if (f.severity >= core::LintSeverity::kWarning) {
        MORPH_LOG_WARN("fmtsvc") << "fetched '" << entry.format->name()
                                 << "': " << f.to_string();
      }
    }
    if (options_.lint == core::LintPolicy::kEnforce && !rep.ok()) {
      MORPH_LOG_WARN("fmtsvc") << "rejecting fetched '" << entry.format->name()
                               << "' under lint enforcement";
      return std::nullopt;
    }
  }
  return core::ResolvedFormat{std::move(entry.format), std::move(entry.transforms)};
}

}  // namespace morph::fmtsvc
