#include "echo/fanout.hpp"

#include <algorithm>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pbuf/schema.hpp"

namespace morph::echo {

namespace {
using R = FanoutRegistryStats::Id;

/// Process-wide fan-out gauges and histogram, resolved once. The gauges
/// hold the most recent event's shape (morphs per event == number of
/// distinct non-identity formats, the O(formats)-not-O(subscribers)
/// invariant).
struct FanoutMetrics {
  obs::Gauge& event_morphs = obs::metrics().gauge(obs::Metric::echo_fanout_event_morphs);
  obs::Gauge& event_groups = obs::metrics().gauge(obs::Metric::echo_fanout_event_groups);
  obs::Histogram& group_sinks = obs::metrics().histogram(obs::Metric::echo_fanout_group_sinks);
  obs::Gauge& reg_groups = obs::metrics().gauge(obs::Metric::echo_fanout_groups);
  obs::Gauge& reg_subscribers = obs::metrics().gauge(obs::Metric::echo_fanout_subscribers);
};

FanoutMetrics& fm() {
  static FanoutMetrics* m = new FanoutMetrics();  // leaked: outlives all users
  return *m;
}
}  // namespace

// ---------------------------------------------------------------------------
// FanoutRegistry
// ---------------------------------------------------------------------------

void FanoutRegistry::subscribe(const std::string& key, SinkId sink, uint64_t target_fp,
                               SinkEncoding encoding) {
  Shard& shard = shard_for(key);
  WriterLock lock(shard.mutex);
  Entry& entry = shard.entries[key];
  auto it = entry.members.find(sink);
  if (it != entry.members.end() && it->second.target_fp == target_fp &&
      it->second.encoding == encoding) {
    return;  // no churn
  }
  entry.members[sink] = Sub{target_fp, encoding};
  entry.snap = nullptr;  // invalidate; rebuilt on next snapshot()
  counters_.inc(R::subscribes);
}

void FanoutRegistry::unsubscribe(const std::string& key, SinkId sink) {
  Shard& shard = shard_for(key);
  WriterLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return;
  if (it->second.members.erase(sink) == 0) return;
  it->second.snap = nullptr;
  counters_.inc(R::unsubscribes);
}

void FanoutRegistry::unsubscribe_all(SinkId sink) {
  for (auto& shard : shards_) {
    WriterLock lock(shard.mutex);
    for (auto& [key, entry] : shard.entries) {
      if (entry.members.erase(sink) != 0) {
        entry.snap = nullptr;
        counters_.inc(R::unsubscribes);
      }
    }
  }
}

std::shared_ptr<const GroupSnapshot> FanoutRegistry::build_snapshot(const Entry& entry) {
  auto snap = std::make_shared<GroupSnapshot>();
  // members is ordered by SinkId; bucket by (fingerprint, encoding), then
  // sort groups. Same-format groups land adjacent regardless of encoding,
  // which is what lets the publisher reuse one morph across both.
  std::map<std::pair<uint64_t, SinkEncoding>, std::vector<SinkId>> by_fp;
  for (const auto& [sink, sub] : entry.members) {
    by_fp[{sub.target_fp, sub.encoding}].push_back(sink);
  }
  snap->groups.reserve(by_fp.size());
  for (auto& [key, sinks] : by_fp) {
    snap->total_sinks += sinks.size();
    snap->groups.push_back(FanoutGroup{key.first, key.second, std::move(sinks)});
  }
  return snap;
}

std::shared_ptr<const GroupSnapshot> FanoutRegistry::snapshot(const std::string& key) const {
  static const auto kEmpty = std::make_shared<const GroupSnapshot>();
  Shard& shard = shard_for(key);
  {
    ReaderLock lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) return kEmpty;
    if (it->second.snap != nullptr) {
      counters_.inc(R::snapshot_hits);
      return it->second.snap;
    }
  }
  WriterLock lock(shard.mutex);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return kEmpty;
  if (it->second.snap == nullptr) {
    it->second.snap = build_snapshot(it->second);
    counters_.inc(R::rebuilds);
    // Gauges track the most recently rebuilt key — a live view of the
    // grouping shape under churn, not a sum across keys.
    fm().reg_groups.set(static_cast<double>(it->second.snap->groups.size()));
    fm().reg_subscribers.set(static_cast<double>(it->second.snap->total_sinks));
  } else {
    counters_.inc(R::snapshot_hits);
  }
  return it->second.snap;
}

// ---------------------------------------------------------------------------
// GroupPublisher
// ---------------------------------------------------------------------------

PublisherStats GroupPublisher::publish(const pbio::FormatPtr& fmt, const void* record,
                                       const GroupSnapshot& snapshot, const ResolvePort& resolve,
                                       const Fallback& fallback) {
  PublisherStats out;
  if (snapshot.groups.empty()) return out;

  uint64_t trace_id = 0;
  uint64_t parent_span = 0;
  if (obs::tracing_enabled()) {
    trace_id = obs::current_trace().trace_id;
    if (trace_id == 0) {
      trace_id = obs::new_trace_id();
    } else {
      // Inherit the caller's active span: when the broker republishes from
      // inside a delivery, fan-out spans parent under port.deliver.
      parent_span = obs::current_trace().span_id;
    }
  }
  obs::TraceScope trace_scope(obs::TraceContext{trace_id, parent_span});

  // The single wire encode of the publisher's record: morph input for every
  // group, and the payload itself for the identity group.
  auto enc = encoders_.find(fmt->fingerprint());
  if (enc == encoders_.end()) {
    enc = encoders_.emplace(fmt->fingerprint(), std::make_unique<pbio::Encoder>(fmt)).first;
  }
  wire_.clear();
  enc->second->encode(record, wire_);
  arena_.reset();

  // Morph cache across adjacent groups: snapshots sort groups by
  // (fingerprint, encoding), so "protobuf sinks of F" directly follows
  // "native sinks of F" and reuses its morphed record (morph once per
  // format, encode once per group).
  uint64_t morphed_fp = 0;
  void* morphed_cached = nullptr;

  for (const auto& group : snapshot.groups) {
    auto plan = planner_.plan(fmt, group.target_fp);
    if (!plan->reachable()) {
      for (SinkId sink : group.sinks) fallback(sink);
      out.fanout_fallbacks += group.sinks.size();
      continue;
    }
    const pbio::FormatPtr& send_fmt = plan->identity() ? fmt : plan->target();

    pbuf::EncodePlan* pbuf_plan = nullptr;
    if (group.encoding == SinkEncoding::kPbuf) {
      pbuf_plan = pbuf_encoder_for(send_fmt);
      if (pbuf_plan == nullptr) {
        // Sinks asked for protobuf but the target cannot express it (no
        // field numbers): keep the legacy contract instead of going dark.
        for (SinkId sink : group.sinks) fallback(sink);
        out.fanout_fallbacks += group.sinks.size();
        continue;
      }
    }

    // Resolve ports before morphing: a group whose sinks all fell back
    // must cost no morph/encode, keeping morphs <= encodes <= deliveries
    // exact (the morph-stat conservation check).
    ports_.clear();
    for (SinkId sink : group.sinks) {
      transport::MessagePort* port = resolve(sink);
      if (port == nullptr) {
        fallback(sink);
        ++out.fanout_fallbacks;
      } else {
        ports_.push_back(port);
      }
    }
    if (ports_.empty()) continue;

    void* morphed = nullptr;
    if (!plan->identity()) {
      if (morphed_cached != nullptr && morphed_fp == group.target_fp) {
        morphed = morphed_cached;
        ++out.fanout_morph_reuses;
      } else {
        const uint64_t t0 = obs::monotonic_ns();
        morphed = plan->morph(wire_.data(), wire_.size(), arena_);
        const uint64_t morph_dur = obs::monotonic_ns() - t0;
        ++out.fanout_morphs;
        morphed_cached = morphed;
        morphed_fp = group.target_fp;
        // One span per format morph, tagged with the target format: the
        // collector's attribution table reconciles these against
        // echo_fanout_morphs_total (the conservation check).
        obs::record_span("fanout.morph", plan->target()->name(), t0, morph_dur);
        if (morph_dur >= obs::flight_slow_ns()) {
          obs::flight_record(obs::FlightKind::kSlowMorph, trace_id,
                             "fanout: slow morph to " + plan->target()->name() + " (" +
                                 std::to_string(morph_dur) + " ns)");
        }
      }
    }

    transport::SharedPayload frame;
    if (pbuf_plan != nullptr) {
      frame = transport::make_shared_pbuf_frame(*pbuf_plan, plan->identity() ? record : morphed,
                                                trace_id);
      ++out.fanout_pbuf_encodes;
    } else if (plan->identity()) {
      frame = transport::make_shared_frame(wire_.data(), wire_.size(), trace_id);
    } else {
      scratch_.clear();
      plan->encode(morphed, scratch_);
      frame = transport::make_shared_frame(scratch_.data(), scratch_.size(), trace_id);
    }
    ++out.fanout_encodes;

    for (transport::MessagePort* port : ports_) port->send_shared(send_fmt, frame);
    ++out.fanout_groups;
    out.fanout_deliveries += ports_.size();
    fm().group_sinks.record(ports_.size());
  }

  if (out.fanout_deliveries > 0) {
    out.fanout_events = 1;
    fm().event_morphs.set(static_cast<double>(out.fanout_morphs));
    fm().event_groups.set(static_cast<double>(out.fanout_groups));
  }
  counters_.add(out);
  if (out.fanout_fallbacks > 0) {
    obs::flight_record(obs::FlightKind::kFanoutFallback, trace_id,
                       "fanout: " + std::to_string(out.fanout_fallbacks) +
                           " sink(s) fell back to unmorphed delivery");
  }
  return out;
}

pbuf::EncodePlan* GroupPublisher::pbuf_encoder_for(const pbio::FormatPtr& target) {
  auto it = pbuf_encoders_.find(target->fingerprint());
  if (it == pbuf_encoders_.end()) {
    std::unique_ptr<pbuf::EncodePlan> plan;
    if (pbuf::pbuf_encodable(*target)) plan = std::make_unique<pbuf::EncodePlan>(target);
    it = pbuf_encoders_.emplace(target->fingerprint(), std::move(plan)).first;
  }
  return it->second.get();
}

}  // namespace morph::echo
