// Format-grouped event fan-out for the echo broker layer.
//
// Two pieces, both shared by EchoProcess and the fan-out bench:
//
//   * FanoutRegistry — which sinks of a channel/event-format pair want
//     which target format. Keyed by "<channel>\x1f<format name>"; each key
//     maps sinks to the fingerprint of the format they registered. Readers
//     take an immutable copy-on-write GroupSnapshot (sinks grouped by
//     target fingerprint), rebuilt lazily after membership churn, so the
//     publish path never holds a lock while morphing or sending. Sharded
//     like the receiver's decision cache; all methods are thread-safe.
//
//   * GroupPublisher — the delivery engine. For one event it encodes the
//     publisher's record once, then per group: resolves the
//     core::FanoutPlanner plan, runs the morph chain once, encodes the
//     morphed record once into a refcounted immutable frame
//     (transport::SharedPayload), and hands the same frame to every sink in
//     the group. Unreachable groups (no format definition, no chain, or
//     verifier-rejected) are reported through a fallback callback so the
//     caller can deliver per-subscriber instead. A GroupPublisher is NOT
//     thread-safe — one publisher thread each (EchoProcess is
//     single-threaded; concurrent publishers share the planner, not the
//     GroupPublisher).
//
// Payload lifetime: the shared frame is alive while any link's outbox (or
// any in-flight send) still references it; the last release frees it
// exactly once. See docs/ECHO.md.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/fanout.hpp"
#include "transport/port.hpp"

namespace morph::echo {

/// Opaque stable identity of a sink connection (the echo layer uses the
/// peer's address; the bench uses indices).
using SinkId = uint64_t;

/// Wire encoding a sink asked for. kPbio is the native default; kPbuf sinks
/// announced protobuf acceptance (EVTENC) and receive kPbufData frames.
enum class SinkEncoding : uint8_t { kPbio = 0, kPbuf = 1 };

/// One fan-out group: every sink that registered the same target format
/// AND the same wire encoding. Groups for the same format but different
/// encodings are adjacent in the snapshot (sorted by fingerprint, then
/// encoding), so the publisher morphs once per format and encodes once per
/// group.
struct FanoutGroup {
  uint64_t target_fp = 0;
  SinkEncoding encoding = SinkEncoding::kPbio;
  std::vector<SinkId> sinks;  // ascending, unique
};

/// Immutable grouping of a key's sinks, shared out to publishers.
struct GroupSnapshot {
  std::vector<FanoutGroup> groups;  // ascending by target_fp
  size_t total_sinks = 0;
};

struct FanoutRegistryStats {
  uint64_t subscribes = 0;
  uint64_t unsubscribes = 0;
  uint64_t rebuilds = 0;       // snapshot rebuilds after churn
  uint64_t snapshot_hits = 0;  // snapshots served from the cached copy
};

class FanoutRegistry {
 public:
  /// Key for a channel/event-format pair ('\x1f' cannot appear in either).
  static std::string key(const std::string& channel, const std::string& format_name) {
    return channel + '\x1f' + format_name;
  }

  /// Add `sink` to `key`'s grouping with target fingerprint `target_fp`
  /// and wire encoding `encoding`. Upsert: a sink re-announcing a different
  /// fingerprint or encoding moves groups.
  void subscribe(const std::string& key, SinkId sink, uint64_t target_fp,
                 SinkEncoding encoding = SinkEncoding::kPbio);

  /// Remove `sink` from `key`'s grouping (no-op when absent).
  void unsubscribe(const std::string& key, SinkId sink);

  /// Remove `sink` from every key (peer disconnect / leave-all).
  void unsubscribe_all(SinkId sink);

  /// The current grouping for `key`; never null (empty snapshot for an
  /// unknown key). Lazily rebuilt after churn and cached; the returned
  /// snapshot is immutable and safe to use without the registry's locks.
  std::shared_ptr<const GroupSnapshot> snapshot(const std::string& key) const;

  FanoutRegistryStats stats() const;

 private:
  struct Sub {
    uint64_t target_fp = 0;
    SinkEncoding encoding = SinkEncoding::kPbio;
  };
  struct Entry {
    std::map<SinkId, Sub> members;  // sink -> (target fingerprint, encoding)
    std::shared_ptr<const GroupSnapshot> snap;  // null while dirty
  };
  static constexpr size_t kShards = 8;
  struct Shard {
    mutable SharedMutex mutex;
    std::unordered_map<std::string, Entry> entries MORPH_GUARDED_BY(mutex);
  };

  Shard& shard_for(const std::string& key) const {
    return shards_[std::hash<std::string>{}(key) & (kShards - 1)];
  }
  static std::shared_ptr<const GroupSnapshot> build_snapshot(const Entry& entry);

  mutable std::array<Shard, kShards> shards_;
  mutable std::atomic<uint64_t> subscribes_{0};
  mutable std::atomic<uint64_t> unsubscribes_{0};
  mutable std::atomic<uint64_t> rebuilds_{0};
  mutable std::atomic<uint64_t> snapshot_hits_{0};
};

/// Per-event delivery tally returned by GroupPublisher::publish.
struct PublishCounts {
  size_t groups = 0;        // reachable groups delivered to
  size_t morphs = 0;        // morph-chain executions (identity groups: none)
  size_t morph_reuses = 0;  // groups that reused the previous group's morph
                            // (same format, different encoding)
  size_t encodes = 0;       // shared frames built (one per reachable group)
  size_t pbuf_encodes = 0;  // of those, protobuf-encoded (kPbufData frames)
  size_t deliveries = 0;    // send_shared calls (sum of group sizes)
  size_t fallbacks = 0;     // sinks punted to the fallback callback
};

class GroupPublisher {
 public:
  explicit GroupPublisher(core::FanoutPlanner& planner) : planner_(planner) {}

  /// Resolve a SinkId to its port; nullptr punts the sink to `fallback`.
  using ResolvePort = std::function<transport::MessagePort*(SinkId)>;
  using Fallback = std::function<void(SinkId)>;

  /// Deliver one event (`record` of `fmt`) to every group in `snapshot`:
  /// encode the source record once, morph + encode once per group, hand the
  /// shared frame to every resolved sink. Sinks in unreachable groups (and
  /// sinks `resolve` cannot map) go through `fallback` — the caller's
  /// per-sink fallback. Bumps the echo_fanout_* obs counters.
  PublishCounts publish(const pbio::FormatPtr& fmt, const void* record,
                        const GroupSnapshot& snapshot, const ResolvePort& resolve,
                        const Fallback& fallback);

 private:
  /// Cached protobuf encoder for a group's target format; nullptr is a
  /// cached negative (target not pbuf-encodable — its sinks fall back).
  pbuf::EncodePlan* pbuf_encoder_for(const pbio::FormatPtr& target);

  core::FanoutPlanner& planner_;
  // Publisher-side wire encoders for source formats, one per fingerprint.
  std::unordered_map<uint64_t, std::unique_ptr<pbio::Encoder>> encoders_;
  std::unordered_map<uint64_t, std::unique_ptr<pbuf::EncodePlan>> pbuf_encoders_;
  RecordArena arena_;    // morphed records live until the next publish
  ByteBuffer wire_;      // scratch: the event's source-format encoding
  ByteBuffer scratch_;   // scratch: per-group morphed encoding
  std::vector<transport::MessagePort*> ports_;  // scratch: resolved group
};

}  // namespace morph::echo
