// Compiled conversion plans between protobuf frames and native records.
//
// DecodePlan: protobuf bytes -> a native-layout record allocated from a
// RecordArena, laid out exactly as the plan's format describes. When that
// format is a morph chain's *source* layout, the decode lands directly in
// the chain's input (the decode-into-morph idiom from the broker fan-out
// work): protobuf frame -> decode -> fused Ecode chain -> delivered native
// record, with no intermediate PBIO round trip.
//
// EncodePlan: native record -> protobuf bytes, proto3 semantics (zero
// scalars, empty strings, empty submessages, and empty arrays are
// omitted; repeated elements are always emitted, zeros included, so
// element counts survive). Round trips are value-identical because the
// decoder zero-fills records before applying field presence.
//
// Both plans run one compiled plan per format, built when the plan is
// constructed: a field table per message holding each field's precomputed
// tag, offsets, count field and sub-plan. A packed run whose wire bytes are
// its memory bytes (doubles, and fixed-width ints of the wire's width, on a
// little-endian host) moves as one memcpy; the encoder measures the message
// in a size pass, then writes it straight into the caller's buffer, which
// may already hold a frame header (docs/PBUF.md).
//
// Conservation law (checked by tools/morph-stat): every frame handed to
// DecodePlan::decode bumps morph_pbuf_frames_in_total and then exactly one
// of morph_pbuf_decoded_total / morph_pbuf_rejected_total, so
//   frames_in == decoded + rejected
// holds at every instant, for every caller (ports, benches, tests). Every
// failure path counts as rejected — malformed input, the per-frame decode
// byte budget, allocation failure — not just DecodeError.
//
// Allocation is bounded per frame: repeated-element storage (dyn-array
// growth plus per-element default strings) is charged against a budget
// proportional to the payload size before each allocation, so a tiny
// hostile frame referencing a peer-learned descriptor with a huge
// element_stride rejects with DecodeError instead of forcing multi-GB
// arena growth.
#pragma once

#include <cstdint>
#include <memory>

#include "common/arena.hpp"
#include "common/bytes.hpp"
#include "obs/metrics.hpp"
#include "pbio/format.hpp"
#include "pbuf/wire.hpp"

namespace morph::pbuf {

namespace detail {
struct MessagePlan;
}

/// The process-wide morph_pbuf_* metrics, looked up once (registry
/// references stay valid forever; hot paths keep these references).
struct BridgeMetrics {
  obs::Counter& frames_in;       // morph_pbuf_frames_in_total
  obs::Counter& decoded;         // morph_pbuf_decoded_total
  obs::Counter& rejected;        // morph_pbuf_rejected_total
  obs::Counter& unknown_fields;  // morph_pbuf_unknown_fields_total
  obs::Counter& encoded;         // morph_pbuf_encoded_total
  obs::Histogram& decode_bytes;  // morph_pbuf_decode_bytes
  obs::Histogram& encode_bytes;  // morph_pbuf_encode_bytes
};
BridgeMetrics& bridge_metrics();

/// Decode protobuf payloads into native records of one format.
class DecodePlan {
 public:
  /// Throws FormatError unless `fmt` is pbuf_encodable (the same mapping
  /// completeness is needed in both directions).
  explicit DecodePlan(pbio::FormatPtr fmt);

  /// Decode one protobuf payload into a fresh record from `arena`.
  /// Declared field defaults are applied first, then wire fields overwrite
  /// them (absent fields therefore read as their default, or zero).
  /// Unknown field numbers are skipped deterministically and counted in
  /// morph_pbuf_unknown_fields_total. Malformed input — including input
  /// that exceeds the per-frame decode byte budget — throws DecodeError
  /// after bumping the rejected counter; the record under construction is
  /// abandoned to the arena (reset it between messages as usual). Any
  /// other failure (bad_alloc, FormatError) also bumps rejected before
  /// propagating, so the conservation law holds on every path.
  void* decode(const void* data, size_t size, RecordArena& arena) const;

  const pbio::FormatPtr& format() const { return fmt_; }

 private:
  pbio::FormatPtr fmt_;
  std::shared_ptr<const detail::MessagePlan> plan_;
};

/// Encode native records of one format as protobuf payloads.
class EncodePlan {
 public:
  /// Throws FormatError unless `fmt` is pbuf_encodable.
  explicit EncodePlan(pbio::FormatPtr fmt);

  /// Append the protobuf encoding of `record` to `out`; returns the number
  /// of bytes appended. `out` grows once, by exactly that many bytes.
  size_t encode(const void* record, ByteBuffer& out) const;

  const pbio::FormatPtr& format() const { return fmt_; }

 private:
  pbio::FormatPtr fmt_;
  std::shared_ptr<const detail::MessagePlan> plan_;
};

}  // namespace morph::pbuf
