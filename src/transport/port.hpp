// MessagePort: the morphing middleware endpoint over a Link.
//
// A port implements the paper's out-of-band meta-data discipline:
//   * the first time a format is sent, its FormatDescriptor — and every
//     transform spec reachable from it — travels as meta-data frames;
//   * subsequent messages of that format cost only the 16-byte PBIO header;
//   * the receiving port feeds learned formats/transforms into its
//     core::Receiver and pushes every data frame through Algorithm 2,
//     decoding in the frame's own payload where the decision allows
//     (core::Receiver::process_in_place).
//
// Control frames bypass morphing and deliver raw bytes (ECho uses them for
// its own bootstrap before formats are established).
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/receiver.hpp"
#include "obs/metrics.hpp"
#include "pbio/encode.hpp"
#include "pbuf/bridge.hpp"
#include "transport/framing.hpp"
#include "transport/link.hpp"

namespace morph::transport {

/// Control sentinel a port sends to announce it accepts protobuf-encoded
/// data frames (FrameType::kPbufData). The remote port consumes it during
/// frame dispatch — it never reaches the application control handler — and
/// ports that predate the sentinel deliver it as an ordinary control
/// payload, which applications ignore by convention; such peers simply
/// never set the bit and keep receiving PBIO.
inline constexpr char kPbufEnableSentinel[] = "@enc pbuf";

class MessagePort {
 public:
  /// `receiver` may be null for a send-only port. Both must outlive the
  /// port.
  MessagePort(Link& link, core::Receiver* receiver);

  /// Declare a transform to ship alongside its source format (the sender
  /// side of "the writer may also specify a set of transformations").
  void declare_transform(core::TransformSpec spec);

  /// Encode and send a record; lazily sends format + transform meta-data.
  void send_record(const pbio::FormatPtr& fmt, const void* record);

  /// Send a pre-built shared data frame of format `fmt` (see
  /// make_shared_frame). Per-port meta-data for the format still goes out
  /// first — once, lazily, exactly as send_record does — but the payload
  /// bytes themselves are shared: the broker encodes one frame and every
  /// port in the fan-out group forwards the same buffer.
  void send_shared(const pbio::FormatPtr& fmt, const SharedPayload& frame);

  /// Announce to the peer that this port accepts protobuf-encoded data
  /// frames. After the announcement round-trips, the peer's send_record
  /// switches to FrameType::kPbufData for every pbuf-encodable format
  /// (formats without protobuf field numbers keep using PBIO frames).
  void announce_pbuf();

  /// True once the peer announced pbuf acceptance ("@enc pbuf" arrived).
  bool peer_accepts_pbuf() const { return peer_accepts_pbuf_; }

  /// Raw control payload.
  void send_control(const void* data, size_t size);
  void set_on_control(std::function<void(const uint8_t*, size_t)> cb) {
    on_control_ = std::move(cb);
  }

  /// Out-of-band meta-data distribution hook. When set, a first-contact
  /// format (plus the transforms declared for it) is offered to the
  /// publisher — typically fmtsvc::FormatResolver::publish — instead of
  /// being framed inline. A false return (service unreachable or entry
  /// refused) degrades gracefully: the port falls back to inline
  /// kFormatDef/kTransformDef frames for that format, so peers without
  /// service access still learn it. Transforms declared after their source
  /// format already went out always travel inline.
  using MetaPublisher =
      std::function<bool(const pbio::FormatPtr&, const std::vector<core::TransformSpec>&)>;
  void set_meta_publisher(MetaPublisher publisher) { meta_publisher_ = std::move(publisher); }

  /// The port's counters: PortStats field and catalog series, or
  /// none for the per-port control-frame bytes (bytes_sent counts data
  /// and meta frames only).
#define MORPH_PORT_COUNTERS(X)                                      \
  X(data_sent, morph_port_frames_sent_total, "data")                \
  X(data_received, morph_port_frames_received_total, "data")        \
  X(meta_frames_sent, morph_port_frames_sent_total, "meta")         \
  X(meta_frames_received, morph_port_frames_received_total, "meta") \
  X(meta_published, morph_port_meta_published_total)                \
  X(bytes_sent, morph_port_bytes_sent_total)                        \
  X(control_bytes_sent)                                             \
  X(bad_frames, morph_port_bad_frames_total)                        \
  X(pbuf_sent, morph_port_frames_sent_total, "pbuf")                \
  X(pbuf_received, morph_port_frames_received_total, "pbuf")        \
  X(pbuf_rejects, morph_port_pbuf_rejects_total)

  struct PortStats {
    MORPH_STATS(PortStats, MORPH_PORT_COUNTERS)
  };
  PortStats stats() const { return stats_.load(); }

  /// True once a malformed frame poisoned the byte stream: the port stops
  /// processing input (framing cannot resynchronize) but never throws
  /// through the link's receive callback.
  bool wire_dead() const { return wire_dead_; }

 private:
  void on_bytes(const uint8_t* data, size_t size);
  void feed_frames(const uint8_t* data, size_t size);
  void send_meta_for(const pbio::FormatPtr& fmt);
  /// Frame one meta-data definition (a format or a transform spec), send
  /// it and count it.
  template <typename Def>
  void send_meta(FrameType type, const Def& def);
  /// The protobuf encoder for `fmt`, built once; null when the format has
  /// no protobuf mapping (it keeps going out as PBIO).
  pbuf::EncodePlan* pbuf_encoder_for(const pbio::FormatPtr& fmt);
  void deliver_pbuf(const Frame& frame);

  Link& link_;
  core::Receiver* receiver_;
  FrameAssembler assembler_;
  std::unordered_set<uint64_t> sent_formats_;
  std::vector<core::TransformSpec> declared_transforms_;
  std::unordered_map<uint64_t, std::unique_ptr<pbio::Encoder>> encoders_;
  std::unordered_map<uint64_t, std::unique_ptr<pbuf::EncodePlan>> pbuf_encoders_;
  std::unordered_map<uint64_t, std::unique_ptr<pbuf::DecodePlan>> pbuf_decoders_;
  std::function<void(const uint8_t*, size_t)> on_control_;
  MetaPublisher meta_publisher_;
  RecordArena rx_arena_;
  obs::CounterSet<PortStats> stats_;
  bool wire_dead_ = false;
  bool peer_accepts_pbuf_ = false;
};

/// Build a complete kData frame around an already-encoded PBIO message —
/// the shared encode of a fan-out group, ready for MessagePort::send_shared
/// on every member port. A non-zero `trace_id` travels in the frame's trace
/// header, as in send_record.
SharedPayload make_shared_frame(const void* msg, size_t size, uint64_t trace_id = 0);

/// Append a complete kPbufData frame carrying `record` encoded by `plan`.
/// The protobuf bytes are written straight into the frame, after the
/// fingerprint of the plan's format (which the receiving port resolves
/// against its learned registry).
void write_pbuf_frame(ByteBuffer& out, const pbuf::EncodePlan& plan, const void* record,
                      uint64_t trace_id = 0);

/// write_pbuf_frame into a fresh shared frame: the fan-out group's shared
/// encode for pbuf-speaking sinks.
SharedPayload make_shared_pbuf_frame(const pbuf::EncodePlan& plan, const void* record,
                                     uint64_t trace_id = 0);

}  // namespace morph::transport
