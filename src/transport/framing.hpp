// Frame protocol shared by every transport.
//
// A connection carries length-prefixed frames:
//   [u32 length][u8 type][optional u64 trace id][payload ...]
// where length counts everything after itself (type byte, optional trace
// header, payload). Frame types implement the paper's out-of-band meta-data
// channel: format definitions and transform definitions travel once, data
// messages reference formats by the fingerprint in their PBIO header.
//
// Trace header: when bit 0x80 of the type byte is set, an 8-byte trace id
// follows the type byte before the payload (obs/trace.hpp). The bit is
// optional and per-frame, so peers built before the header existed keep
// interoperating: frames they send parse exactly as they always did, and
// tracing-aware senders only set the bit when a trace is active.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.hpp"

namespace morph::transport {

enum class FrameType : uint8_t {
  kFormatDef = 1,      // serialized FormatDescriptor
  kTransformDef = 2,   // serialized TransformSpec
  kData = 3,           // PBIO-encoded message
  kControl = 4,        // application-level control payload
  kFmtsvcRequest = 5,  // format-service request (fmtsvc/protocol.hpp)
  kFmtsvcReply = 6,    // format-service reply
  kTelemetry = 7,      // telemetry-plane payload (obs/telemetry.hpp)
  /// Protobuf-encoded message: [u64 format fingerprint][protobuf bytes].
  /// Sent only after the peer announced pbuf acceptance (the "@enc pbuf"
  /// control sentinel — see MessagePort::announce_pbuf), so legacy peers
  /// never see the type. The fingerprint substitutes for the PBIO header:
  /// it names the imported .proto format whose field numbers decode the
  /// payload.
  kPbufData = 8,
};

constexpr uint8_t kMaxFrameType = 8;

/// Type-byte bit marking the presence of the 8-byte trace id header.
constexpr uint8_t kFrameTraceBit = 0x80;

/// One decoded frame. The payload vector comes from std::allocator, whose
/// blocks are aligned for any fundamental type, so a kData payload's PBIO
/// body (at offset kWireHeaderSize == 16) is 8-byte aligned and can be
/// decoded in place into records handlers cast to C structs.
struct Frame {
  FrameType type = FrameType::kData;
  uint64_t trace_id = 0;  // 0 when the frame carried no trace header
  std::vector<uint8_t> payload;
};

static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= 8,
              "frame payloads must keep PBIO record bodies 8-byte aligned");

constexpr size_t kMaxFrameBytes = 64u << 20;  // hostile-peer allocation cap

/// Append a frame to `out`. A non-zero `trace_id` is propagated in the
/// optional trace header (zero sends the legacy headerless shape).
void write_frame(ByteBuffer& out, FrameType type, const void* payload, size_t size,
                 uint64_t trace_id = 0);

/// Append the header of a frame whose payload the caller then appends to
/// `out` itself; returns the offset end_frame() takes. Lets an encoder write
/// its bytes straight into the frame instead of into a buffer copied in.
size_t begin_frame(ByteBuffer& out, FrameType type, uint64_t trace_id = 0);

/// Set the length of the frame begun at `at` to cover everything appended
/// since. Throws TransportError if the frame exceeds kMaxFrameBytes.
void end_frame(ByteBuffer& out, size_t at);

/// Incremental frame decoder: feed raw bytes, pop complete frames.
///
/// Every payload byte is copied once, from the caller's bytes into the
/// payload of one reused Frame, which keeps its capacity across frames: a
/// frame that straddles feed() calls grows that payload instead of passing
/// through a second buffer, and steady-state traffic allocates nothing. (A
/// payload larger than any before it is moved again when the vector grows;
/// the capacity follows the bytes that arrive, never a peer's length claim.)
/// Only the 5- to 13-byte frame header of a partial frame is staged
/// separately.
///
/// The Frame handed to `sink` lives only for that callback: the next frame
/// overwrites it. A sink may mutate it (MessagePort decodes PBIO records in
/// place in the payload) or move the payload out. feed() is not re-entrant:
/// a sink must not feed the same assembler.
class FrameAssembler {
 public:
  /// Feed `size` bytes; invokes `sink` for every completed frame.
  /// Throws TransportError on malformed frames (oversized, bad type).
  void feed(const void* data, size_t size, const std::function<void(Frame&)>& sink);

  /// Bytes of a partial frame held between feed() calls.
  size_t buffered_bytes() const {
    return header_have_ + (in_payload_ ? frame_.payload.size() : 0);
  }

 private:
  static constexpr size_t kMaxHeader = 4 + 1 + 8;  // length, type, trace id

  bool take_header(const uint8_t*& p, const uint8_t* end);

  Frame frame_;                   // the frame being assembled
  uint8_t header_[kMaxHeader] = {};
  size_t header_have_ = 0;        // header bytes of frame_ received so far
  bool in_payload_ = false;       // header complete, payload arriving
  size_t payload_left_ = 0;       // payload bytes of frame_ still missing
};

}  // namespace morph::transport
