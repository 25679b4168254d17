#include "transport/framing.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "common/error.hpp"

namespace morph::transport {

void write_frame(ByteBuffer& out, FrameType type, const void* payload, size_t size,
                 uint64_t trace_id) {
  const size_t header = trace_id != 0 ? 1 + 8 : 1;
  if (size + header > kMaxFrameBytes) throw TransportError("frame too large");
  const size_t at = begin_frame(out, type, trace_id);
  if (size > 0) out.append(payload, size);
  end_frame(out, at);
}

size_t begin_frame(ByteBuffer& out, FrameType type, uint64_t trace_id) {
  const size_t at = out.size();
  out.append_u32(0);  // length, set by end_frame
  uint8_t type_byte = static_cast<uint8_t>(type);
  if (trace_id != 0) type_byte |= kFrameTraceBit;
  out.append_u8(type_byte);
  if (trace_id != 0) out.append_u64(trace_id);
  return at;
}

void end_frame(ByteBuffer& out, size_t at) {
  const size_t length = out.size() - at - 4;
  if (length > kMaxFrameBytes) throw TransportError("frame too large");
  out.patch_u32(at, static_cast<uint32_t>(length));
}

void FrameAssembler::feed(const void* data, size_t size,
                          const std::function<void(Frame&)>& sink) {
  const auto* p = static_cast<const uint8_t*>(data);
  const uint8_t* const end = p + size;
  for (;;) {
    if (!in_payload_ && !take_header(p, end)) return;  // header still partial
    const size_t take = std::min(payload_left_, static_cast<size_t>(end - p));
    frame_.payload.insert(frame_.payload.end(), p, p + take);
    p += take;
    payload_left_ -= take;
    if (payload_left_ > 0) return;  // the rest arrives with a later feed
    // Reset before the callback so a throwing sink leaves the assembler at
    // the next frame boundary.
    in_payload_ = false;
    header_have_ = 0;
    sink(frame_);
  }
}

bool FrameAssembler::take_header(const uint8_t*& p, const uint8_t* end) {
  for (;;) {
    // The length comes first, then the type byte, then the trace id when
    // the type byte announces one. Each part is checked as soon as it is
    // complete, so garbage throws without waiting for a payload.
    size_t want = header_have_ < 4 ? 4 : 5;
    if (header_have_ >= 5 && (header_[4] & kFrameTraceBit) != 0) want = kMaxHeader;
    if (header_have_ == want) break;
    if (p == end) return false;
    const size_t take = std::min(want - header_have_, static_cast<size_t>(end - p));
    std::memcpy(header_ + header_have_, p, take);
    header_have_ += take;
    p += take;
    uint32_t len;
    std::memcpy(&len, header_, 4);
    if (header_have_ == 4 && (len == 0 || len > kMaxFrameBytes)) {
      throw TransportError("bad frame length");
    }
    if (header_have_ == 5) {
      const uint8_t type = header_[4] & static_cast<uint8_t>(~kFrameTraceBit);
      if (type < 1 || type > kMaxFrameType) {
        throw TransportError("bad frame type " + std::to_string(static_cast<unsigned>(type)));
      }
      if ((header_[4] & kFrameTraceBit) != 0 && len < 1 + 8) {
        throw TransportError("bad frame length");  // trace header truncated
      }
    }
  }
  uint32_t len;
  std::memcpy(&len, header_, 4);
  frame_.type = static_cast<FrameType>(header_[4] & static_cast<uint8_t>(~kFrameTraceBit));
  frame_.trace_id = 0;
  if (header_have_ == kMaxHeader) std::memcpy(&frame_.trace_id, header_ + 5, 8);
  frame_.payload.clear();
  payload_left_ = len - (header_have_ - 4);
  in_payload_ = true;
  return true;
}

}  // namespace morph::transport
