#include "pbuf/wire.hpp"

namespace morph::pbuf {

void put_varint(ByteBuffer& out, uint64_t v) {
  uint8_t buf[kMaxVarintBytes];
  out.append(buf, static_cast<size_t>(write_varint(buf, v) - buf));
}

void put_tag(ByteBuffer& out, uint32_t field_number, WireType wt) {
  put_varint(out, (static_cast<uint64_t>(field_number) << 3) |
                      static_cast<uint64_t>(wt));
}

void put_fixed32(ByteBuffer& out, uint32_t v) { out.append_u32(v); }
void put_fixed64(ByteBuffer& out, uint64_t v) { out.append_u64(v); }

uint64_t PbReader::varint_slow() {
  uint64_t v = 0;
  int shift = 0;
  for (size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (pos_ >= size_) throw DecodeError("truncated varint");
    uint8_t b = data_[pos_++];
    // The 10th byte carries bits 63.. so only its low bit may be set; a set
    // continuation bit there would claim an 11-byte varint.
    if (i == kMaxVarintBytes - 1 && (b & 0xFE) != 0) {
      throw DecodeError("varint exceeds 10 bytes");
    }
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
  throw DecodeError("varint exceeds 10 bytes");
}

PbReader::Tag PbReader::tag() {
  uint64_t raw = varint();
  uint32_t field = static_cast<uint32_t>(raw >> 3);
  if (raw >> 3 > 0x1FFFFFFFu) throw DecodeError("pb field number out of range");
  if (field == 0) throw DecodeError("pb field number 0 is reserved");
  switch (raw & 7) {
    case 0:
      return {field, WireType::kVarint};
    case 1:
      return {field, WireType::kFixed64};
    case 2:
      return {field, WireType::kLengthDelimited};
    case 5:
      return {field, WireType::kFixed32};
    default:
      throw DecodeError("unsupported pb wire type " + std::to_string(raw & 7) +
                        " (field " + std::to_string(field) + ")");
  }
}

uint32_t PbReader::fixed32() {
  if (remaining() < 4) throw DecodeError("truncated fixed32");
  uint32_t v;
  std::memcpy(&v, data_ + pos_, 4);
  pos_ += 4;
  return v;
}

uint64_t PbReader::fixed64() {
  if (remaining() < 8) throw DecodeError("truncated fixed64");
  uint64_t v;
  std::memcpy(&v, data_ + pos_, 8);
  pos_ += 8;
  return v;
}

PbReader PbReader::length_delimited() {
  uint64_t len = varint();
  if (len > remaining()) {
    throw DecodeError("pb length " + std::to_string(len) + " overflows " +
                      std::to_string(remaining()) + " remaining bytes");
  }
  PbReader sub(data_ + pos_, static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return sub;
}

void PbReader::skip(WireType wt) {
  switch (wt) {
    case WireType::kVarint:
      (void)varint();
      break;
    case WireType::kFixed64:
      if (remaining() < 8) throw DecodeError("truncated fixed64");
      pos_ += 8;
      break;
    case WireType::kLengthDelimited:
      (void)length_delimited();
      break;
    case WireType::kFixed32:
      if (remaining() < 4) throw DecodeError("truncated fixed32");
      pos_ += 4;
      break;
  }
}

void PbReader::advance(size_t n) {
  if (n > remaining()) throw DecodeError("pb reader advance past end");
  pos_ += n;
}

}  // namespace morph::pbuf
