// Protobuf wire primitives: varints, zigzag, tags, and the four wire types
// the bridge supports.
//
// This is the bottom layer of src/pbuf/ — pure byte manipulation with the
// same hostile-input posture as the PBIO decoder: every read is bounds
// checked, malformed input throws DecodeError (never UB, never a silent
// wrong value), and nothing here allocates proportionally to attacker-
// controlled counts before validating them against the buffer that must
// contain the data. See docs/PBUF.md for the schema subset this backs.
#pragma once

#include <bit>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace morph::pbuf {

/// Protobuf wire types. Groups (3/4) and the reserved values (6/7) are not
/// supported: a tag carrying one is a hard DecodeError, because skipping a
/// group requires trusting unbounded nesting from the attacker.
enum class WireType : uint8_t {
  kVarint = 0,
  kFixed64 = 1,
  kLengthDelimited = 2,
  kFixed32 = 5,
};

/// Longest legal varint: 10 bytes covers 64 payload bits at 7 bits/byte.
constexpr size_t kMaxVarintBytes = 10;

/// Zigzag mapping for sint32/sint64 (small magnitudes -> small varints).
inline uint64_t zigzag_encode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t zigzag_decode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Append a base-128 varint.
void put_varint(ByteBuffer& out, uint64_t v);

/// Append a field tag: (field_number << 3) | wire_type.
void put_tag(ByteBuffer& out, uint32_t field_number, WireType wt);

void put_fixed32(ByteBuffer& out, uint32_t v);
void put_fixed64(ByteBuffer& out, uint64_t v);

/// Serialized size of a varint, for length pre-computation.
inline size_t varint_size(uint64_t v) { return (std::bit_width(v | 1) + 6) / 7; }

/// Write a base-128 varint at `out`, which has room for varint_size(v)
/// bytes; returns the byte after it.
inline uint8_t* write_varint(uint8_t* out, uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *out++ = static_cast<uint8_t>(v);
  return out;
}

/// Bounds-checked protobuf reader over a byte range. Thin wrapper around
/// the raw bytes (not ByteReader: protobuf scalars are not the fixed-width
/// little-endian primitives ByteReader speaks).
class PbReader {
 public:
  PbReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }

  /// Read one varint. Throws DecodeError on truncation or a varint longer
  /// than 10 bytes (overlong encodings of small values are accepted, as in
  /// every mainstream protobuf decoder, but an 11th continuation byte is
  /// not a varint at all).
  uint64_t varint() {
    if (pos_ < size_ && data_[pos_] < 0x80) return data_[pos_++];
    return varint_slow();
  }

  /// Read one tag; returns {field_number, wire_type}. Throws on field
  /// number 0 (reserved), numbers above 2^29-1, and unsupported wire types.
  struct Tag {
    uint32_t field = 0;
    WireType wt = WireType::kVarint;
  };
  Tag tag();

  uint32_t fixed32();
  uint64_t fixed64();

  /// Read a length prefix and return a sub-reader over exactly that many
  /// bytes, advancing this reader past them. Throws if the declared length
  /// overflows what remains — the "nested length overflow" hostile case.
  PbReader length_delimited();

  /// Skip one field's payload given its wire type (unknown-field handling).
  void skip(WireType wt);

  const uint8_t* cursor() const { return data_ + pos_; }
  void advance(size_t n);

 private:
  uint64_t varint_slow();

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace morph::pbuf
