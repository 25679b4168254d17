// PBIO encoder: flattens a native-layout record into a self-contained wire
// buffer.
//
// Wire layout (all multi-byte header fields in the writer's byte order,
// which the one-byte order tag makes decodable anywhere):
//
//   [0]  u8   magic 'P'
//   [1]  u8   magic 'B'
//   [2]  u8   wire version (1)
//   [3]  u8   body byte order (0 little, 1 big)
//   [4]  u64  identity fingerprint of the writer's format
//   [12] u32  total message size in bytes (header + body)
//   [16] body: the root struct verbatim, then variable sections
//
// Pointer fields (strings, dynamic arrays) are rewritten as u64 offsets
// relative to the body start; 0 means null (offset 0 is the root struct, so
// it can never be a legitimate variable section). Strings are stored
// NUL-terminated; dynamic arrays as contiguous elements in wire stride.
//
// The 16-byte header is the entire per-message meta-data cost — format
// descriptions travel out-of-band, once (Table 1's "less than 30 bytes").
#pragma once

#include <memory>

#include "common/bytes.hpp"
#include "pbio/format.hpp"

namespace morph::pbio {

constexpr size_t kWireHeaderSize = 16;
constexpr uint8_t kWireVersion = 1;

/// Reusable encoder for one format. Construction precomputes the pointer
/// fix-up walk so encoding a pointer-free record is header + one memcpy.
class Encoder {
 public:
  explicit Encoder(FormatPtr fmt);
  ~Encoder();
  Encoder(Encoder&&) noexcept;
  Encoder& operator=(Encoder&&) noexcept;

  const FormatPtr& format() const { return fmt_; }

  /// Append the encoded message to `out` (which is cleared first).
  /// Returns the encoded size in bytes.
  size_t encode(const void* record, ByteBuffer& out) const;

  /// Append the encoded message after whatever `out` already holds (a frame
  /// header, say); its offsets and alignment are relative to its own first
  /// byte, so the bytes equal encode()'s. Returns the encoded size in bytes.
  size_t append(const void* record, ByteBuffer& out) const;

 private:
  struct Prepared;
  FormatPtr fmt_;
  std::unique_ptr<Prepared> prepared_;
};

/// One-shot convenience.
size_t encode_record(const FormatDescriptor& fmt, const void* record, ByteBuffer& out);

}  // namespace morph::pbio
