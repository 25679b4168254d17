#include "pbio/encode.hpp"

#include <cstring>

#include "common/endian.hpp"
#include "obs/metrics.hpp"
#include "pbio/record.hpp"
#include "pbio/varwalk.hpp"

namespace morph::pbio {

struct Encoder::Prepared {
  std::unique_ptr<VarWalk> walk;
};

namespace {

/// The message being appended to `buf`: its first byte sits at `base`, and
/// its pointers and alignment are relative to its body, which follows the
/// header.
struct Out {
  ByteBuffer& buf;
  size_t base;

  uint64_t body_offset() const { return buf.size() - base - kWireHeaderSize; }
};

/// Append the string `s` (may be null) and patch the pointer slot at
/// `slot_pos` with its body-relative offset (0 for null).
void emit_string(const char* s, size_t slot_pos, Out& out) {
  if (s == nullptr) {
    out.buf.patch_u64(slot_pos, 0);
    return;
  }
  uint64_t rel = out.body_offset();
  out.buf.append(s, std::strlen(s) + 1);
  out.buf.patch_u64(slot_pos, rel);
}

void fix_struct(const VarWalk& walk, size_t struct_pos, const uint8_t* rec, Out& out);

void fix_one(const VarWalk::Var& v, size_t struct_pos, const uint8_t* rec, Out& out) {
  const FieldDescriptor& fd = *v.fd;
  switch (v.action) {
    case VarWalk::Action::kString: {
      const char* s;
      std::memcpy(&s, rec + fd.offset, sizeof(char*));
      emit_string(s, struct_pos + fd.offset, out);
      break;
    }
    case VarWalk::Action::kInlineSub: {
      if (fd.kind == FieldKind::kStruct) {
        fix_struct(*v.elem, struct_pos + fd.offset, rec + fd.offset, out);
      } else {  // static array of structs
        uint32_t stride = fd.element_stride();
        for (uint32_t i = 0; i < fd.static_count; ++i) {
          fix_struct(*v.elem, struct_pos + fd.offset + i * stride, rec + fd.offset + i * stride,
                     out);
        }
      }
      break;
    }
    case VarWalk::Action::kStaticStrings: {
      for (uint32_t i = 0; i < fd.static_count; ++i) {
        const char* s;
        std::memcpy(&s, rec + fd.offset + i * sizeof(char*), sizeof(char*));
        emit_string(s, struct_pos + fd.offset + i * sizeof(char*), out);
      }
      break;
    }
    case VarWalk::Action::kDynArray: {
      int64_t count = v.len_fd ? read_scalar_i64(rec, *v.len_fd) : 0;
      const uint8_t* elems;
      std::memcpy(&elems, rec + fd.offset, sizeof(void*));
      if (count <= 0 || elems == nullptr) {
        out.buf.patch_u64(struct_pos + fd.offset, 0);
        break;
      }
      uint32_t stride = fd.element_stride();
      // The header is 8-aligned, so aligning the body offset aligns the
      // elements within the message.
      if (const uint64_t rem = out.body_offset() & 7; rem != 0) out.buf.append_zeros(8 - rem);
      uint64_t rel = out.body_offset();
      size_t elems_pos = out.buf.size();
      out.buf.append(elems, static_cast<size_t>(count) * stride);
      out.buf.patch_u64(struct_pos + fd.offset, rel);
      if (v.elem) {
        for (int64_t i = 0; i < count; ++i) {
          fix_struct(*v.elem, elems_pos + static_cast<size_t>(i) * stride,
                     elems + static_cast<size_t>(i) * stride, out);
        }
      } else if (v.elem_is_string) {
        for (int64_t i = 0; i < count; ++i) {
          const char* s;
          std::memcpy(&s, elems + static_cast<size_t>(i) * sizeof(char*), sizeof(char*));
          emit_string(s, elems_pos + static_cast<size_t>(i) * sizeof(char*), out);
        }
      }
      break;
    }
  }
}

void fix_struct(const VarWalk& walk, size_t struct_pos, const uint8_t* rec, Out& out) {
  for (const auto& v : walk.vars) fix_one(v, struct_pos, rec, out);
}

}  // namespace

Encoder::Encoder(FormatPtr fmt) : fmt_(std::move(fmt)) {
  if (!fmt_) throw FormatError("Encoder: null format");
  prepared_ = std::make_unique<Prepared>();
  prepared_->walk = VarWalk::build(*fmt_);
}

Encoder::~Encoder() = default;
Encoder::Encoder(Encoder&&) noexcept = default;
Encoder& Encoder::operator=(Encoder&&) noexcept = default;

size_t Encoder::encode(const void* record, ByteBuffer& out) const {
  out.clear();
  return append(record, out);
}

size_t Encoder::append(const void* record, ByteBuffer& buf) const {
  if (record == nullptr) throw FormatError("Encoder: null record");
  Out out{buf, buf.size()};
  buf.append_u8('P');
  buf.append_u8('B');
  buf.append_u8(kWireVersion);
  buf.append_u8(static_cast<uint8_t>(host_byte_order()));
  buf.append_u64(fmt_->fingerprint());
  buf.append_u32(0);  // total size, patched below

  const auto* rec = static_cast<const uint8_t*>(record);
  size_t struct_pos = buf.size();  // == base + kWireHeaderSize
  buf.append(rec, fmt_->struct_size());
  if (fmt_->has_pointers()) fix_struct(*prepared_->walk, struct_pos, rec, out);

  const size_t size = buf.size() - out.base;
  buf.patch_u32(out.base + 12, static_cast<uint32_t>(size));
  // Hot-path telemetry: two relaxed adds, no clock reads.
  static obs::Counter& messages =
      obs::metrics().counter(obs::Metric::morph_pbio_encoded_messages_total);
  static obs::Counter& bytes = obs::metrics().counter(obs::Metric::morph_pbio_encoded_bytes_total);
  messages.inc();
  bytes.add(size);
  return size;
}

size_t encode_record(const FormatDescriptor& fmt, const void* record, ByteBuffer& out) {
  // Formats are always owned by shared_ptr (FormatBuilder::build), so
  // shared_from_this is safe here.
  auto self = const_cast<FormatDescriptor&>(fmt).shared_from_this();
  Encoder enc(std::static_pointer_cast<const FormatDescriptor>(self));
  return enc.encode(record, out);
}

}  // namespace morph::pbio
