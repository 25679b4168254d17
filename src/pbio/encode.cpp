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

/// Append the string `s` (may be null) and patch the pointer slot at
/// `slot_pos` with its body-relative offset (0 for null).
void emit_string(const char* s, size_t slot_pos, ByteBuffer& out) {
  if (s == nullptr) {
    out.patch_u64(slot_pos, 0);
    return;
  }
  uint64_t rel = out.size() - kWireHeaderSize;
  out.append(s, std::strlen(s) + 1);
  out.patch_u64(slot_pos, rel);
}

void fix_struct(const VarWalk& walk, size_t struct_pos, const uint8_t* rec, ByteBuffer& out);

void fix_one(const VarWalk::Var& v, size_t struct_pos, const uint8_t* rec, ByteBuffer& out) {
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
        out.patch_u64(struct_pos + fd.offset, 0);
        break;
      }
      uint32_t stride = fd.element_stride();
      out.align_to(8);
      uint64_t rel = out.size() - kWireHeaderSize;
      size_t elems_pos = out.size();
      out.append(elems, static_cast<size_t>(count) * stride);
      out.patch_u64(struct_pos + fd.offset, rel);
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

void fix_struct(const VarWalk& walk, size_t struct_pos, const uint8_t* rec, ByteBuffer& out) {
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
  if (record == nullptr) throw FormatError("Encoder: null record");
  out.clear();
  out.append_u8('P');
  out.append_u8('B');
  out.append_u8(kWireVersion);
  out.append_u8(static_cast<uint8_t>(host_byte_order()));
  out.append_u64(fmt_->fingerprint());
  out.append_u32(0);  // total size, patched below

  const auto* rec = static_cast<const uint8_t*>(record);
  size_t struct_pos = out.size();  // == kWireHeaderSize
  out.append(rec, fmt_->struct_size());
  if (fmt_->has_pointers()) fix_struct(*prepared_->walk, struct_pos, rec, out);

  out.patch_u32(12, static_cast<uint32_t>(out.size()));
  // Hot-path telemetry: two relaxed adds, no clock reads.
  static obs::Counter& messages =
      obs::metrics().counter(obs::Metric::morph_pbio_encoded_messages_total);
  static obs::Counter& bytes = obs::metrics().counter(obs::Metric::morph_pbio_encoded_bytes_total);
  messages.inc();
  bytes.add(out.size());
  return out.size();
}

size_t encode_record(const FormatDescriptor& fmt, const void* record, ByteBuffer& out) {
  // Formats are always owned by shared_ptr (FormatBuilder::build), so
  // shared_from_this is safe here.
  auto self = const_cast<FormatDescriptor&>(fmt).shared_from_this();
  Encoder enc(std::static_pointer_cast<const FormatDescriptor>(self));
  return enc.encode(record, out);
}

}  // namespace morph::pbio
