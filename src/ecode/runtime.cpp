#include "ecode/runtime.hpp"

#include <cstring>

#include "common/error.hpp"
#include "ecode/bytecode.hpp"
#include "pbio/record.hpp"

using morph::ecode::EcodeRuntime;

extern "C" {

void* morph_ecode_ensure(EcodeRuntime* rt, void* slot, int64_t index, int64_t stride) {
  // A negative index is clamped to 0: the helper is called from JIT-compiled
  // code whose frames cannot unwind a C++ exception, so all inputs must have
  // defined behaviour.
  if (index < 0) index = 0;
  void* elems;
  std::memcpy(&elems, slot, sizeof(void*));
  const auto i = static_cast<uint64_t>(index);
  elems = morph::pbio::reserve_dyn_array(
      slot, static_cast<uint32_t>(stride),
      morph::pbio::dyn_array_grown_capacity(morph::pbio::dyn_array_capacity(elems), i),
      *rt->arena);
  return static_cast<uint8_t*>(elems) + i * static_cast<uint64_t>(stride);
}

int64_t morph_ecode_copy_loop(EcodeRuntime* rt, void* dst_slot, const void* src_slot,
                              int64_t count, const morph::ecode::CopyLoop* loop) {
  if (count <= 0) return 0;
  const auto n = static_cast<uint64_t>(count);
  auto* dst = static_cast<uint8_t*>(
      morph::pbio::reserve_dyn_array(dst_slot, loop->dst_stride, n, *rt->arena));
  const uint8_t* src;
  std::memcpy(&src, src_slot, sizeof(src));
  if (src == nullptr) return count;
  const uint32_t ds = loop->dst_stride;
  const uint32_t ss = loop->src_stride;
  if (loop->runs.size() == 1 && loop->runs[0].len == ds && ds == ss) {
    std::memcpy(dst, src, n * ds);  // whole elements, same layout: one block
  } else {
    for (const auto& f : loop->runs) {
      uint8_t* d = dst + f.dst_off;
      const uint8_t* s = src + f.src_off;
      if (f.len == 16) {
        // large_morph's ts+v: a constant-size copy is two moves, a variable
        // one a library call per element (fig10 `4-hop str+arr` fused:
        // 1.2-2.1 us per morph without this case, 0.2-0.3 us with it).
        for (uint64_t i = 0; i < n; ++i, d += ds, s += ss) std::memcpy(d, s, 16);
      } else {
        for (uint64_t i = 0; i < n; ++i, d += ds, s += ss) std::memcpy(d, s, f.len);
      }
    }
  }
  for (const auto& f : loop->strings) {
    for (uint64_t i = 0; i < n; ++i) {
      const char* s;
      std::memcpy(&s, src + i * ss + f.src_off, sizeof(s));
      morph_ecode_str_assign(rt, dst + i * ds + f.dst_off, s);
    }
  }
  return count;
}

void morph_ecode_str_assign(EcodeRuntime* rt, void* slot, const char* src) {
  char* copy = src == nullptr ? nullptr : rt->arena->copy_string(src);
  std::memcpy(slot, &copy, sizeof(char*));
}

int64_t morph_ecode_strlen(const char* s) {
  return s == nullptr ? 0 : static_cast<int64_t>(std::strlen(s));
}

int64_t morph_ecode_streq(const char* a, const char* b) {
  if (a == nullptr) a = "";
  if (b == nullptr) b = "";
  return std::strcmp(a, b) == 0 ? 1 : 0;
}

namespace {

using morph::pbio::FieldDescriptor;
using morph::pbio::FieldKind;
using morph::pbio::FormatDescriptor;

void deep_copy_struct(morph::RecordArena& arena, uint8_t* dst, const uint8_t* src,
                      const FormatDescriptor& fmt);

void deep_fix_element(morph::RecordArena& arena, uint8_t* de, const uint8_t* se,
                      const FieldDescriptor& fd) {
  if (fd.element_format) {
    deep_copy_struct(arena, de, se, *fd.element_format);
    return;
  }
  if (fd.element_kind == FieldKind::kString) {
    const char* s;
    std::memcpy(&s, se, sizeof(char*));
    char* copy = s == nullptr ? nullptr : arena.copy_string(s);
    std::memcpy(de, &copy, sizeof(char*));
  }
  // Basic scalars were covered by the struct memcpy.
}

void deep_copy_struct(morph::RecordArena& arena, uint8_t* dst, const uint8_t* src,
                      const FormatDescriptor& fmt) {
  std::memcpy(dst, src, fmt.struct_size());
  if (!fmt.has_pointers()) return;
  for (const auto& fd : fmt.fields()) {
    switch (fd.kind) {
      case FieldKind::kString: {
        const char* s;
        std::memcpy(&s, src + fd.offset, sizeof(char*));
        char* copy = s == nullptr ? nullptr : arena.copy_string(s);
        std::memcpy(dst + fd.offset, &copy, sizeof(char*));
        break;
      }
      case FieldKind::kStruct:
        if (fd.element_format->has_pointers()) {
          deep_copy_struct(arena, dst + fd.offset, src + fd.offset, *fd.element_format);
        }
        break;
      case FieldKind::kStaticArray: {
        bool needs = (fd.element_format && fd.element_format->has_pointers()) ||
                     (!fd.element_format && fd.element_kind == FieldKind::kString);
        if (!needs) break;
        uint32_t stride = fd.element_stride();
        for (uint32_t i = 0; i < fd.static_count; ++i) {
          deep_fix_element(arena, dst + fd.offset + i * stride, src + fd.offset + i * stride,
                           fd);
        }
        break;
      }
      case FieldKind::kDynArray: {
        const FieldDescriptor* len = fmt.find_field(fd.length_field);
        int64_t count = len ? morph::pbio::read_scalar_i64(src, *len) : 0;
        const auto* elems =
            static_cast<const uint8_t*>(morph::pbio::read_pointer(src, fd));
        if (elems == nullptr || count <= 0) {
          morph::pbio::write_pointer(dst, fd, nullptr);
          break;
        }
        uint32_t stride = fd.element_stride();
        auto* copy = static_cast<uint8_t*>(
            morph::pbio::alloc_dyn_array(arena, stride, static_cast<uint64_t>(count)));
        std::memcpy(copy, elems, static_cast<uint64_t>(count) * stride);
        bool needs = (fd.element_format && fd.element_format->has_pointers()) ||
                     (!fd.element_format && fd.element_kind == FieldKind::kString);
        if (needs) {
          for (int64_t i = 0; i < count; ++i) {
            deep_fix_element(arena, copy + static_cast<size_t>(i) * stride,
                             elems + static_cast<size_t>(i) * stride, fd);
          }
        }
        morph::pbio::write_pointer(dst, fd, copy);
        break;
      }
      default:
        break;  // scalars already copied by the memcpy
    }
  }
}

}  // namespace

void morph_ecode_struct_copy(EcodeRuntime* rt, void* dst, const void* src,
                             const FormatDescriptor* fmt) {
  deep_copy_struct(*rt->arena, static_cast<uint8_t*>(dst), static_cast<const uint8_t*>(src),
                   *fmt);
}

}  // extern "C"
