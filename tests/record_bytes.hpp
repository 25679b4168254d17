// Byte-exact record comparison for differential tests: two records are
// equal when every byte they hold matches, padding and fields no transform
// wrote included, with pointers compared by what they point at.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "pbio/format.hpp"
#include "pbio/record.hpp"

namespace morph::testing {

inline void string_bytes(const uint8_t* slot, std::string& out) {
  const char* s;
  std::memcpy(&s, slot, sizeof s);
  out += s == nullptr ? std::string("<null>") : "\"" + std::string(s) + "\"";
}

/// Every byte a record holds, pointers replaced by what they point at: the
/// struct bytes with pointer slots zeroed, then each string and each dynamic
/// array's elements up to its count (padding and unwritten fields included).
inline void record_bytes(const pbio::FormatDescriptor& fmt, const uint8_t* rec, std::string& out) {
  std::string raw(reinterpret_cast<const char*>(rec), fmt.struct_size());
  std::string tail;
  for (const auto& fd : fmt.fields()) {
    if (fd.kind == pbio::FieldKind::kString) {
      std::memset(raw.data() + fd.offset, 0, sizeof(void*));
      string_bytes(rec + fd.offset, tail);
    } else if (fd.kind == pbio::FieldKind::kDynArray) {
      std::memset(raw.data() + fd.offset, 0, sizeof(void*));
      int64_t n = pbio::read_scalar_i64(rec, *fmt.find_field(fd.length_field));
      const auto* elems = static_cast<const uint8_t*>(pbio::read_pointer(rec, fd));
      tail += "[" + std::to_string(n) + (elems ? "" : " null") + "]";
      for (int64_t i = 0; elems && i < n; ++i) {
        const uint8_t* e = elems + static_cast<size_t>(i) * fd.element_stride();
        if (fd.element_format) {
          record_bytes(*fd.element_format, e, tail);
        } else if (fd.element_kind == pbio::FieldKind::kString) {
          string_bytes(e, tail);
        } else {
          tail.append(reinterpret_cast<const char*>(e), fd.element_size);
        }
      }
    }
  }
  out += raw + tail;
}

inline std::string record_bytes(const pbio::FormatDescriptor& fmt, const void* rec) {
  std::string out;
  record_bytes(fmt, static_cast<const uint8_t*>(rec), out);
  return out;
}

}  // namespace morph::testing
