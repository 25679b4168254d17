// Value equality of native records for the protobuf bridge tests: proto3
// normalizes what carries no value (an empty string decodes as a null
// pointer, -0.0 scalars as 0.0), so records are compared field by field by
// value, not byte for byte (record_bytes.hpp).
#pragma once

#include <gtest/gtest.h>

#include <string>

#include "pbio/format.hpp"
#include "pbio/record.hpp"

namespace morph::testing {

/// Field-by-field value equality of two records of the same format.
inline void expect_records_equal(const pbio::FormatDescriptor& fmt, const void* a,
                                 const void* b, const std::string& path = "") {
  for (const auto& fd : fmt.fields()) {
    std::string at = path + "." + fd.name;
    switch (fd.kind) {
      case pbio::FieldKind::kFloat:
        EXPECT_EQ(pbio::read_scalar_f64(a, fd), pbio::read_scalar_f64(b, fd)) << at;
        break;
      case pbio::FieldKind::kString:
        EXPECT_EQ(pbio::read_string_field(a, fd), pbio::read_string_field(b, fd)) << at;
        break;
      case pbio::FieldKind::kStruct:
        expect_records_equal(*fd.element_format, static_cast<const uint8_t*>(a) + fd.offset,
                             static_cast<const uint8_t*>(b) + fd.offset, at);
        break;
      case pbio::FieldKind::kDynArray: {
        const auto* lf = fmt.find_field(fd.length_field);
        ASSERT_NE(lf, nullptr) << at;
        int64_t ca = pbio::read_scalar_i64(a, *lf);
        int64_t cb = pbio::read_scalar_i64(b, *lf);
        ASSERT_EQ(ca, cb) << at << " count";
        const auto* ea = static_cast<const uint8_t*>(pbio::read_pointer(a, fd));
        const auto* eb = static_cast<const uint8_t*>(pbio::read_pointer(b, fd));
        uint32_t stride = fd.element_stride();
        for (int64_t i = 0; i < ca; ++i) {
          std::string el = at + "[" + std::to_string(i) + "]";
          if (fd.element_format) {
            expect_records_equal(*fd.element_format, ea + i * stride, eb + i * stride, el);
          } else if (fd.element_kind == pbio::FieldKind::kString) {
            pbio::FieldDescriptor efd;
            efd.kind = pbio::FieldKind::kString;
            efd.size = 8;
            efd.offset = 0;
            EXPECT_EQ(pbio::read_string_field(ea + i * stride, efd),
                      pbio::read_string_field(eb + i * stride, efd))
                << el;
          } else {
            pbio::FieldDescriptor efd;
            efd.kind = fd.element_kind;
            efd.size = fd.element_size;
            efd.offset = 0;
            if (fd.element_kind == pbio::FieldKind::kFloat) {
              EXPECT_EQ(pbio::read_scalar_f64(ea + i * stride, efd),
                        pbio::read_scalar_f64(eb + i * stride, efd))
                  << el;
            } else {
              EXPECT_EQ(pbio::read_scalar_i64(ea + i * stride, efd),
                        pbio::read_scalar_i64(eb + i * stride, efd))
                  << el;
            }
          }
        }
        break;
      }
      default:
        EXPECT_EQ(pbio::read_scalar_i64(a, fd), pbio::read_scalar_i64(b, fd)) << at;
        break;
    }
  }
}

}  // namespace morph::testing
