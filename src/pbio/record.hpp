// Generic accessors over native-layout records.
//
// A "record" is raw memory laid out according to a FormatDescriptor:
// scalars at fixed offsets, strings as char*, dynamic arrays as element
// pointers whose count lives in a sibling integer field. These helpers give
// descriptor-driven access for the slow paths (tests, generators, default
// filling, DynRecord conversion); hot paths use compiled plans / ecode.
//
// Dynamic-array allocation convention: every dynamic array allocated by
// this library carries a hidden 8-byte capacity header immediately before
// element 0. Transforms may therefore grow destination arrays in place
// (amortized doubling) through grow_dyn_array(). Arrays in user-built
// records that never grow do not need the header; only writers use it.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/arena.hpp"
#include "pbio/format.hpp"

namespace morph::pbio {

/// Read any fixed-size scalar field (int/uint/enum/char/float) widened to
/// int64_t (floats are truncated toward zero).
int64_t read_scalar_i64(const void* record, const FieldDescriptor& fd);

/// Read a float/double field (integers are converted).
double read_scalar_f64(const void* record, const FieldDescriptor& fd);

/// Store an int64 into a fixed-size scalar field, truncating as needed.
void write_scalar_i64(void* record, const FieldDescriptor& fd, int64_t value);

/// Store a double into a fixed-size scalar field (int targets truncate).
void write_scalar_f64(void* record, const FieldDescriptor& fd, double value);

/// Read a string field; nullptr pointers read as "".
std::string_view read_string_field(const void* record, const FieldDescriptor& fd);

/// Copy a string into `arena` and point the field at it.
void write_string_field(void* record, const FieldDescriptor& fd, std::string_view value,
                        RecordArena& arena);

/// Pointer stored in a kString/kDynArray field (may be nullptr).
void* read_pointer(const void* record, const FieldDescriptor& fd);
void write_pointer(void* record, const FieldDescriptor& fd, void* p);

/// Allocate a record of `fmt` from the arena (zeroed).
void* alloc_record(const FormatDescriptor& fmt, RecordArena& arena);

/// Allocate a dynamic array of `count` elements of `elem_stride` bytes with
/// the capacity header; returns the element pointer.
void* alloc_dyn_array(RecordArena& arena, uint32_t elem_stride, uint64_t count);

/// Capacity of an array allocated by alloc_dyn_array (0 for nullptr).
uint64_t dyn_array_capacity(const void* elements);

/// Capacity grow_dyn_array() would reserve to make `index` addressable
/// given a current capacity of `cap` (amortized doubling, floor of 8).
/// Exposed so callers decoding untrusted input can charge the exact
/// allocation against a budget before the growth happens.
uint64_t dyn_array_grown_capacity(uint64_t cap, uint64_t index);

/// Make the dynamic array whose element pointer lives at `slot` (elements
/// of `stride` bytes) hold at least `capacity` elements: a smaller array is
/// replaced by an arena array of exactly `capacity` elements holding the
/// old elements, the rest zeroed. Returns the element pointer. Only valid
/// on arrays this library allocated.
void* reserve_dyn_array(void* slot, uint32_t stride, uint64_t capacity, RecordArena& arena);

/// Ensure the dynamic array field in `record` can hold index+1 elements,
/// growing (and copying) through the arena if needed, to
/// dyn_array_grown_capacity(). Returns the element pointer (base of the
/// array). Only valid on arrays this library allocated.
void* grow_dyn_array(void* record, const FieldDescriptor& fd, RecordArena& arena,
                     uint64_t index);

/// Convenience typed view used by tests and examples.
class RecordRef {
 public:
  RecordRef(void* data, FormatPtr fmt) : data_(data), fmt_(std::move(fmt)) {}

  void* data() const { return data_; }
  const FormatPtr& format() const { return fmt_; }

  int64_t get_int(std::string_view field) const;
  double get_float(std::string_view field) const;
  std::string_view get_string(std::string_view field) const;

  void set_int(std::string_view field, int64_t v);
  void set_float(std::string_view field, double v);
  void set_string(std::string_view field, std::string_view v, RecordArena& arena);

  /// Sub-record view of a kStruct field.
  RecordRef get_struct(std::string_view field) const;

  /// Element view of an array field (no bounds check against the count
  /// field; callers index within the count they wrote).
  RecordRef element(std::string_view field, uint64_t index) const;

 private:
  const FieldDescriptor& fd(std::string_view field) const;
  void* data_;
  FormatPtr fmt_;
};

}  // namespace morph::pbio
