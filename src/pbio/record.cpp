#include "pbio/record.hpp"

#include <cstring>

#include "common/error.hpp"

namespace morph::pbio {

namespace {

const uint8_t* at(const void* record, uint32_t offset) {
  return static_cast<const uint8_t*>(record) + offset;
}
uint8_t* at(void* record, uint32_t offset) { return static_cast<uint8_t*>(record) + offset; }

[[noreturn]] void bad_kind(const FieldDescriptor& fd, const char* op) {
  throw FormatError(std::string(op) + ": field '" + fd.name + "' has kind " +
                    std::string(field_kind_name(fd.kind)));
}

}  // namespace

int64_t read_scalar_i64(const void* record, const FieldDescriptor& fd) {
  const uint8_t* p = at(record, fd.offset);
  switch (fd.kind) {
    case FieldKind::kInt: {
      switch (fd.size) {
        case 1: {
          int8_t v;
          std::memcpy(&v, p, 1);
          return v;
        }
        case 2: {
          int16_t v;
          std::memcpy(&v, p, 2);
          return v;
        }
        case 4: {
          int32_t v;
          std::memcpy(&v, p, 4);
          return v;
        }
        case 8: {
          int64_t v;
          std::memcpy(&v, p, 8);
          return v;
        }
      }
      break;
    }
    case FieldKind::kUInt: {
      switch (fd.size) {
        case 1: {
          uint8_t v;
          std::memcpy(&v, p, 1);
          return v;
        }
        case 2: {
          uint16_t v;
          std::memcpy(&v, p, 2);
          return v;
        }
        case 4: {
          uint32_t v;
          std::memcpy(&v, p, 4);
          return v;
        }
        case 8: {
          uint64_t v;
          std::memcpy(&v, p, 8);
          return static_cast<int64_t>(v);
        }
      }
      break;
    }
    case FieldKind::kEnum: {
      int32_t v;
      std::memcpy(&v, p, 4);
      return v;
    }
    case FieldKind::kChar: {
      char v;
      std::memcpy(&v, p, 1);
      return static_cast<unsigned char>(v);
    }
    case FieldKind::kFloat: {
      if (fd.size == 4) {
        float v;
        std::memcpy(&v, p, 4);
        return static_cast<int64_t>(v);
      }
      double v;
      std::memcpy(&v, p, 8);
      return static_cast<int64_t>(v);
    }
    default:
      break;
  }
  bad_kind(fd, "read_scalar_i64");
}

double read_scalar_f64(const void* record, const FieldDescriptor& fd) {
  if (fd.kind == FieldKind::kFloat) {
    const uint8_t* p = at(record, fd.offset);
    if (fd.size == 4) {
      float v;
      std::memcpy(&v, p, 4);
      return v;
    }
    double v;
    std::memcpy(&v, p, 8);
    return v;
  }
  if (fd.kind == FieldKind::kUInt) {
    return static_cast<double>(static_cast<uint64_t>(read_scalar_i64(record, fd)));
  }
  return static_cast<double>(read_scalar_i64(record, fd));
}

void write_scalar_i64(void* record, const FieldDescriptor& fd, int64_t value) {
  uint8_t* p = at(record, fd.offset);
  switch (fd.kind) {
    case FieldKind::kInt:
    case FieldKind::kUInt: {
      switch (fd.size) {
        case 1: {
          auto v = static_cast<int8_t>(value);
          std::memcpy(p, &v, 1);
          return;
        }
        case 2: {
          auto v = static_cast<int16_t>(value);
          std::memcpy(p, &v, 2);
          return;
        }
        case 4: {
          auto v = static_cast<int32_t>(value);
          std::memcpy(p, &v, 4);
          return;
        }
        case 8:
          std::memcpy(p, &value, 8);
          return;
      }
      break;
    }
    case FieldKind::kEnum: {
      auto v = static_cast<int32_t>(value);
      std::memcpy(p, &v, 4);
      return;
    }
    case FieldKind::kChar: {
      auto v = static_cast<char>(value);
      std::memcpy(p, &v, 1);
      return;
    }
    case FieldKind::kFloat: {
      write_scalar_f64(record, fd, static_cast<double>(value));
      return;
    }
    default:
      break;
  }
  bad_kind(fd, "write_scalar_i64");
}

void write_scalar_f64(void* record, const FieldDescriptor& fd, double value) {
  if (fd.kind == FieldKind::kFloat) {
    uint8_t* p = at(record, fd.offset);
    if (fd.size == 4) {
      auto v = static_cast<float>(value);
      std::memcpy(p, &v, 4);
    } else {
      std::memcpy(p, &value, 8);
    }
    return;
  }
  write_scalar_i64(record, fd, static_cast<int64_t>(value));
}

std::string_view read_string_field(const void* record, const FieldDescriptor& fd) {
  if (fd.kind != FieldKind::kString) bad_kind(fd, "read_string_field");
  const char* s;
  std::memcpy(&s, at(record, fd.offset), sizeof(char*));
  return s == nullptr ? std::string_view{} : std::string_view(s);
}

void write_string_field(void* record, const FieldDescriptor& fd, std::string_view value,
                        RecordArena& arena) {
  if (fd.kind != FieldKind::kString) bad_kind(fd, "write_string_field");
  char* copy = arena.copy_string(value);
  std::memcpy(at(record, fd.offset), &copy, sizeof(char*));
}

void* read_pointer(const void* record, const FieldDescriptor& fd) {
  void* p;
  std::memcpy(&p, at(record, fd.offset), sizeof(void*));
  return p;
}

void write_pointer(void* record, const FieldDescriptor& fd, void* p) {
  std::memcpy(at(record, fd.offset), &p, sizeof(void*));
}

void* alloc_record(const FormatDescriptor& fmt, RecordArena& arena) {
  return arena.allocate(fmt.struct_size(), fmt.alignment());
}

void* alloc_dyn_array(RecordArena& arena, uint32_t elem_stride, uint64_t count) {
  if (count == 0) count = 1;  // always usable for element 0
  uint64_t bytes = 8 + elem_stride * count;
  auto* base = static_cast<uint8_t*>(arena.allocate(bytes, 8));
  uint64_t cap = count;
  std::memcpy(base, &cap, 8);
  return base + 8;
}

uint64_t dyn_array_capacity(const void* elements) {
  if (elements == nullptr) return 0;
  uint64_t cap;
  std::memcpy(&cap, static_cast<const uint8_t*>(elements) - 8, 8);
  return cap;
}

uint64_t dyn_array_grown_capacity(uint64_t cap, uint64_t index) {
  if (index < cap) return cap;
  uint64_t new_cap = cap == 0 ? 8 : cap * 2;
  while (new_cap <= index) new_cap *= 2;
  return new_cap;
}

void* reserve_dyn_array(void* slot, uint32_t stride, uint64_t capacity, RecordArena& arena) {
  void* elems;
  std::memcpy(&elems, slot, sizeof(void*));
  uint64_t cap = dyn_array_capacity(elems);
  if (capacity <= cap) return elems;
  void* grown = alloc_dyn_array(arena, stride, capacity);
  if (elems != nullptr && cap > 0) std::memcpy(grown, elems, cap * stride);
  std::memcpy(slot, &grown, sizeof(void*));
  return grown;
}

void* grow_dyn_array(void* record, const FieldDescriptor& fd, RecordArena& arena,
                     uint64_t index) {
  void* elems = read_pointer(record, fd);
  return reserve_dyn_array(at(record, fd.offset), fd.element_stride(),
                           dyn_array_grown_capacity(dyn_array_capacity(elems), index), arena);
}

// ---------------------------------------------------------------------------
// RecordRef
// ---------------------------------------------------------------------------

const FieldDescriptor& RecordRef::fd(std::string_view field) const {
  const FieldDescriptor* f = fmt_->find_field(field);
  if (f == nullptr) {
    throw FormatError("no field '" + std::string(field) + "' in format '" + fmt_->name() + "'");
  }
  return *f;
}

int64_t RecordRef::get_int(std::string_view field) const {
  return read_scalar_i64(data_, fd(field));
}

double RecordRef::get_float(std::string_view field) const {
  return read_scalar_f64(data_, fd(field));
}

std::string_view RecordRef::get_string(std::string_view field) const {
  return read_string_field(data_, fd(field));
}

void RecordRef::set_int(std::string_view field, int64_t v) { write_scalar_i64(data_, fd(field), v); }

void RecordRef::set_float(std::string_view field, double v) {
  write_scalar_f64(data_, fd(field), v);
}

void RecordRef::set_string(std::string_view field, std::string_view v, RecordArena& arena) {
  write_string_field(data_, fd(field), v, arena);
}

RecordRef RecordRef::get_struct(std::string_view field) const {
  const FieldDescriptor& f = fd(field);
  if (f.kind != FieldKind::kStruct) bad_kind(f, "get_struct");
  return RecordRef(at(data_, f.offset), f.element_format);
}

RecordRef RecordRef::element(std::string_view field, uint64_t index) const {
  const FieldDescriptor& f = fd(field);
  if (!is_array(f.kind)) bad_kind(f, "element");
  if (!f.element_format) {
    throw FormatError("element(): field '" + f.name + "' has basic elements; use typed access");
  }
  uint8_t* base;
  if (f.kind == FieldKind::kStaticArray) {
    base = at(data_, f.offset);
  } else {
    base = static_cast<uint8_t*>(read_pointer(data_, f));
    if (base == nullptr) throw FormatError("element(): array '" + f.name + "' is null");
  }
  return RecordRef(base + index * f.element_stride(), f.element_format);
}

}  // namespace morph::pbio
