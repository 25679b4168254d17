#include "pbuf/bridge.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "pbio/record.hpp"
#include "pbuf/schema.hpp"

namespace morph::pbuf {

using pbio::FieldDescriptor;
using pbio::FieldKind;
using pbio::FormatDescriptor;
using pbio::FormatPtr;

BridgeMetrics& bridge_metrics() {
  static BridgeMetrics m{
      obs::metrics().counter(obs::Metric::morph_pbuf_frames_in_total),
      obs::metrics().counter(obs::Metric::morph_pbuf_decoded_total),
      obs::metrics().counter(obs::Metric::morph_pbuf_rejected_total),
      obs::metrics().counter(obs::Metric::morph_pbuf_unknown_fields_total),
      obs::metrics().counter(obs::Metric::morph_pbuf_encoded_total),
      obs::metrics().histogram(obs::Metric::morph_pbuf_decode_bytes),
      obs::metrics().histogram(obs::Metric::morph_pbuf_encode_bytes),
  };
  return m;
}

// ---------------------------------------------------------------------------
// Dispatch table: per message, field number -> precompiled entry.
// ---------------------------------------------------------------------------

namespace detail {

struct MessageTable {
  FormatPtr fmt;

  struct Entry {
    uint32_t number = 0;
    const FieldDescriptor* fd = nullptr;  // owned by fmt (shared_ptr above)
    FieldDescriptor elem;                 // synthesized, scalar/string arrays
    const FieldDescriptor* length_fd = nullptr;  // kDynArray only
    std::shared_ptr<const MessageTable> sub;     // kStruct / struct arrays
  };
  std::vector<Entry> entries;  // sorted by number

  const Entry* find(uint32_t number) const {
    auto it = std::lower_bound(entries.begin(), entries.end(), number,
                               [](const Entry& e, uint32_t n) { return e.number < n; });
    return it != entries.end() && it->number == number ? &*it : nullptr;
  }

  static std::shared_ptr<const MessageTable> build(const FormatPtr& fmt);
};

}  // namespace detail

using detail::MessageTable;

namespace {

/// Synthesized descriptor for one element of a scalar/string array: same
/// kind/size as the elements, offset 0 (callers pass the slot base).
FieldDescriptor element_descriptor(const FieldDescriptor& array_fd) {
  FieldDescriptor efd;
  efd.name = array_fd.name + "[]";
  efd.kind = array_fd.element_kind;
  efd.size = array_fd.element_kind == FieldKind::kString ? 8 : array_fd.element_size;
  efd.offset = 0;
  return efd;
}

}  // namespace

std::shared_ptr<const MessageTable> MessageTable::build(const FormatPtr& fmt) {
  auto t = std::make_shared<MessageTable>();
  t->fmt = fmt;
  for (const auto& fd : fmt->fields()) {
    if (fd.pb_field == 0) continue;  // implied length fields
    Entry e;
    e.number = fd.pb_number();
    e.fd = &fd;
    if (fd.kind == FieldKind::kDynArray) {
      e.length_fd = fmt->find_field(fd.length_field);
      if (fd.element_format) {
        e.sub = build(fd.element_format);
      } else {
        e.elem = element_descriptor(fd);
      }
    } else if (fd.kind == FieldKind::kStruct) {
      e.sub = build(fd.element_format);
    }
    t->entries.push_back(std::move(e));
  }
  std::sort(t->entries.begin(), t->entries.end(),
            [](const Entry& a, const Entry& b) { return a.number < b.number; });
  return t;
}

// ---------------------------------------------------------------------------
// Shared scalar helpers
// ---------------------------------------------------------------------------

namespace {

/// Wire type a scalar (kind, size, pb flags) uses on the wire.
WireType scalar_wire_type(FieldKind kind, uint32_t size, uint32_t pb_flags) {
  if (kind == FieldKind::kFloat || (pb_flags & pbio::kPbFixed) != 0) {
    return size == 8 ? WireType::kFixed64 : WireType::kFixed32;
  }
  return WireType::kVarint;
}

/// Decode one scalar wire value into `target` at efd's offset. `pb_flags`
/// carries the zigzag/fixed bits (for array elements they live on the
/// array's descriptor, so they are passed separately).
void decode_scalar_value(PbReader& in, WireType wt, const FieldDescriptor& efd,
                         uint32_t pb_flags, void* target) {
  WireType expected = scalar_wire_type(efd.kind, efd.size, pb_flags);
  if (wt != expected) {
    throw DecodeError("wire type mismatch on field '" + efd.name + "'");
  }
  if (efd.kind == FieldKind::kFloat) {
    if (efd.size == 4) {
      pbio::write_scalar_f64(target, efd, std::bit_cast<float>(in.fixed32()));
    } else {
      pbio::write_scalar_f64(target, efd, std::bit_cast<double>(in.fixed64()));
    }
    return;
  }
  int64_t v;
  switch (expected) {
    case WireType::kVarint: {
      uint64_t raw = in.varint();
      v = (pb_flags & pbio::kPbZigzag) != 0 ? zigzag_decode(raw) : static_cast<int64_t>(raw);
      break;
    }
    case WireType::kFixed32: {
      uint32_t raw = in.fixed32();
      v = efd.kind == FieldKind::kInt ? static_cast<int64_t>(static_cast<int32_t>(raw))
                                      : static_cast<int64_t>(raw);
      break;
    }
    default: {  // kFixed64
      v = static_cast<int64_t>(in.fixed64());
      break;
    }
  }
  pbio::write_scalar_i64(target, efd, v);
}

/// Encode one scalar value from `source` at efd's offset (payload only).
void encode_scalar_payload(const void* source, const FieldDescriptor& efd, uint32_t pb_flags,
                           ByteBuffer& out) {
  if (efd.kind == FieldKind::kFloat) {
    double f = pbio::read_scalar_f64(source, efd);
    if (efd.size == 4) {
      put_fixed32(out, std::bit_cast<uint32_t>(static_cast<float>(f)));
    } else {
      put_fixed64(out, std::bit_cast<uint64_t>(f));
    }
    return;
  }
  int64_t v = pbio::read_scalar_i64(source, efd);
  if ((pb_flags & pbio::kPbFixed) != 0) {
    if (efd.size == 8) {
      put_fixed64(out, static_cast<uint64_t>(v));
    } else {
      put_fixed32(out, static_cast<uint32_t>(v));
    }
    return;
  }
  put_varint(out, (pb_flags & pbio::kPbZigzag) != 0 ? zigzag_encode(v)
                                                    : static_cast<uint64_t>(v));
}

std::string_view ld_view(const PbReader& sub) {
  return {reinterpret_cast<const char*>(sub.cursor()), sub.remaining()};
}

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

/// Per-frame ceiling on bytes of record storage the decoder may allocate
/// for repeated elements, as a multiple of the payload size (plus a fixed
/// slack so tiny frames still fit a few elements). Each repeated occurrence
/// costs at least one wire byte but allocates element_stride bytes — and
/// element_stride comes from a *peer-learned* descriptor whose struct_size
/// may be huge — so without this cap a few hostile bytes could force
/// multi-GB arena growth. The budget is charged with the exact allocation
/// before it happens; exceeding it is an ordinary per-frame DecodeError,
/// never a bad_alloc escaping through the link callback.
constexpr uint64_t kDecodeBudgetPerWireByte = 64;
constexpr uint64_t kDecodeBudgetSlackBytes = 64 * 1024;

struct DecodeBudget {
  uint64_t remaining;

  explicit DecodeBudget(size_t payload_size)
      : remaining(kDecodeBudgetSlackBytes + kDecodeBudgetPerWireByte * payload_size) {}

  void charge(uint64_t bytes, const FieldDescriptor& fd) {
    if (bytes > remaining) {
      throw DecodeError("repeated field '" + fd.name +
                        "' exceeds the per-frame decode byte budget");
    }
    remaining -= bytes;
  }
};

void decode_message_impl(PbReader& in, const MessageTable& table, void* record,
                         RecordArena& arena, DecodeBudget& budget, int depth);

/// Fill declared defaults into a fresh (zeroed) record, recursively.
/// Implied length fields carry no pb number and no defaults, so they stay
/// zero — repeated-field decode counts up from there. `budget` is null for
/// the top-level record (its default footprint is fixed per frame) and set
/// for repeated elements, whose count the wire controls.
void apply_defaults(void* record, const MessageTable& table, RecordArena& arena,
                    DecodeBudget* budget) {
  for (const auto& e : table.entries) {
    const FieldDescriptor& fd = *e.fd;
    if (fd.kind == FieldKind::kStruct) {
      apply_defaults(static_cast<uint8_t*>(record) + fd.offset, *e.sub, arena, budget);
      continue;
    }
    if (fd.default_int) pbio::write_scalar_i64(record, fd, *fd.default_int);
    if (fd.default_float) pbio::write_scalar_f64(record, fd, *fd.default_float);
    if (fd.default_string) {
      if (budget != nullptr) budget->charge(fd.default_string->size() + 1, fd);
      pbio::write_string_field(record, fd, *fd.default_string, arena);
    }
  }
}

/// Append one element slot to a dynamic array; returns the slot pointer
/// and bumps the length field. Growth is charged against the budget before
/// the allocation happens.
void* append_element(void* record, const MessageTable::Entry& e, RecordArena& arena,
                     DecodeBudget& budget) {
  const FieldDescriptor& fd = *e.fd;
  auto count = static_cast<uint64_t>(pbio::read_scalar_i64(record, *e.length_fd));
  uint64_t cap = pbio::dyn_array_capacity(pbio::read_pointer(record, fd));
  uint64_t grown = pbio::dyn_array_grown_capacity(cap, count);
  if (grown != cap) budget.charge((grown - cap) * fd.element_stride(), fd);
  void* base = pbio::grow_dyn_array(record, fd, arena, count);
  pbio::write_scalar_i64(record, *e.length_fd, static_cast<int64_t>(count + 1));
  return static_cast<uint8_t*>(base) + count * fd.element_stride();
}

void decode_repeated(PbReader& in, WireType wt, const MessageTable::Entry& e, void* record,
                     RecordArena& arena, DecodeBudget& budget, int depth) {
  const FieldDescriptor& fd = *e.fd;
  if (fd.element_format) {
    // Repeated message: one length-delimited occurrence per element.
    if (wt != WireType::kLengthDelimited) {
      throw DecodeError("wire type mismatch on repeated message '" + fd.name + "'");
    }
    PbReader sub = in.length_delimited();
    void* elem = append_element(record, e, arena, budget);
    std::memset(elem, 0, fd.element_stride());
    apply_defaults(elem, *e.sub, arena, &budget);
    decode_message_impl(sub, *e.sub, elem, arena, budget, depth + 1);
    return;
  }
  if (fd.element_kind == FieldKind::kString) {
    // Repeated string: one occurrence per element, never packed.
    if (wt != WireType::kLengthDelimited) {
      throw DecodeError("wire type mismatch on repeated string '" + fd.name + "'");
    }
    PbReader sub = in.length_delimited();
    std::string_view s = ld_view(sub);
    if (s.find('\0') != std::string_view::npos) {
      throw DecodeError("embedded NUL in string field '" + fd.name + "'");
    }
    void* elem = append_element(record, e, arena, budget);
    pbio::write_string_field(elem, e.elem, s, arena);
    return;
  }
  // Repeated scalar: packed (one length-delimited run) or unpacked (one
  // occurrence per element); both are accepted, as required of proto3
  // decoders.
  WireType elem_wt = scalar_wire_type(e.elem.kind, e.elem.size, fd.pb_field);
  if (wt == WireType::kLengthDelimited) {
    PbReader sub = in.length_delimited();
    while (!sub.at_end()) {
      void* elem = append_element(record, e, arena, budget);
      decode_scalar_value(sub, elem_wt, e.elem, fd.pb_field, elem);
    }
    return;
  }
  if (wt != elem_wt) {
    throw DecodeError("wire type mismatch on repeated field '" + fd.name + "'");
  }
  void* elem = append_element(record, e, arena, budget);
  decode_scalar_value(in, wt, e.elem, fd.pb_field, elem);
}

void decode_message_impl(PbReader& in, const MessageTable& table, void* record,
                         RecordArena& arena, DecodeBudget& budget, int depth) {
  if (depth > static_cast<int>(FormatDescriptor::kMaxNesting)) {
    throw DecodeError("pb message nesting exceeds depth cap");
  }
  BridgeMetrics& m = bridge_metrics();
  while (!in.at_end()) {
    PbReader::Tag tag = in.tag();
    const MessageTable::Entry* e = table.find(tag.field);
    if (e == nullptr) {
      // Unknown field number: skipped deterministically (never delivered,
      // never retained), counted so operators can see schema drift.
      in.skip(tag.wt);
      m.unknown_fields.inc();
      continue;
    }
    const FieldDescriptor& fd = *e->fd;
    switch (fd.kind) {
      case FieldKind::kString: {
        if (tag.wt != WireType::kLengthDelimited) {
          throw DecodeError("wire type mismatch on field '" + fd.name + "'");
        }
        PbReader sub = in.length_delimited();
        std::string_view s = ld_view(sub);
        if (s.find('\0') != std::string_view::npos) {
          throw DecodeError("embedded NUL in string field '" + fd.name + "'");
        }
        pbio::write_string_field(record, fd, s, arena);
        break;
      }
      case FieldKind::kStruct: {
        if (tag.wt != WireType::kLengthDelimited) {
          throw DecodeError("wire type mismatch on field '" + fd.name + "'");
        }
        PbReader sub = in.length_delimited();
        // Proto merge semantics degrade to last-one-wins per leaf: a second
        // occurrence decodes into the same struct without re-zeroing.
        decode_message_impl(sub, *e->sub, static_cast<uint8_t*>(record) + fd.offset, arena,
                            budget, depth + 1);
        break;
      }
      case FieldKind::kDynArray: {
        decode_repeated(in, tag.wt, *e, record, arena, budget, depth);
        break;
      }
      default: {
        decode_scalar_value(in, tag.wt, fd, fd.pb_field, record);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------------

void encode_message_impl(const void* record, const FormatDescriptor& fmt, ByteBuffer& out,
                         int depth);

void encode_repeated(const void* record, const FormatDescriptor& fmt,
                     const FieldDescriptor& fd, ByteBuffer& out, int depth) {
  const FieldDescriptor* length_fd = fmt.find_field(fd.length_field);
  auto count = static_cast<uint64_t>(pbio::read_scalar_i64(record, *length_fd));
  if (count == 0) return;  // proto3: empty repeated field omitted
  const auto* base = static_cast<const uint8_t*>(pbio::read_pointer(record, fd));
  if (base == nullptr) {
    throw FormatError("dynamic array '" + fd.name + "' is null but count is " +
                      std::to_string(count));
  }
  uint32_t number = fd.pb_number();
  uint32_t stride = fd.element_stride();
  if (fd.element_format) {
    // Every element is emitted, empty payloads included: the occurrence
    // count is the element count on the wire.
    for (uint64_t i = 0; i < count; ++i) {
      ByteBuffer scratch;
      encode_message_impl(base + i * stride, *fd.element_format, scratch, depth + 1);
      put_tag(out, number, WireType::kLengthDelimited);
      put_varint(out, scratch.size());
      out.append(scratch.data(), scratch.size());
    }
    return;
  }
  FieldDescriptor efd = element_descriptor(fd);
  if (fd.element_kind == FieldKind::kString) {
    for (uint64_t i = 0; i < count; ++i) {
      std::string_view s = pbio::read_string_field(base + i * stride, efd);
      put_tag(out, number, WireType::kLengthDelimited);
      put_varint(out, s.size());
      out.append(s.data(), s.size());
    }
    return;
  }
  // Packed scalars: one length-delimited run holding every element.
  ByteBuffer scratch;
  for (uint64_t i = 0; i < count; ++i) {
    encode_scalar_payload(base + i * stride, efd, fd.pb_field, scratch);
  }
  put_tag(out, number, WireType::kLengthDelimited);
  put_varint(out, scratch.size());
  out.append(scratch.data(), scratch.size());
}

void encode_message_impl(const void* record, const FormatDescriptor& fmt, ByteBuffer& out,
                         int depth) {
  if (depth > static_cast<int>(FormatDescriptor::kMaxNesting)) {
    throw FormatError("pb message nesting exceeds depth cap");
  }
  for (const auto& fd : fmt.fields()) {
    if (fd.pb_field == 0) continue;  // implied length fields
    uint32_t number = fd.pb_number();
    switch (fd.kind) {
      case FieldKind::kString: {
        std::string_view s = pbio::read_string_field(record, fd);
        if (s.empty()) break;  // proto3: empty string omitted
        put_tag(out, number, WireType::kLengthDelimited);
        put_varint(out, s.size());
        out.append(s.data(), s.size());
        break;
      }
      case FieldKind::kStruct: {
        ByteBuffer scratch;
        encode_message_impl(static_cast<const uint8_t*>(record) + fd.offset,
                            *fd.element_format, scratch, depth + 1);
        if (scratch.empty()) break;  // proto3: all-default submessage omitted
        put_tag(out, number, WireType::kLengthDelimited);
        put_varint(out, scratch.size());
        out.append(scratch.data(), scratch.size());
        break;
      }
      case FieldKind::kDynArray: {
        encode_repeated(record, fmt, fd, out, depth);
        break;
      }
      default: {
        if (fd.kind == FieldKind::kFloat) {
          if (pbio::read_scalar_f64(record, fd) == 0.0) break;  // proto3 zero omitted
        } else {
          if (pbio::read_scalar_i64(record, fd) == 0) break;
        }
        put_tag(out, number, scalar_wire_type(fd.kind, fd.size, fd.pb_field));
        encode_scalar_payload(record, fd, fd.pb_field, out);
        break;
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

DecodePlan::DecodePlan(FormatPtr fmt) : fmt_(std::move(fmt)) {
  std::string why;
  if (!pbuf_encodable(*fmt_, &why)) {
    throw FormatError("format '" + fmt_->name() + "' has no protobuf mapping: " + why);
  }
  table_ = MessageTable::build(fmt_);
}

void* DecodePlan::decode(const void* data, size_t size, RecordArena& arena) const {
  BridgeMetrics& m = bridge_metrics();
  m.frames_in.inc();
  try {
    void* record = pbio::alloc_record(*fmt_, arena);
    apply_defaults(record, *table_, arena, nullptr);
    PbReader in(data, size);
    DecodeBudget budget(size);
    decode_message_impl(in, *table_, record, arena, budget, 0);
    m.decoded.inc();
    m.decode_bytes.record(size);
    return record;
  } catch (...) {
    // Not just DecodeError: a bad_alloc from arena growth or a FormatError
    // from a record helper must also keep frames_in == decoded + rejected.
    m.rejected.inc();
    throw;
  }
}

EncodePlan::EncodePlan(FormatPtr fmt) : fmt_(std::move(fmt)) {
  std::string why;
  if (!pbuf_encodable(*fmt_, &why)) {
    throw FormatError("format '" + fmt_->name() + "' has no protobuf mapping: " + why);
  }
}

size_t EncodePlan::encode(const void* record, ByteBuffer& out) const {
  size_t before = out.size();
  encode_message_impl(record, *fmt_, out, 0);
  size_t n = out.size() - before;
  BridgeMetrics& m = bridge_metrics();
  m.encoded.inc();
  m.encode_bytes.record(n);
  return n;
}

}  // namespace morph::pbuf
