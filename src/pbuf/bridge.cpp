#include "pbuf/bridge.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <string_view>
#include <utility>
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
// The compiled plan: one field table per message, shared by both directions.
// ---------------------------------------------------------------------------

namespace detail {

/// How one scalar — a field, or one element of a repeated field — sits on
/// the wire.
enum class ScalarEnc : uint8_t {
  kVarint,   // int/uint/enum/bool/char, two's complement widened to 64 bits
  kZigzag,   // sint32/sint64
  kFixed32,  // fixed32/sfixed32, and kPbFixed ints narrower than 8 bytes
  kFixed64,  // fixed64/sfixed64
  kFloat,    // float, converted through double exactly as pbio's accessors do
  kDouble,   // double, bit for bit
};

enum class Shape : uint8_t { kScalar, kString, kMessage, kScalars, kStrings, kMessages };

struct MessagePlan;

struct FieldPlan {
  Shape shape = Shape::kScalar;
  ScalarEnc enc = ScalarEnc::kVarint;  // kScalar, and the elements of kScalars
  WireType wt = WireType::kVarint;     // wire type of one scalar value
  uint8_t size = 0;                    // in-memory bytes of that scalar
  bool is_signed = false;              // sign-extend it when widening
  bool copy_run = false;               // kScalars: a packed run is the array's bytes
  uint8_t tag_len = 0;
  uint8_t tag[5] = {};                 // the encoded tag the encoder emits
  uint32_t number = 0;
  uint32_t offset = 0;
  uint32_t stride = 0;                 // repeated shapes: element stride
  const FieldDescriptor* fd = nullptr;         // owned by the plan's format
  const FieldDescriptor* length_fd = nullptr;  // repeated shapes: the count field
  std::shared_ptr<const MessagePlan> sub;      // kMessage / kMessages
};

struct MessagePlan {
  FormatPtr fmt;                     // keeps every FieldPlan::fd alive
  std::vector<FieldPlan> fields;     // declaration order, which is encode order
  std::vector<std::pair<uint32_t, uint32_t>> by_number;  // (number, index), sorted
  bool has_defaults = false;         // some field here or in a nested struct has one

  /// The field numbered `number`, or null. `next` is the index after the
  /// last field found: encoders emit fields in declaration order, so it is
  /// the usual answer and saves the search.
  const FieldPlan* find(uint32_t number, size_t& next) const {
    if (next < fields.size() && fields[next].number == number) return &fields[next++];
    auto it = std::lower_bound(by_number.begin(), by_number.end(), number,
                               [](const auto& e, uint32_t n) { return e.first < n; });
    if (it == by_number.end() || it->first != number) return nullptr;
    next = it->second + 1;
    return &fields[it->second];
  }

  static std::shared_ptr<const MessagePlan> build(const FormatPtr& fmt);
};

}  // namespace detail

using detail::FieldPlan;
using detail::MessagePlan;
using detail::ScalarEnc;
using detail::Shape;

namespace {

void compile_scalar(FieldPlan& f, FieldKind kind, uint32_t size, uint32_t pb_flags) {
  f.size = static_cast<uint8_t>(size);
  f.is_signed = kind == FieldKind::kInt || kind == FieldKind::kEnum;
  if (kind == FieldKind::kFloat) {
    f.enc = size == 8 ? ScalarEnc::kDouble : ScalarEnc::kFloat;
  } else if ((pb_flags & pbio::kPbFixed) != 0) {
    f.enc = size == 8 ? ScalarEnc::kFixed64 : ScalarEnc::kFixed32;
  } else if ((pb_flags & pbio::kPbZigzag) != 0) {
    f.enc = ScalarEnc::kZigzag;
  } else {
    f.enc = ScalarEnc::kVarint;
  }
  switch (f.enc) {
    case ScalarEnc::kVarint:
    case ScalarEnc::kZigzag:
      f.wt = WireType::kVarint;
      break;
    case ScalarEnc::kFixed32:
    case ScalarEnc::kFloat:
      f.wt = WireType::kFixed32;
      break;
    case ScalarEnc::kFixed64:
    case ScalarEnc::kDouble:
      f.wt = WireType::kFixed64;
      break;
  }
}

/// True when a packed run of `f`'s elements is byte-identical to the
/// array's memory: a little-endian host, elements packed without padding,
/// and a kind whose wire bytes are its memory bytes. float stays element by
/// element: its float -> double -> float conversion quiets a signalling
/// NaN, and the bulk copy would not.
bool run_is_copy(const FieldPlan& f) {
  if constexpr (std::endian::native != std::endian::little) return false;
  if (f.stride != f.size) return false;
  return f.enc == ScalarEnc::kDouble || f.enc == ScalarEnc::kFixed64 ||
         (f.enc == ScalarEnc::kFixed32 && f.size == 4);
}

}  // namespace

std::shared_ptr<const MessagePlan> MessagePlan::build(const FormatPtr& fmt) {
  auto p = std::make_shared<MessagePlan>();
  p->fmt = fmt;
  for (const auto& fd : fmt->fields()) {
    if (fd.pb_field == 0) continue;  // implied length fields
    FieldPlan f;
    f.number = fd.pb_number();
    f.offset = fd.offset;
    f.fd = &fd;
    WireType tag_wt = WireType::kLengthDelimited;
    switch (fd.kind) {
      case FieldKind::kString:
        f.shape = Shape::kString;
        break;
      case FieldKind::kStruct:
        f.shape = Shape::kMessage;
        f.sub = build(fd.element_format);
        p->has_defaults |= f.sub->has_defaults;
        break;
      case FieldKind::kDynArray:
        f.length_fd = fmt->find_field(fd.length_field);
        f.stride = fd.element_stride();
        if (fd.element_format) {
          f.shape = Shape::kMessages;
          f.sub = build(fd.element_format);
        } else if (fd.element_kind == FieldKind::kString) {
          f.shape = Shape::kStrings;
        } else {
          f.shape = Shape::kScalars;
          compile_scalar(f, fd.element_kind, fd.element_size, fd.pb_field);
          f.copy_run = run_is_copy(f);
        }
        break;
      default:
        f.shape = Shape::kScalar;
        compile_scalar(f, fd.kind, fd.size, fd.pb_field);
        tag_wt = f.wt;
        break;
    }
    uint64_t tag = (static_cast<uint64_t>(f.number) << 3) | static_cast<uint64_t>(tag_wt);
    f.tag_len = static_cast<uint8_t>(write_varint(f.tag, tag) - f.tag);
    p->has_defaults |= fd.default_int || fd.default_float || fd.default_string;
    p->fields.push_back(std::move(f));
  }
  for (uint32_t i = 0; i < p->fields.size(); ++i) p->by_number.emplace_back(p->fields[i].number, i);
  std::sort(p->by_number.begin(), p->by_number.end());
  return p;
}

// ---------------------------------------------------------------------------
// Scalars in memory
// ---------------------------------------------------------------------------

namespace {

/// A 4-byte float at offset 0. Floats pass through pbio's double-typed
/// accessors, so their bits (a quieted signalling NaN included) are what
/// every other PBIO path produces.
const FieldDescriptor& float_at_zero() {
  static const FieldDescriptor fd = [] {
    FieldDescriptor d;
    d.kind = FieldKind::kFloat;
    d.size = 4;
    return d;
  }();
  return fd;
}

int64_t load_int(const uint8_t* p, const FieldPlan& f) {
  switch (f.size) {
    case 1:
      return f.is_signed ? static_cast<int8_t>(p[0]) : static_cast<int64_t>(p[0]);
    case 2: {
      uint16_t v;
      std::memcpy(&v, p, 2);
      return f.is_signed ? static_cast<int16_t>(v) : static_cast<int64_t>(v);
    }
    case 4: {
      uint32_t v;
      std::memcpy(&v, p, 4);
      return f.is_signed ? static_cast<int32_t>(v) : static_cast<int64_t>(v);
    }
    default: {
      int64_t v;
      std::memcpy(&v, p, 8);
      return v;
    }
  }
}

void store_int(uint8_t* p, uint8_t size, uint64_t v) {
  switch (size) {
    case 1:
      p[0] = static_cast<uint8_t>(v);
      break;
    case 2: {
      auto n = static_cast<uint16_t>(v);
      std::memcpy(p, &n, 2);
      break;
    }
    case 4: {
      auto n = static_cast<uint32_t>(v);
      std::memcpy(p, &n, 4);
      break;
    }
    default:
      std::memcpy(p, &v, 8);
      break;
  }
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

/// Decode one scalar of wire type f.wt (already checked) into `dst`.
void read_scalar(PbReader& in, const FieldPlan& f, uint8_t* dst) {
  switch (f.enc) {
    case ScalarEnc::kVarint:
      store_int(dst, f.size, in.varint());
      break;
    case ScalarEnc::kZigzag:
      store_int(dst, f.size, static_cast<uint64_t>(zigzag_decode(in.varint())));
      break;
    case ScalarEnc::kFixed32:
      store_int(dst, f.size, in.fixed32());
      break;
    case ScalarEnc::kFixed64:
      store_int(dst, 8, in.fixed64());
      break;
    case ScalarEnc::kFloat:
      pbio::write_scalar_f64(dst, float_at_zero(), std::bit_cast<float>(in.fixed32()));
      break;
    case ScalarEnc::kDouble: {
      uint64_t bits = in.fixed64();
      std::memcpy(dst, &bits, 8);
      break;
    }
  }
}

void expect_wire_type(WireType got, WireType want, const char* what, const FieldPlan& f) {
  if (got != want) {
    throw DecodeError(std::string("wire type mismatch on ") + what + "'" + f.fd->name + "'");
  }
}

/// A length-delimited string payload; PBIO strings are NUL-terminated, so
/// an embedded NUL is malformed input.
std::string_view read_string(PbReader& in, const FieldPlan& f) {
  PbReader sub = in.length_delimited();
  std::string_view s(reinterpret_cast<const char*>(sub.cursor()), sub.remaining());
  if (s.find('\0') != std::string_view::npos) {
    throw DecodeError("embedded NUL in string field '" + f.fd->name + "'");
  }
  return s;
}

void store_string(uint8_t* slot, std::string_view s, RecordArena& arena) {
  char* copy = arena.copy_string(s);
  std::memcpy(slot, &copy, sizeof copy);
}

/// Make room for `n` more elements of a repeated field and bump its count;
/// returns the first new slot. Growth goes to at least the new count and
/// at least double the old capacity (so one-at-a-time appends stay
/// amortized), and is charged to the budget before the arena allocates.
uint8_t* append_elements(uint8_t* record, const FieldPlan& f, uint64_t n, RecordArena& arena,
                         DecodeBudget& budget) {
  auto count = static_cast<uint64_t>(pbio::read_scalar_i64(record, *f.length_fd));
  uint8_t* slot = record + f.offset;
  void* elems;
  std::memcpy(&elems, slot, sizeof elems);
  uint64_t cap = pbio::dyn_array_capacity(elems);
  if (count + n > cap) {
    uint64_t grown = std::max(count + n, pbio::dyn_array_grown_capacity(cap, cap));
    budget.charge((grown - cap) * f.stride, *f.fd);
    elems = pbio::reserve_dyn_array(slot, f.stride, grown, arena);
  }
  pbio::write_scalar_i64(record, *f.length_fd, static_cast<int64_t>(count + n));
  return static_cast<uint8_t*>(elems) + count * f.stride;
}

/// Repeated scalars: packed (one length-delimited run) or unpacked (one
/// occurrence per element); both are accepted, as required of proto3
/// decoders. A packed run is measured first and its array grown once.
void decode_scalars(PbReader& in, WireType wt, const FieldPlan& f, uint8_t* record,
                    RecordArena& arena, DecodeBudget& budget) {
  if (wt != WireType::kLengthDelimited) {
    expect_wire_type(wt, f.wt, "repeated field ", f);
    read_scalar(in, f, append_elements(record, f, 1, arena, budget));
    return;
  }
  PbReader run = in.length_delimited();
  const uint8_t* p = run.cursor();
  const size_t len = run.remaining();
  uint64_t n;
  if (f.wt == WireType::kVarint) {
    // One element per byte without the continuation bit; a run whose last
    // byte has it set ends inside an element.
    if (len > 0 && (p[len - 1] & 0x80) != 0) {
      throw DecodeError("packed field '" + f.fd->name + "' ends inside a varint");
    }
    n = static_cast<uint64_t>(std::count_if(p, p + len, [](uint8_t b) { return b < 0x80; }));
  } else {
    const size_t width = f.wt == WireType::kFixed32 ? 4 : 8;
    if (len % width != 0) {
      throw DecodeError("packed field '" + f.fd->name + "' is not a whole number of elements");
    }
    n = len / width;
  }
  if (n == 0) return;
  uint8_t* dst = append_elements(record, f, n, arena, budget);
  if (f.copy_run) {
    std::memcpy(dst, p, len);
    return;
  }
  for (uint64_t i = 0; i < n; ++i) read_scalar(run, f, dst + i * f.stride);
}

/// Fill declared defaults into a fresh (zeroed) record, recursively.
/// Implied length fields carry no pb number and no defaults, so they stay
/// zero — repeated-field decode counts up from there. `budget` is null for
/// the top-level record (its default footprint is fixed per frame) and set
/// for repeated elements, whose count the wire controls.
void apply_defaults(uint8_t* record, const MessagePlan& plan, RecordArena& arena,
                    DecodeBudget* budget) {
  if (!plan.has_defaults) return;
  for (const FieldPlan& f : plan.fields) {
    const FieldDescriptor& fd = *f.fd;
    if (f.shape == Shape::kMessage) {
      apply_defaults(record + f.offset, *f.sub, arena, budget);
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

void decode_message(PbReader& in, const MessagePlan& plan, uint8_t* record, RecordArena& arena,
                    DecodeBudget& budget, int depth) {
  if (depth > static_cast<int>(FormatDescriptor::kMaxNesting)) {
    throw DecodeError("pb message nesting exceeds depth cap");
  }
  size_t next = 0;
  while (!in.at_end()) {
    PbReader::Tag tag = in.tag();
    const FieldPlan* f = plan.find(tag.field, next);
    if (f == nullptr) {
      // Unknown field number: skipped deterministically (never delivered,
      // never retained), counted so operators can see schema drift.
      in.skip(tag.wt);
      bridge_metrics().unknown_fields.inc();
      continue;
    }
    switch (f->shape) {
      case Shape::kScalar:
        expect_wire_type(tag.wt, f->wt, "field ", *f);
        read_scalar(in, *f, record + f->offset);
        break;
      case Shape::kString:
        expect_wire_type(tag.wt, WireType::kLengthDelimited, "field ", *f);
        store_string(record + f->offset, read_string(in, *f), arena);
        break;
      case Shape::kMessage: {
        expect_wire_type(tag.wt, WireType::kLengthDelimited, "field ", *f);
        PbReader sub = in.length_delimited();
        // Proto merge semantics degrade to last-one-wins per leaf: a second
        // occurrence decodes into the same struct without re-zeroing.
        decode_message(sub, *f->sub, record + f->offset, arena, budget, depth + 1);
        break;
      }
      case Shape::kScalars:
        decode_scalars(in, tag.wt, *f, record, arena, budget);
        break;
      case Shape::kStrings: {
        // Repeated string: one occurrence per element, never packed.
        expect_wire_type(tag.wt, WireType::kLengthDelimited, "repeated string ", *f);
        std::string_view s = read_string(in, *f);
        store_string(append_elements(record, *f, 1, arena, budget), s, arena);
        break;
      }
      case Shape::kMessages: {
        // Repeated message: one length-delimited occurrence per element.
        expect_wire_type(tag.wt, WireType::kLengthDelimited, "repeated message ", *f);
        PbReader sub = in.length_delimited();
        uint8_t* elem = append_elements(record, *f, 1, arena, budget);
        std::memset(elem, 0, f->stride);
        apply_defaults(elem, *f->sub, arena, &budget);
        decode_message(sub, *f->sub, elem, arena, budget, depth + 1);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Encode: a size pass, then one write into space reserved up front
// ---------------------------------------------------------------------------

/// Proto3 omits zero scalars; for floats that is ±0.0.
bool is_zero(const uint8_t* p, const FieldPlan& f) {
  switch (f.enc) {
    case ScalarEnc::kFloat:
      return pbio::read_scalar_f64(p, float_at_zero()) == 0.0;
    case ScalarEnc::kDouble: {
      double d;
      std::memcpy(&d, p, 8);
      return d == 0.0;
    }
    default:
      return load_int(p, f) == 0;
  }
}

/// The scalar at `p` as it goes on the wire: the (zigzagged) varint value,
/// or the fixed-width bits.
uint64_t wire_value(const uint8_t* p, const FieldPlan& f) {
  switch (f.enc) {
    case ScalarEnc::kVarint:
      return static_cast<uint64_t>(load_int(p, f));
    case ScalarEnc::kZigzag:
      return zigzag_encode(load_int(p, f));
    case ScalarEnc::kFixed32:
      return static_cast<uint32_t>(load_int(p, f));
    case ScalarEnc::kFixed64:
      return static_cast<uint64_t>(load_int(p, f));
    case ScalarEnc::kFloat:
      return std::bit_cast<uint32_t>(
          static_cast<float>(pbio::read_scalar_f64(p, float_at_zero())));
    case ScalarEnc::kDouble: {
      uint64_t bits;
      std::memcpy(&bits, p, 8);
      return bits;
    }
  }
  return 0;
}

size_t wire_value_size(uint64_t v, const FieldPlan& f) {
  switch (f.wt) {
    case WireType::kVarint:
      return varint_size(v);
    case WireType::kFixed32:
      return 4;
    default:
      return 8;
  }
}

uint8_t* write_wire_value(uint8_t* out, uint64_t v, const FieldPlan& f) {
  switch (f.wt) {
    case WireType::kVarint:
      return write_varint(out, v);
    case WireType::kFixed32:
      return store_le(out, static_cast<uint32_t>(v));
    default:
      return store_le(out, v);
  }
}

uint8_t* write_tag(uint8_t* out, const FieldPlan& f) {
  std::memcpy(out, f.tag, f.tag_len);
  return out + f.tag_len;
}

std::string_view load_string(const uint8_t* slot) {
  const char* s;
  std::memcpy(&s, slot, sizeof s);
  return s == nullptr ? std::string_view{} : std::string_view(s);
}

struct Elements {
  const uint8_t* base = nullptr;
  uint64_t count = 0;
};

Elements elements_of(const uint8_t* record, const FieldPlan& f) {
  Elements e;
  e.count = static_cast<uint64_t>(pbio::read_scalar_i64(record, *f.length_fd));
  if (e.count == 0) return e;  // proto3: empty repeated field omitted
  std::memcpy(&e.base, record + f.offset, sizeof e.base);
  if (e.base == nullptr) {
    throw FormatError("dynamic array '" + f.fd->name + "' is null but count is " +
                      std::to_string(e.count));
  }
  return e;
}

/// Payload bytes of the packed run holding `e`.
size_t packed_size(const Elements& e, const FieldPlan& f) {
  if (f.wt != WireType::kVarint) return e.count * (f.wt == WireType::kFixed32 ? 4 : 8);
  size_t n = 0;
  for (uint64_t i = 0; i < e.count; ++i) n += varint_size(wire_value(e.base + i * f.stride, f));
  return n;
}

/// Bytes of one length-delimited occurrence with a `len`-byte payload.
size_t delimited_size(const FieldPlan& f, size_t len) {
  return f.tag_len + varint_size(len) + len;
}

size_t message_size(const uint8_t* record, const MessagePlan& plan, int depth) {
  if (depth > static_cast<int>(FormatDescriptor::kMaxNesting)) {
    throw FormatError("pb message nesting exceeds depth cap");
  }
  size_t n = 0;
  for (const FieldPlan& f : plan.fields) {
    const uint8_t* at = record + f.offset;
    switch (f.shape) {
      case Shape::kScalar:
        if (!is_zero(at, f)) n += f.tag_len + wire_value_size(wire_value(at, f), f);
        break;
      case Shape::kString: {
        size_t len = load_string(at).size();
        if (len != 0) n += delimited_size(f, len);  // proto3: empty string omitted
        break;
      }
      case Shape::kMessage: {
        size_t len = message_size(at, *f.sub, depth + 1);
        if (len != 0) n += delimited_size(f, len);  // proto3: all-default submessage omitted
        break;
      }
      case Shape::kScalars: {
        Elements e = elements_of(record, f);
        if (e.count != 0) n += delimited_size(f, packed_size(e, f));
        break;
      }
      case Shape::kStrings: {
        Elements e = elements_of(record, f);
        for (uint64_t i = 0; i < e.count; ++i) {
          n += delimited_size(f, load_string(e.base + i * f.stride).size());
        }
        break;
      }
      case Shape::kMessages: {
        // Every element is emitted, empty payloads included: the occurrence
        // count is the element count on the wire.
        Elements e = elements_of(record, f);
        for (uint64_t i = 0; i < e.count; ++i) {
          n += delimited_size(f, message_size(e.base + i * f.stride, *f.sub, depth + 1));
        }
        break;
      }
    }
  }
  return n;
}

uint8_t* write_delimited(uint8_t* out, const FieldPlan& f, std::string_view bytes) {
  out = write_varint(write_tag(out, f), bytes.size());
  std::memcpy(out, bytes.data(), bytes.size());
  return out + bytes.size();
}

/// Write what message_size() measured; nested lengths are measured again,
/// which costs one extra size pass per nesting level.
uint8_t* write_message(const uint8_t* record, const MessagePlan& plan, uint8_t* out, int depth) {
  for (const FieldPlan& f : plan.fields) {
    const uint8_t* at = record + f.offset;
    switch (f.shape) {
      case Shape::kScalar:
        if (!is_zero(at, f)) out = write_wire_value(write_tag(out, f), wire_value(at, f), f);
        break;
      case Shape::kString: {
        std::string_view s = load_string(at);
        if (!s.empty()) out = write_delimited(out, f, s);
        break;
      }
      case Shape::kMessage: {
        size_t len = message_size(at, *f.sub, depth + 1);
        if (len == 0) break;
        out = write_varint(write_tag(out, f), len);
        out = write_message(at, *f.sub, out, depth + 1);
        break;
      }
      case Shape::kScalars: {
        Elements e = elements_of(record, f);
        if (e.count == 0) break;
        out = write_varint(write_tag(out, f), packed_size(e, f));
        if (f.copy_run) {
          std::memcpy(out, e.base, e.count * f.size);
          out += e.count * f.size;
          break;
        }
        for (uint64_t i = 0; i < e.count; ++i) {
          out = write_wire_value(out, wire_value(e.base + i * f.stride, f), f);
        }
        break;
      }
      case Shape::kStrings: {
        Elements e = elements_of(record, f);
        for (uint64_t i = 0; i < e.count; ++i) {
          out = write_delimited(out, f, load_string(e.base + i * f.stride));
        }
        break;
      }
      case Shape::kMessages: {
        Elements e = elements_of(record, f);
        for (uint64_t i = 0; i < e.count; ++i) {
          const uint8_t* elem = e.base + i * f.stride;
          out = write_varint(write_tag(out, f), message_size(elem, *f.sub, depth + 1));
          out = write_message(elem, *f.sub, out, depth + 1);
        }
        break;
      }
    }
  }
  return out;
}

std::shared_ptr<const MessagePlan> compile(const FormatPtr& fmt) {
  std::string why;
  if (!pbuf_encodable(*fmt, &why)) {
    throw FormatError("format '" + fmt->name() + "' has no protobuf mapping: " + why);
  }
  return MessagePlan::build(fmt);
}

}  // namespace

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

DecodePlan::DecodePlan(FormatPtr fmt) : fmt_(std::move(fmt)), plan_(compile(fmt_)) {}

void* DecodePlan::decode(const void* data, size_t size, RecordArena& arena) const {
  BridgeMetrics& m = bridge_metrics();
  m.frames_in.inc();
  try {
    auto* record = static_cast<uint8_t*>(pbio::alloc_record(*fmt_, arena));
    apply_defaults(record, *plan_, arena, nullptr);
    PbReader in(data, size);
    DecodeBudget budget(size);
    decode_message(in, *plan_, record, arena, budget, 0);
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

EncodePlan::EncodePlan(FormatPtr fmt) : fmt_(std::move(fmt)), plan_(compile(fmt_)) {}

size_t EncodePlan::encode(const void* record, ByteBuffer& out) const {
  const auto* rec = static_cast<const uint8_t*>(record);
  const size_t n = message_size(rec, *plan_, 0);
  const size_t at = out.append_zeros(n);
  [[maybe_unused]] const uint8_t* end = write_message(rec, *plan_, out.data() + at, 0);
  assert(end == out.data() + at + n);
  BridgeMetrics& m = bridge_metrics();
  m.encoded.inc();
  m.encode_bytes.record(n);
  return n;
}

}  // namespace morph::pbuf
