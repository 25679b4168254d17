#include "pbio/decode.hpp"

#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"
#include "pbio/record.hpp"
#include "pbio/varwalk.hpp"

namespace morph::pbio {

namespace {

constexpr uint8_t kVersionDecoded = 2;  // in-place-decoded marker

/// Wire bytes consumed, counted by both decode paths.
obs::Counter& decoded_bytes() {
  static obs::Counter& c = obs::metrics().counter(obs::Metric::morph_pbio_decoded_bytes_total);
  return c;
}

bool order_mismatch(ByteOrder wire) { return wire != host_byte_order(); }

uint64_t load_u64_swapped(const uint8_t* p, bool swap) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return swap ? byteswap64(v) : v;
}

uint32_t load_u32_swapped(const uint8_t* p, bool swap) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return swap ? byteswap32(v) : v;
}

/// Load a fixed scalar from wire bytes as a widened int64.
int64_t load_wire_i64(const uint8_t* p, FieldKind kind, uint32_t size, bool swap) {
  switch (size) {
    case 1: {
      uint8_t v;
      std::memcpy(&v, p, 1);
      if (kind == FieldKind::kInt) return static_cast<int8_t>(v);
      return v;
    }
    case 2: {
      uint16_t v;
      std::memcpy(&v, p, 2);
      if (swap) v = byteswap16(v);
      if (kind == FieldKind::kInt) return static_cast<int16_t>(v);
      return v;
    }
    case 4: {
      uint32_t v;
      std::memcpy(&v, p, 4);
      if (swap) v = byteswap32(v);
      if (kind == FieldKind::kFloat) {
        float f;
        std::memcpy(&f, &v, 4);
        return static_cast<int64_t>(f);
      }
      if (kind == FieldKind::kInt || kind == FieldKind::kEnum) return static_cast<int32_t>(v);
      return v;
    }
    case 8: {
      uint64_t v;
      std::memcpy(&v, p, 8);
      if (swap) v = byteswap64(v);
      if (kind == FieldKind::kFloat) {
        double f;
        std::memcpy(&f, &v, 8);
        return static_cast<int64_t>(f);
      }
      return static_cast<int64_t>(v);
    }
    default:
      throw DecodeError("bad scalar size");
  }
}

double load_wire_f64(const uint8_t* p, FieldKind kind, uint32_t size, bool swap) {
  if (kind == FieldKind::kFloat) {
    if (size == 4) {
      uint32_t v;
      std::memcpy(&v, p, 4);
      if (swap) v = byteswap32(v);
      float f;
      std::memcpy(&f, &v, 4);
      return f;
    }
    uint64_t v;
    std::memcpy(&v, p, 8);
    if (swap) v = byteswap64(v);
    double f;
    std::memcpy(&f, &v, 8);
    return f;
  }
  if (kind == FieldKind::kUInt) {
    return static_cast<double>(static_cast<uint64_t>(load_wire_i64(p, kind, size, swap)));
  }
  return static_cast<double>(load_wire_i64(p, kind, size, swap));
}

/// Convert one scalar from wire bytes into a host field.
void convert_scalar(const uint8_t* src, const FieldDescriptor& sfd, bool swap, void* dst_struct,
                    const FieldDescriptor& dfd) {
  if (dfd.kind == FieldKind::kFloat || sfd.kind == FieldKind::kFloat) {
    write_scalar_f64(dst_struct, dfd, load_wire_f64(src, sfd.kind, sfd.size, swap));
  } else {
    write_scalar_i64(dst_struct, dfd, load_wire_i64(src, sfd.kind, sfd.size, swap));
  }
}

/// Copy a wire string (body-relative offset slot) into the arena and return
/// the host pointer; nullptr when the slot is 0.
const char* convert_string(const uint8_t* slot, const uint8_t* body, size_t body_size,
                           bool swap, RecordArena& arena) {
  uint64_t rel = load_u64_swapped(slot, swap);
  if (rel == 0) return nullptr;
  if (rel >= body_size) throw DecodeError("string offset out of range");
  const void* nul = std::memchr(body + rel, 0, body_size - rel);
  if (nul == nullptr) throw DecodeError("unterminated string in message");
  size_t len = static_cast<const uint8_t*>(nul) - (body + rel);
  return arena.copy_string(std::string_view(reinterpret_cast<const char*>(body + rel), len));
}

bool scalar_compatible(const FieldDescriptor& a, const FieldDescriptor& b) {
  return is_fixed_scalar(a.kind) && is_fixed_scalar(b.kind);
}

/// Would converting a wire scalar of (wk, size) into a host scalar of
/// (hk, size) reproduce the wire bytes unchanged (after any byteswap)?
/// Same-size integer-family pairs round-trip exactly: the widening load
/// (sign- or zero-extend) and the truncating store cancel out. Floats only
/// match floats of the same width; cross float/int conversions change the
/// representation.
bool kinds_byte_identical(FieldKind wk, uint32_t wsize, FieldKind hk, uint32_t hsize) {
  if (wsize != hsize) return false;
  if (wk == hk) return true;
  auto int_family = [](FieldKind k) {
    return k == FieldKind::kInt || k == FieldKind::kUInt || k == FieldKind::kEnum ||
           k == FieldKind::kChar;
  };
  return int_family(wk) && int_family(hk);
}

bool element_compatible(const FieldDescriptor& w, const FieldDescriptor& h) {
  bool w_struct = w.element_format != nullptr;
  bool h_struct = h.element_format != nullptr;
  if (w_struct != h_struct) return false;
  if (w_struct) return true;  // element plans handle the details
  if (w.element_kind == FieldKind::kString || h.element_kind == FieldKind::kString) {
    return w.element_kind == h.element_kind;
  }
  return is_fixed_scalar(w.element_kind) && is_fixed_scalar(h.element_kind);
}

/// Are a wire field and a host field of the same "type" for matching
/// purposes? All fixed scalars interconvert; strings only match strings;
/// structs match structs; arrays match arrays with compatible elements.
bool fields_compatible(const FieldDescriptor& w, const FieldDescriptor& h) {
  if (is_fixed_scalar(h.kind)) return scalar_compatible(w, h);
  if (h.kind == FieldKind::kString) return w.kind == FieldKind::kString;
  if (h.kind == FieldKind::kStruct) return w.kind == FieldKind::kStruct;
  if (is_array(h.kind)) return is_array(w.kind) && element_compatible(w, h);
  return false;
}

}  // namespace

WireInfo peek_header(const void* buf, size_t size) {
  if (size < kWireHeaderSize) throw DecodeError("message shorter than header");
  const auto* p = static_cast<const uint8_t*>(buf);
  if (p[0] != 'P' || p[1] != 'B') throw DecodeError("bad magic");
  WireInfo info;
  info.version = p[2];
  if (info.version != kWireVersion && info.version != kVersionDecoded) {
    throw DecodeError("unsupported wire version " + std::to_string(info.version));
  }
  uint8_t order = p[3];
  if (order > 1) throw DecodeError("bad byte-order tag");
  info.order = static_cast<ByteOrder>(order);
  bool swap = order_mismatch(info.order);
  info.fingerprint = load_u64_swapped(p + 4, swap);
  info.total_size = load_u32_swapped(p + 12, swap);
  if (info.total_size < kWireHeaderSize || info.total_size > size) {
    throw DecodeError("bad total size " + std::to_string(info.total_size));
  }
  return info;
}

// ---------------------------------------------------------------------------
// ConversionPlan
// ---------------------------------------------------------------------------

struct ConversionPlan::Impl {
  enum class Op : uint8_t { kScalar, kEnumRemap, kString, kStruct, kArray, kDefault, kCopyRun };

  struct Step {
    Op op;
    const FieldDescriptor* src = nullptr;      // wire field (null for kDefault)
    const FieldDescriptor* dst = nullptr;      // host field
    std::unique_ptr<Impl> sub;                 // struct / struct-array element plan
    const FieldDescriptor* src_len = nullptr;  // wire dyn-array count field
    const FieldDescriptor* dst_len = nullptr;  // host dyn-array count field
    std::vector<std::pair<int32_t, int32_t>> enum_remap;  // sorted by wire value
    // kCopyRun: total bytes covered, and the (width, count) batches a
    // foreign-order message needs to byteswap the run in place.
    uint32_t run_bytes = 0;
    std::vector<std::pair<uint32_t, uint32_t>> swap_runs;
    // kArray of basic scalars whose wire/host element layout is
    // byte-identical: the whole element block can be bulk-copied.
    bool elem_identity = false;
  };

  const FormatDescriptor* wire = nullptr;
  const FormatDescriptor* host = nullptr;
  std::vector<Step> steps;
  bool lossy = false;
  size_t defaulted = 0;
  size_t coalesced_runs = 0;    // totals include nested sub-plans
  size_t coalesced_fields = 0;

  static std::unique_ptr<Impl> compile(const FormatDescriptor& w, const FormatDescriptor& h,
                                       int depth) {
    if (depth > static_cast<int>(FormatDescriptor::kMaxNesting)) {
      throw FormatError("conversion nesting too deep");
    }
    auto impl = std::make_unique<Impl>();
    impl->wire = &w;
    impl->host = &h;
    for (const auto& hf : h.fields()) {
      const FieldDescriptor* wf = w.find_field(hf.name);
      if (wf == nullptr || !fields_compatible(*wf, hf)) {
        Step s;
        s.op = Op::kDefault;
        s.dst = &hf;
        if (hf.kind == FieldKind::kStruct) {
          // Nested defaults are handled by fill_defaults at execution.
        }
        impl->steps.push_back(std::move(s));
        impl->lossy = true;
        impl->defaulted += 1;
        continue;
      }
      Step s;
      s.src = wf;
      s.dst = &hf;
      if (is_fixed_scalar(hf.kind)) {
        s.op = Op::kScalar;
        if (hf.kind == FieldKind::kEnum && wf->kind == FieldKind::kEnum &&
            !hf.enumerators.empty() && !wf->enumerators.empty()) {
          // Remap enum values by enumerator name where names overlap.
          for (const auto& we : wf->enumerators) {
            for (const auto& he : hf.enumerators) {
              if (we.name == he.name && we.value != he.value) {
                s.enum_remap.emplace_back(we.value, he.value);
              }
            }
          }
          if (!s.enum_remap.empty()) {
            std::sort(s.enum_remap.begin(), s.enum_remap.end());
            s.op = Op::kEnumRemap;
          }
        }
      } else if (hf.kind == FieldKind::kString) {
        s.op = Op::kString;
      } else if (hf.kind == FieldKind::kStruct) {
        s.op = Op::kStruct;
        s.sub = compile(*wf->element_format, *hf.element_format, depth + 1);
        if (s.sub->lossy) {
          impl->lossy = true;
          impl->defaulted += s.sub->defaulted;
        }
      } else {  // arrays
        s.op = Op::kArray;
        if (wf->kind == FieldKind::kDynArray) s.src_len = w.find_field(wf->length_field);
        if (hf.kind == FieldKind::kDynArray) s.dst_len = h.find_field(hf.length_field);
        if (wf->element_format != nullptr) {
          s.sub = compile(*wf->element_format, *hf.element_format, depth + 1);
          if (s.sub->lossy) {
            impl->lossy = true;
            impl->defaulted += s.sub->defaulted;
          }
        } else if (wf->element_kind != FieldKind::kString &&
                   hf.element_kind != FieldKind::kString) {
          s.elem_identity = kinds_byte_identical(wf->element_kind, wf->element_size,
                                                 hf.element_kind, hf.element_size) &&
                            wf->element_stride() == hf.element_stride();
        }
      }
      impl->steps.push_back(std::move(s));
    }
    impl->coalesce();
    for (const auto& s : impl->steps) {
      if (s.sub) {
        impl->coalesced_runs += s.sub->coalesced_runs;
        impl->coalesced_fields += s.sub->coalesced_fields;
      }
    }
    return impl;
  }

  /// Post-pass: merge maximal runs of >= 2 scalar steps whose wire and host
  /// fields are byte-identical and strictly adjacent in both layouts into a
  /// single kCopyRun. In host order the run executes as one memcpy; in
  /// foreign order it byteswaps batches of same-width fields.
  void coalesce() {
    std::vector<Step> out;
    out.reserve(steps.size());
    size_t i = 0;
    while (i < steps.size()) {
      size_t j = i;
      uint32_t src_end = 0;
      uint32_t dst_end = 0;
      while (j < steps.size()) {
        const Step& s = steps[j];
        if (s.op != Op::kScalar ||
            !kinds_byte_identical(s.src->kind, s.src->size, s.dst->kind, s.dst->size)) {
          break;
        }
        if (j > i && (s.src->offset != src_end || s.dst->offset != dst_end)) break;
        src_end = s.src->offset + s.src->size;
        dst_end = s.dst->offset + s.dst->size;
        ++j;
      }
      if (j - i >= 2) {
        Step run;
        run.op = Op::kCopyRun;
        run.src = steps[i].src;
        run.dst = steps[i].dst;
        run.run_bytes = src_end - steps[i].src->offset;
        for (size_t k = i; k < j; ++k) {
          uint32_t width = steps[k].src->size;
          if (!run.swap_runs.empty() && run.swap_runs.back().first == width) {
            run.swap_runs.back().second += 1;
          } else {
            run.swap_runs.emplace_back(width, 1);
          }
        }
        coalesced_runs += 1;
        coalesced_fields += j - i;
        out.push_back(std::move(run));
        i = j;
      } else {
        out.push_back(std::move(steps[i]));
        ++i;
      }
    }
    steps = std::move(out);
  }
};

namespace {

struct ExecCtx {
  const uint8_t* body;
  size_t body_size;
  bool swap;
  RecordArena* arena;
};

/// Fill a field's declared default (not zeros) into a freshly zeroed host
/// struct. `struct_base` is the base of the struct containing `fd`.
void fill_declared_defaults(const FieldDescriptor& fd, void* struct_base, ExecCtx& ctx) {
  if (is_fixed_scalar(fd.kind)) {
    if (fd.default_int) {
      write_scalar_i64(struct_base, fd, *fd.default_int);
    } else if (fd.default_float) {
      write_scalar_f64(struct_base, fd, *fd.default_float);
    }
  } else if (fd.kind == FieldKind::kString) {
    if (fd.default_string) write_string_field(struct_base, fd, *fd.default_string, *ctx.arena);
  } else if (fd.kind == FieldKind::kStruct) {
    for (const auto& sub : fd.element_format->fields()) {
      fill_declared_defaults(sub, static_cast<uint8_t*>(struct_base) + fd.offset, ctx);
    }
  }
  // Arrays default to empty (null pointer + zero count); nothing to do.
}

void exec_struct(const ConversionPlan::Impl& plan, const uint8_t* src, uint8_t* dst,
                 ExecCtx& ctx);

void exec_array(const ConversionPlan::Impl::Step& s, const uint8_t* src, uint8_t* dst,
                ExecCtx& ctx) {
  const FieldDescriptor& wf = *s.src;
  const FieldDescriptor& hf = *s.dst;
  uint32_t src_stride = wf.element_stride();
  uint32_t dst_stride = hf.element_stride();

  // Locate source elements and count.
  int64_t count;
  const uint8_t* src_elems;
  if (wf.kind == FieldKind::kDynArray) {
    count = s.src_len ? load_wire_i64(src + s.src_len->offset, s.src_len->kind, s.src_len->size,
                                      ctx.swap)
                      : 0;
    uint64_t rel = load_u64_swapped(src + wf.offset, ctx.swap);
    if (rel == 0 || count <= 0) {
      count = 0;
      src_elems = nullptr;
    } else {
      if (rel > ctx.body_size ||
          static_cast<uint64_t>(count) > (ctx.body_size - rel) / std::max(src_stride, 1u)) {
        throw DecodeError("array '" + wf.name + "' out of range");
      }
      src_elems = ctx.body + rel;
    }
  } else {
    count = wf.static_count;
    src_elems = src + wf.offset;
  }

  // Locate destination elements.
  uint8_t* dst_elems;
  int64_t dst_count = count;
  if (hf.kind == FieldKind::kDynArray) {
    if (count == 0) {
      write_pointer(dst, hf, nullptr);
      if (s.dst_len) write_scalar_i64(dst, *s.dst_len, 0);
      return;
    }
    dst_elems = static_cast<uint8_t*>(
        alloc_dyn_array(*ctx.arena, dst_stride, static_cast<uint64_t>(count)));
    write_pointer(dst, hf, dst_elems);
    if (s.dst_len) write_scalar_i64(dst, *s.dst_len, count);
  } else {
    dst_elems = dst + hf.offset;
    dst_count = std::min<int64_t>(count, hf.static_count);
  }

  // Byte-identical scalar elements: one bulk copy instead of per-element
  // widen/truncate round trips; foreign-order messages add one tight
  // fixed-width byteswap loop over the copied block.
  if (s.elem_identity && dst_count > 0) {
    std::memcpy(dst_elems, src_elems, static_cast<size_t>(dst_count) * dst_stride);
    if (ctx.swap && hf.element_size > 1 && hf.element_kind != FieldKind::kChar) {
      for (int64_t i = 0; i < dst_count; ++i) {
        byteswap_inplace(dst_elems + static_cast<size_t>(i) * dst_stride, hf.element_size);
      }
    }
    return;
  }

  for (int64_t i = 0; i < dst_count; ++i) {
    const uint8_t* se = src_elems + static_cast<size_t>(i) * src_stride;
    uint8_t* de = dst_elems + static_cast<size_t>(i) * dst_stride;
    if (s.sub) {
      exec_struct(*s.sub, se, de, ctx);
    } else if (hf.element_kind == FieldKind::kString) {
      const char* str = convert_string(se, ctx.body, ctx.body_size, ctx.swap, *ctx.arena);
      std::memcpy(de, &str, sizeof(char*));
    } else {
      // Basic scalar elements: build throwaway descriptors once per call.
      FieldDescriptor sfd;
      sfd.kind = wf.element_kind;
      sfd.size = wf.element_size;
      sfd.offset = 0;
      FieldDescriptor dfd;
      dfd.kind = hf.element_kind;
      dfd.size = hf.element_size;
      dfd.offset = 0;
      convert_scalar(se, sfd, ctx.swap, de, dfd);
    }
  }
}

void exec_struct(const ConversionPlan::Impl& plan, const uint8_t* src, uint8_t* dst,
                 ExecCtx& ctx) {
  using Op = ConversionPlan::Impl::Op;
  for (const auto& s : plan.steps) {
    switch (s.op) {
      case Op::kScalar:
        convert_scalar(src + s.src->offset, *s.src, ctx.swap, dst, *s.dst);
        break;
      case Op::kCopyRun: {
        const uint8_t* sp = src + s.src->offset;
        uint8_t* dp = dst + s.dst->offset;
        if (!ctx.swap) {
          std::memcpy(dp, sp, s.run_bytes);
        } else {
          for (const auto& [width, n] : s.swap_runs) {
            for (uint32_t k = 0; k < n; ++k) {
              std::memcpy(dp, sp, width);
              byteswap_inplace(dp, width);
              sp += width;
              dp += width;
            }
          }
        }
        break;
      }
      case Op::kEnumRemap: {
        auto v = static_cast<int32_t>(
            load_wire_i64(src + s.src->offset, s.src->kind, s.src->size, ctx.swap));
        auto it = std::lower_bound(s.enum_remap.begin(), s.enum_remap.end(),
                                   std::make_pair(v, INT32_MIN));
        if (it != s.enum_remap.end() && it->first == v) v = it->second;
        write_scalar_i64(dst, *s.dst, v);
        break;
      }
      case Op::kString: {
        const char* str =
            convert_string(src + s.src->offset, ctx.body, ctx.body_size, ctx.swap, *ctx.arena);
        std::memcpy(dst + s.dst->offset, &str, sizeof(char*));
        break;
      }
      case Op::kStruct:
        exec_struct(*s.sub, src + s.src->offset, dst + s.dst->offset, ctx);
        break;
      case Op::kArray:
        exec_array(s, src, dst, ctx);
        break;
      case Op::kDefault: {
        const FieldDescriptor& hf = *s.dst;
        if (is_fixed_scalar(hf.kind)) {
          if (hf.default_int) write_scalar_i64(dst, hf, *hf.default_int);
          if (hf.default_float) write_scalar_f64(dst, hf, *hf.default_float);
        } else if (hf.kind == FieldKind::kString) {
          if (hf.default_string) write_string_field(dst, hf, *hf.default_string, *ctx.arena);
        } else if (hf.kind == FieldKind::kStruct) {
          for (const auto& sub : hf.element_format->fields()) {
            fill_declared_defaults(sub, dst + hf.offset, ctx);
          }
        }
        // Arrays stay empty; the zeroed record already reads as count 0 /
        // null elements.
        break;
      }
    }
  }
}

}  // namespace

ConversionPlan::ConversionPlan(FormatPtr wire_fmt, FormatPtr host_fmt)
    : wire_(std::move(wire_fmt)), host_(std::move(host_fmt)) {
  if (!wire_ || !host_) throw FormatError("ConversionPlan: null format");
  impl_ = Impl::compile(*wire_, *host_, 0);
  identity_ = wire_->identical_to(*host_);
  lossy_ = impl_->lossy;
  defaulted_ = impl_->defaulted;
  coalesced_runs_ = impl_->coalesced_runs;
  coalesced_fields_ = impl_->coalesced_fields;
}

ConversionPlan::~ConversionPlan() = default;
ConversionPlan::ConversionPlan(ConversionPlan&&) noexcept = default;

void* ConversionPlan::execute(const void* buf, size_t size, RecordArena& arena) const {
  WireInfo info = peek_header(buf, size);
  if (info.version != kWireVersion) throw DecodeError("buffer was already decoded in place");
  if (info.fingerprint != wire_->fingerprint()) {
    throw DecodeError("message format does not match this plan's wire format");
  }
  const uint8_t* body = static_cast<const uint8_t*>(buf) + kWireHeaderSize;
  size_t body_size = info.total_size - kWireHeaderSize;
  if (body_size < wire_->struct_size()) throw DecodeError("body shorter than record");

  ExecCtx ctx{body, body_size, order_mismatch(info.order), &arena};
  auto* dst = static_cast<uint8_t*>(alloc_record(*host_, arena));
  if (identity_ && !ctx.swap && !host_->has_pointers()) {
    // Layout-identical, host-order, fully inline record: the body already
    // is the host representation. One memcpy replaces the whole program.
    std::memcpy(dst, body, host_->struct_size());
  } else {
    exec_struct(*impl_, body, dst, ctx);
  }
  // Hot-path telemetry: relaxed adds only, no clock reads (latency
  // histograms live one level up, in the receiver pipeline).
  static obs::Counter& converts =
      obs::metrics().counter(obs::Metric::morph_pbio_convert_decodes_total);
  converts.inc();
  decoded_bytes().add(info.total_size);
  return dst;
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

namespace {

void inplace_struct(const VarWalk& walk, uint8_t* rec, uint8_t* body, size_t body_size);

uint8_t* inplace_pointer(uint8_t* slot, uint8_t* body, size_t body_size, size_t need,
                         const char* what) {
  uint64_t rel;
  std::memcpy(&rel, slot, 8);
  if (rel == 0) {
    void* null = nullptr;
    std::memcpy(slot, &null, sizeof(void*));
    return nullptr;
  }
  if (rel >= body_size || need > body_size - rel) {
    throw DecodeError(std::string(what) + " offset out of range");
  }
  uint8_t* p = body + rel;
  std::memcpy(slot, &p, sizeof(void*));
  return p;
}

void inplace_string(uint8_t* slot, uint8_t* body, size_t body_size) {
  uint64_t rel;
  std::memcpy(&rel, slot, 8);
  if (rel == 0) {
    void* null = nullptr;
    std::memcpy(slot, &null, sizeof(void*));
    return;
  }
  if (rel >= body_size) throw DecodeError("string offset out of range");
  if (std::memchr(body + rel, 0, body_size - rel) == nullptr) {
    throw DecodeError("unterminated string in message");
  }
  uint8_t* p = body + rel;
  std::memcpy(slot, &p, sizeof(void*));
}

void inplace_struct(const VarWalk& walk, uint8_t* rec, uint8_t* body, size_t body_size) {
  for (const auto& v : walk.vars) {
    const FieldDescriptor& fd = *v.fd;
    switch (v.action) {
      case VarWalk::Action::kString:
        inplace_string(rec + fd.offset, body, body_size);
        break;
      case VarWalk::Action::kStaticStrings:
        for (uint32_t i = 0; i < fd.static_count; ++i) {
          inplace_string(rec + fd.offset + i * sizeof(char*), body, body_size);
        }
        break;
      case VarWalk::Action::kInlineSub:
        if (fd.kind == FieldKind::kStruct) {
          inplace_struct(*v.elem, rec + fd.offset, body, body_size);
        } else {
          uint32_t stride = fd.element_stride();
          for (uint32_t i = 0; i < fd.static_count; ++i) {
            inplace_struct(*v.elem, rec + fd.offset + i * stride, body, body_size);
          }
        }
        break;
      case VarWalk::Action::kDynArray: {
        int64_t count = v.len_fd ? read_scalar_i64(rec, *v.len_fd) : 0;
        if (count < 0) throw DecodeError("negative array count");
        uint32_t stride = fd.element_stride();
        uint8_t* elems =
            inplace_pointer(rec + fd.offset, body, body_size,
                            static_cast<size_t>(count) * stride, fd.name.c_str());
        if (elems == nullptr) break;
        if (v.elem) {
          for (int64_t i = 0; i < count; ++i) {
            inplace_struct(*v.elem, elems + static_cast<size_t>(i) * stride, body, body_size);
          }
        } else if (v.elem_is_string) {
          for (int64_t i = 0; i < count; ++i) {
            inplace_string(elems + static_cast<size_t>(i) * sizeof(char*), body, body_size);
          }
        }
        break;
      }
    }
  }
}

}  // namespace

Decoder::Decoder(FormatPtr host_fmt) : host_(std::move(host_fmt)) {
  if (!host_) throw FormatError("Decoder: null format");
  walk_ = VarWalk::build(*host_);
}

Decoder::~Decoder() = default;
Decoder::Decoder(Decoder&& other) noexcept
    : host_(std::move(other.host_)),
      walk_(std::move(other.walk_)),
      plans_(std::move(other.plans_)) {}

void* Decoder::decode_in_place(void* buf, size_t size) const {
  WireInfo info = peek_header(buf, size);
  if (info.version != kWireVersion) throw DecodeError("buffer was already decoded in place");
  if (info.fingerprint != host_->fingerprint() || info.order != host_byte_order()) {
    return nullptr;
  }
  auto* p = static_cast<uint8_t*>(buf);
  uint8_t* body = p + kWireHeaderSize;
  size_t body_size = info.total_size - kWireHeaderSize;
  if (body_size < host_->struct_size()) throw DecodeError("body shorter than record");
  if (host_->has_pointers()) inplace_struct(*walk_, body, body, body_size);
  p[2] = kVersionDecoded;  // guard against double decoding
  // Zero-copy fast path: telemetry must stay within noise, so this is two
  // relaxed adds and nothing else.
  static obs::Counter& zero_copy =
      obs::metrics().counter(obs::Metric::morph_pbio_zero_copy_decodes_total);
  zero_copy.inc();
  decoded_bytes().add(info.total_size);
  return body;
}

void* Decoder::decode(const void* buf, size_t size, const FormatPtr& wire_fmt,
                      RecordArena& arena) {
  return plan_for(wire_fmt).execute(buf, size, arena);
}

const ConversionPlan& Decoder::plan_for(const FormatPtr& wire_fmt) {
  if (!wire_fmt) throw FormatError("Decoder: null wire format");
  // Plans are heap-allocated and never erased, so the reference stays valid
  // after the lock is released and execution happens lock-free.
  std::lock_guard<std::mutex> lock(plans_mutex_);
  auto it = plans_.find(wire_fmt->fingerprint());
  if (it == plans_.end()) {
    it = plans_
             .emplace(wire_fmt->fingerprint(),
                      std::make_unique<ConversionPlan>(wire_fmt, host_))
             .first;
  }
  return *it->second;
}

// ---------------------------------------------------------------------------
// reorder_encoded
// ---------------------------------------------------------------------------

namespace {

void swap_struct(const FormatDescriptor& fmt, uint8_t* rec, uint8_t* body, size_t body_size,
                 bool foreign);

void swap_scalar(uint8_t* p, uint32_t size) { byteswap_inplace(p, size); }

void swap_struct(const FormatDescriptor& fmt, uint8_t* rec, uint8_t* body, size_t body_size,
                 bool foreign) {
  // Pre-read dynamic array counts and element offsets before any swapping
  // destroys them. `foreign` says the buffer is currently in the opposite
  // byte order (i.e. this call is swapping back to host order), so stored
  // values must be swapped after reading.
  struct Pending {
    const FieldDescriptor* fd;
    int64_t count;
    uint64_t rel;
  };
  std::vector<Pending> dyn;
  for (const auto& fd : fmt.fields()) {
    if (fd.kind != FieldKind::kDynArray) continue;
    const FieldDescriptor* len = fmt.find_field(fd.length_field);
    int64_t count =
        len ? load_wire_i64(rec + len->offset, len->kind, len->size, foreign) : 0;
    uint64_t rel = load_u64_swapped(rec + fd.offset, foreign);
    dyn.push_back({&fd, count, rel});
  }

  for (const auto& fd : fmt.fields()) {
    switch (fd.kind) {
      case FieldKind::kInt:
      case FieldKind::kUInt:
      case FieldKind::kFloat:
      case FieldKind::kEnum:
        swap_scalar(rec + fd.offset, fd.size);
        break;
      case FieldKind::kChar:
        break;
      case FieldKind::kString:
      case FieldKind::kDynArray:
        swap_scalar(rec + fd.offset, 8);  // the offset slot
        break;
      case FieldKind::kStruct:
        swap_struct(*fd.element_format, rec + fd.offset, body, body_size, foreign);
        break;
      case FieldKind::kStaticArray: {
        uint32_t stride = fd.element_stride();
        for (uint32_t i = 0; i < fd.static_count; ++i) {
          uint8_t* e = rec + fd.offset + i * stride;
          if (fd.element_format) {
            swap_struct(*fd.element_format, e, body, body_size, foreign);
          } else if (fd.element_kind == FieldKind::kString) {
            swap_scalar(e, 8);
          } else if (fd.element_kind != FieldKind::kChar) {
            swap_scalar(e, fd.element_size);
          }
        }
        break;
      }
    }
  }

  // Now swap the out-of-line elements of dynamic arrays.
  for (const auto& pd : dyn) {
    if (pd.rel == 0 || pd.count <= 0) continue;
    const FieldDescriptor& fd = *pd.fd;
    uint32_t stride = fd.element_stride();
    if (pd.rel >= body_size ||
        static_cast<uint64_t>(pd.count) > (body_size - pd.rel) / std::max(stride, 1u)) {
      throw DecodeError("reorder: array out of range");
    }
    uint8_t* elems = body + pd.rel;
    for (int64_t i = 0; i < pd.count; ++i) {
      uint8_t* e = elems + static_cast<size_t>(i) * stride;
      if (fd.element_format) {
        swap_struct(*fd.element_format, e, body, body_size, foreign);
      } else if (fd.element_kind == FieldKind::kString) {
        swap_scalar(e, 8);
      } else if (fd.element_kind != FieldKind::kChar) {
        swap_scalar(e, fd.element_size);
      }
    }
  }
}

}  // namespace

void reorder_encoded(ByteBuffer& message, const FormatDescriptor& fmt) {
  WireInfo info = peek_header(message.data(), message.size());
  if (info.version != kWireVersion) throw DecodeError("cannot reorder a decoded buffer");
  uint8_t* p = message.data();
  uint8_t* body = p + kWireHeaderSize;
  size_t body_size = info.total_size - kWireHeaderSize;
  // When the buffer is currently foreign-order, stored counts/offsets need
  // swapping after being read during the walk.
  swap_struct(fmt, body, body, body_size, order_mismatch(info.order));
  // Header: flip the order tag, swap fingerprint and total size.
  p[3] = static_cast<uint8_t>(info.order == ByteOrder::kLittle ? ByteOrder::kBig
                                                               : ByteOrder::kLittle);
  byteswap_inplace(p + 4, 8);
  byteswap_inplace(p + 12, 4);
}

}  // namespace morph::pbio
