// The three workloads: format families, retro-transforms, subscriber
// layouts, offered rates and seeded record generators.
//
//   small_events  ~150 B Tick events; publisher and broker on rev 2, two
//                 PBIO subscribers on rev 0 (one shared group) and one on
//                 rev 1: 2 morphs, 2 shared encodes, 3 sends per event.
//   large_morph   ~10 KB Scan events (arrays of structs, strings) on the
//                 newest of 5 revisions; the broker registers rev 0, so the
//                 ingress receiver runs a fused 4-hop chain per event; all
//                 3 subscribers on rev 0: one identity group.
//   pbuf_churn    ~1 KB Quote events, formats annotated with protobuf field
//                 numbers; a PBIO subscriber on rev 0 that leaves and
//                 rejoins every 50 ms, protobuf subscribers on rev 0 and 1.
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "common/rng.hpp"
#include "pbio/record.hpp"
#include "pbuf/schema.hpp"

namespace perfbench {

using morph::RecordArena;
using morph::Rng;
using morph::pbio::FieldDescriptor;
using morph::pbio::FieldKind;
using morph::pbio::FormatBuilder;
using morph::pbio::FormatDescriptor;

uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + static_cast<uint64_t>(ts.tv_nsec);
}

int64_t read_seq(const void* record) {
  int64_t seq = 0;
  std::memcpy(&seq, record, sizeof(seq));
  return seq;
}

void write_seq(void* record, int64_t seq) { std::memcpy(record, &seq, sizeof(seq)); }

namespace {

// --- record-filling helpers (setup only, so lookups by name are fine) ------

const FieldDescriptor& field(const FormatDescriptor& fmt, const char* name) {
  const FieldDescriptor* fd = fmt.find_field(name);
  if (fd == nullptr) throw std::runtime_error(fmt.name() + " has no field " + name);
  return *fd;
}

void set_int(const FormatDescriptor& fmt, void* rec, const char* name, int64_t v) {
  morph::pbio::write_scalar_i64(rec, field(fmt, name), v);
}

void set_float(const FormatDescriptor& fmt, void* rec, const char* name, double v) {
  morph::pbio::write_scalar_f64(rec, field(fmt, name), v);
}

void set_string(const FormatDescriptor& fmt, void* rec, const char* name, const std::string& v,
                RecordArena& arena) {
  morph::pbio::write_string_field(rec, field(fmt, name), v, arena);
}

/// Allocate `count` elements for dyn-array `name`, store its count, and
/// return the element base.
uint8_t* set_array(const FormatDescriptor& fmt, void* rec, const char* name, uint64_t count,
                   RecordArena& arena) {
  const FieldDescriptor& fd = field(fmt, name);
  void* elems = morph::pbio::alloc_dyn_array(arena, fd.element_stride(), count);
  morph::pbio::write_pointer(rec, fd, elems);
  set_int(fmt, rec, fd.length_field.c_str(), static_cast<int64_t>(count));
  return static_cast<uint8_t*>(elems);
}

std::string letters(Rng& rng, size_t lo, size_t hi) {
  return rng.next_ident(static_cast<size_t>(rng.next_range(static_cast<int64_t>(lo),
                                                           static_cast<int64_t>(hi))));
}

/// Positive, never zero: protobuf omits zero scalars, and keeping values
/// away from 0 keeps the -0.0/+0.0 distinction out of the oracle.
double positive(Rng& rng, double scale) { return 1.0 + rng.next_double() * scale; }

/// Retro-transform copying every field of `dst` from the same-named field
/// of `src`: scalars and strings by assignment, dyn arrays element-wise
/// (struct elements field by field). Count fields are assigned before the
/// arrays they size.
std::string copy_code(const FormatDescriptor& dst) {
  std::string code;
  for (const auto& fd : dst.fields()) {
    if (fd.kind != FieldKind::kDynArray) {
      code += "old." + fd.name + " = new." + fd.name + ";\n";
      continue;
    }
    code += "for (int i = 0; i < new." + fd.length_field + "; i++) {\n";
    if (fd.element_format == nullptr) {
      code += "  old." + fd.name + "[i] = new." + fd.name + "[i];\n";
    } else {
      for (const auto& ef : fd.element_format->fields()) {
        code += "  old." + fd.name + "[i]." + ef.name + " = new." + fd.name + "[i]." + ef.name +
                ";\n";
      }
    }
    code += "}\n";
  }
  return code;
}

void add_ladder(Workload& w) {
  for (size_t k = w.revs.size() - 1; k >= 1; --k) {
    morph::core::TransformSpec spec;
    spec.src = w.revs[k];
    spec.dst = w.revs[k - 1];
    spec.code = copy_code(*spec.dst);
    w.transforms.push_back(std::move(spec));
  }
}

// --- small_events ------------------------------------------------------------

FormatPtr tick_rev(int rev) {
  FormatBuilder b("Tick");
  b.add_int("seq", 8);
  b.add_int("station", rev >= 2 ? 8 : 4);
  b.add_int("kind", 4);
  b.add_float("value", 8);
  b.add_string("tag");
  b.add_int("nsamples", 4);
  b.add_dyn_array("samples", FieldKind::kInt, 4, "nsamples");
  if (rev >= 1) {
    b.add_int("flags", 4);
    b.add_string("unit");
  }
  if (rev >= 2) b.add_float("quality", 8);
  return b.build();
}

void* make_tick(const Workload& w, Rng& rng, RecordArena& arena) {
  const FormatDescriptor& f = *w.publish_fmt();
  static const char* const kUnits[] = {"C", "kPa", "m/s", "lux"};
  void* rec = morph::pbio::alloc_record(f, arena);
  set_int(f, rec, "station", rng.next_range(1, 99999));
  set_int(f, rec, "kind", rng.next_range(1, 8));
  set_float(f, rec, "value", positive(rng, 1000));
  set_string(f, rec, "tag", letters(rng, 8, 16), arena);
  const uint64_t n = static_cast<uint64_t>(rng.next_range(12, 20));
  auto* samples = reinterpret_cast<int32_t*>(set_array(f, rec, "samples", n, arena));
  for (uint64_t i = 0; i < n; ++i) samples[i] = static_cast<int32_t>(rng.next_range(1, 1 << 20));
  set_int(f, rec, "flags", rng.next_range(1, 255));
  set_string(f, rec, "unit", kUnits[rng.next_below(4)], arena);
  set_float(f, rec, "quality", positive(rng, 1));
  return rec;
}

Workload small_events() {
  Workload w;
  w.name = "small_events";
  for (int r = 0; r <= 2; ++r) w.revs.push_back(tick_rev(r));
  add_ladder(w);
  w.publish_rev = 2;
  w.broker_rev = 2;
  w.subs = {{0, morph::echo::SinkEncoding::kPbio, false},
            {0, morph::echo::SinkEncoding::kPbio, false},
            {1, morph::echo::SinkEncoding::kPbio, false}};
  w.fixed_rate = 10000;
  w.pool_size = 1024;
  w.make_record = make_tick;
  return w;
}

// --- large_morph -------------------------------------------------------------

FormatPtr reading_rev(int rev) {
  FormatBuilder b("Reading");
  b.add_int("ts", 8);
  b.add_float("v", 8);
  if (rev >= 1) b.add_int("q", 4);
  if (rev >= 2) b.add_int("flags", 4);
  if (rev >= 3) b.add_float("err", 8);
  if (rev >= 4) b.add_int("src", 4);
  return b.build();
}

FormatPtr scan_rev(int rev) {
  FormatBuilder b("Scan");
  b.add_int("seq", 8);
  b.add_string("name");
  b.add_int("site", 4);
  b.add_string("notes");
  b.add_int("nreadings", 4);
  b.add_dyn_array("readings", reading_rev(rev), "nreadings");
  if (rev >= 1) b.add_float("gain", 8);
  if (rev >= 2) b.add_int("zone", 4);
  if (rev >= 3) b.add_string("label");
  if (rev >= 4) b.add_int("epoch", 8);
  return b.build();
}

void* make_scan(const Workload& w, Rng& rng, RecordArena& arena) {
  const FormatDescriptor& f = *w.publish_fmt();
  void* rec = morph::pbio::alloc_record(f, arena);
  set_string(f, rec, "name", letters(rng, 16, 32), arena);
  set_int(f, rec, "site", rng.next_range(1, 4096));
  set_string(f, rec, "notes", letters(rng, 300, 500), arena);
  set_float(f, rec, "gain", positive(rng, 4));
  set_int(f, rec, "zone", rng.next_range(1, 64));
  set_string(f, rec, "label", letters(rng, 8, 16), arena);
  set_int(f, rec, "epoch", rng.next_range(1, int64_t{1} << 40));
  const FieldDescriptor& arr = field(f, "readings");
  const FormatDescriptor& ef = *arr.element_format;
  const uint64_t n = static_cast<uint64_t>(rng.next_range(240, 280));
  uint8_t* elems = set_array(f, rec, "readings", n, arena);
  int64_t ts = rng.next_range(1, int64_t{1} << 40);
  for (uint64_t i = 0; i < n; ++i) {
    void* e = elems + i * arr.element_stride();
    ts += rng.next_range(1, 1000);
    set_int(ef, e, "ts", ts);
    set_float(ef, e, "v", positive(rng, 100));
    set_int(ef, e, "q", rng.next_range(1, 100));
    set_int(ef, e, "flags", rng.next_range(1, 15));
    set_float(ef, e, "err", positive(rng, 0.5));
    set_int(ef, e, "src", rng.next_range(1, 32));
  }
  return rec;
}

Workload large_morph() {
  Workload w;
  w.name = "large_morph";
  for (int r = 0; r <= 4; ++r) w.revs.push_back(scan_rev(r));
  add_ladder(w);
  w.publish_rev = 4;
  w.broker_rev = 0;
  w.subs = {{0, morph::echo::SinkEncoding::kPbio, false},
            {0, morph::echo::SinkEncoding::kPbio, false},
            {0, morph::echo::SinkEncoding::kPbio, false}};
  w.fixed_rate = 3500;
  w.pool_size = 128;
  w.make_record = make_scan;
  return w;
}

// --- pbuf_churn --------------------------------------------------------------

FormatPtr quote_rev(int rev) {
  FormatBuilder b("Quote");
  b.add_int("seq", 8);
  b.add_string("symbol");
  b.add_int("venue", 4);
  b.add_int("npx", 4);
  b.add_dyn_array("px", FieldKind::kFloat, 8, "npx");
  b.add_string("note");
  if (rev >= 1) {
    b.add_int("ts", 8);
    b.add_int("flags", 4);
    b.add_string("trader");
  }
  return morph::pbuf::annotate_field_numbers(*b.build());
}

void* make_quote(const Workload& w, Rng& rng, RecordArena& arena) {
  const FormatDescriptor& f = *w.publish_fmt();
  void* rec = morph::pbio::alloc_record(f, arena);
  set_string(f, rec, "symbol", letters(rng, 3, 6), arena);
  set_int(f, rec, "venue", rng.next_range(1, 40));
  const uint64_t n = static_cast<uint64_t>(rng.next_range(100, 120));
  auto* px = reinterpret_cast<double*>(set_array(f, rec, "px", n, arena));
  for (uint64_t i = 0; i < n; ++i) px[i] = positive(rng, 500);
  set_string(f, rec, "note", letters(rng, 40, 80), arena);
  set_int(f, rec, "ts", rng.next_range(1, int64_t{1} << 50));
  set_int(f, rec, "flags", rng.next_range(1, 255));
  set_string(f, rec, "trader", letters(rng, 8, 12), arena);
  return rec;
}

Workload pbuf_churn() {
  Workload w;
  w.name = "pbuf_churn";
  for (int r = 0; r <= 1; ++r) w.revs.push_back(quote_rev(r));
  add_ladder(w);
  w.publish_rev = 1;
  w.broker_rev = 1;
  w.subs = {{0, morph::echo::SinkEncoding::kPbio, true},
            {0, morph::echo::SinkEncoding::kPbuf, false},
            {1, morph::echo::SinkEncoding::kPbuf, false}};
  w.fixed_rate = 10000;
  w.churn_period_s = 0.05;
  w.pool_size = 512;
  w.make_record = make_quote;
  return w;
}

// --- record comparison -------------------------------------------------------

/// Scalars compare by bytes: the generators never produce -0.0 or NaN, so
/// byte equality is value equality.
std::string diff_bytes(const uint8_t* a, const uint8_t* b, uint32_t size) {
  return std::memcmp(a, b, size) == 0 ? "" : "value";
}

/// Strings compare by content; a null pointer reads as "".
std::string diff_string(const uint8_t* a, const uint8_t* b) {
  const char* sa = nullptr;
  const char* sb = nullptr;
  std::memcpy(&sa, a, sizeof sa);
  std::memcpy(&sb, b, sizeof sb);
  return std::strcmp(sa == nullptr ? "" : sa, sb == nullptr ? "" : sb) == 0 ? "" : "value";
}

std::string diff_record(const FormatDescriptor& fmt, const uint8_t* a, const uint8_t* b,
                        bool top);

/// Compare one element of two arrays described by `fd`.
std::string diff_element(const FieldDescriptor& fd, const uint8_t* a, const uint8_t* b) {
  if (fd.element_format != nullptr) return diff_record(*fd.element_format, a, b, false);
  if (fd.element_kind == FieldKind::kString) return diff_string(a, b);
  return diff_bytes(a, b, fd.element_size);
}

std::string diff_record(const FormatDescriptor& fmt, const uint8_t* a, const uint8_t* b,
                        bool top) {
  for (const auto& fd : fmt.fields()) {
    if (top && fd.name == "seq") continue;
    std::string why;
    switch (fd.kind) {
      case FieldKind::kString:
        why = diff_string(a + fd.offset, b + fd.offset);
        break;
      case FieldKind::kStruct:
        why = diff_record(*fd.element_format, a + fd.offset, b + fd.offset, false);
        break;
      case FieldKind::kStaticArray:
        for (uint32_t i = 0; i < fd.static_count && why.empty(); ++i) {
          const size_t off = fd.offset + size_t{i} * fd.element_stride();
          why = diff_element(fd, a + off, b + off);
          if (!why.empty()) why = "[" + std::to_string(i) + "]." + why;
        }
        break;
      case FieldKind::kDynArray: {
        // The count field is compared on its own; compare up to it.
        const int64_t n = morph::pbio::read_scalar_i64(a, field(fmt, fd.length_field.c_str()));
        const auto* ea = static_cast<const uint8_t*>(morph::pbio::read_pointer(a, fd));
        const auto* eb = static_cast<const uint8_t*>(morph::pbio::read_pointer(b, fd));
        for (int64_t i = 0; i < n && why.empty(); ++i) {
          if (ea == nullptr || eb == nullptr) {
            why = "elements";
            break;
          }
          const size_t off = static_cast<size_t>(i) * fd.element_stride();
          why = diff_element(fd, ea + off, eb + off);
          if (!why.empty()) why = "[" + std::to_string(i) + "]." + why;
        }
        break;
      }
      default:
        why = diff_bytes(a + fd.offset, b + fd.offset, fd.size);
        break;
    }
    if (!why.empty()) return fd.name + (why == "value" ? "" : "." + why);
  }
  return "";
}

}  // namespace

std::string first_difference(const FormatDescriptor& fmt, const void* a, const void* b) {
  return diff_record(fmt, static_cast<const uint8_t*>(a), static_cast<const uint8_t*>(b), true);
}

std::vector<std::string> workload_names() { return {"small_events", "large_morph", "pbuf_churn"}; }

Workload make_workload(const std::string& name) {
  if (name == "small_events") return small_events();
  if (name == "large_morph") return large_morph();
  if (name == "pbuf_churn") return pbuf_churn();
  throw std::runtime_error("unknown workload '" + name + "'");
}

}  // namespace perfbench
