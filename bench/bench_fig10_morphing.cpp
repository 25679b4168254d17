// Figure 10 — Decoding cost WITH message evolution.
//
// The receiver only understands ChannelOpenResponse v1.0; the sender sends
// v2.0.
//   PBIO morphing:  decode v2.0 (compiled conversion plan) + apply the
//                   JIT-compiled Figure 5 Ecode transform.
//   XML/XSLT:       parse the v2.0 document + apply the v2->v1 stylesheet +
//                   walk the result tree into a native v1.0 struct.
// The paper reports XML/XSLT an order of magnitude slower.
#include "bench_support.hpp"

#include "core/transform.hpp"
#include "pbio/decode.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/encode.hpp"
#include "pbio/randgen.hpp"
#include "xmlx/xml_bind.hpp"
#include "xmlx/xslt.hpp"

namespace {

using namespace morph;
using namespace morph::bench;

struct MorphSetup {
  pbio::FormatPtr v2 = echo::channel_open_response_v2_format();
  pbio::FormatPtr v1 = echo::channel_open_response_v1_format();
  core::TransformSpec spec = echo::response_v2_to_v1_spec();
  core::MorphChain chain{{&spec}, ecode::CompileOptions{}, bench_fused()};
  pbio::Decoder decoder{chain.src_format()};
};

// --- Fused vs hop-wise A/B: synthetic N-hop all-scalar telemetry chains ---
//
// The paper-shaped table above exercises one hop; fusion only pays off on
// longer retro-chains (a v4 sender reaching a v1 receiver crosses three
// specs). These chains are all fixed scalars — the case fusion fully
// collapses — so the ratio column isolates the cost of materializing
// intermediate records.

/// One generation of the synthetic telemetry record. Every version has the
/// same shape; versions only differ by name so each hop is a real
/// format-to-format transform.
pbio::FormatPtr telemetry_format(int version) {
  return pbio::FormatBuilder("BenchTelemetryV" + std::to_string(version))
      .add_int("seq", 8)
      .add_float("x", 8)
      .add_int("e", 2)
      .add_int("total", 8)
      .build();
}

/// The per-hop retro-transform: every field is rewritten, with a narrowing
/// store (e) so fused execution has to reproduce record truncation.
core::TransformSpec telemetry_hop(const pbio::FormatPtr& src, const pbio::FormatPtr& dst) {
  return core::TransformSpec{src, dst,
                             "old.seq = new.seq + 1;"
                             "old.x = new.x * 1.5;"
                             "old.e = new.e + 21;"
                             "old.total = new.total + new.seq;"};
}

/// A sensor scan in revision `rev` of 5: strings plus a readings array of
/// structs that gains one element field per revision (the shape of the
/// pipeline bench's large_morph workload).
pbio::FormatPtr scan_format(int rev) {
  pbio::FormatBuilder r("BenchReading");
  r.add_int("ts", 8).add_float("v", 8);
  if (rev >= 1) r.add_int("q", 4);
  if (rev >= 2) r.add_int("flags", 4);
  if (rev >= 3) r.add_float("err", 8);
  if (rev >= 4) r.add_int("src", 4);
  pbio::FormatBuilder b("BenchScan");
  b.add_int("seq", 8).add_string("name").add_int("site", 4).add_string("notes");
  b.add_int("nreadings", 4).add_dyn_array("readings", r.build(), "nreadings");
  if (rev >= 1) b.add_float("gain", 8);
  if (rev >= 2) b.add_int("zone", 4);
  if (rev >= 3) b.add_string("label");
  if (rev >= 4) b.add_int("epoch", 8);
  return b.build();
}

/// The per-hop retro-transform: a verbatim copy of every field the older
/// revision keeps, the readings element by element.
core::TransformSpec scan_hop(const pbio::FormatPtr& src, const pbio::FormatPtr& dst) {
  std::string code;
  for (const auto& fd : dst->fields()) {
    if (fd.kind != pbio::FieldKind::kDynArray) {
      code += "old." + fd.name + " = new." + fd.name + ";";
      continue;
    }
    code += "for (int i = 0; i < new." + fd.length_field + "; i++) {";
    for (const auto& ef : fd.element_format->fields()) {
      code += "old." + fd.name + "[i]." + ef.name + " = new." + fd.name + "[i]." + ef.name + ";";
    }
    code += "}";
  }
  return core::TransformSpec{src, dst, code};
}

/// Time `specs` hop-wise and fused on one source record (`make_input` of
/// the chain's source layout) and print one row.
void chain_row(const std::string& label, const std::vector<core::TransformSpec>& specs,
               const std::function<pbio::DynValue(const pbio::FormatPtr&)>& make_input,
               size_t payload_bytes) {
  std::vector<const core::TransformSpec*> spec_ptrs;
  for (const auto& s : specs) spec_ptrs.push_back(&s);
  core::MorphChain chain(spec_ptrs, ecode::CompileOptions{}, bench_fused());
  pbio::DynValue input = make_input(chain.src_format());
  RecordArena in_arena;
  void* src = pbio::from_dyn(input, in_arena);
  RecordArena arena;
  double hop_ms = time_median_ms(payload_bytes, [&] {
    arena.reset();
    benchmark::DoNotOptimize(chain.apply_hopwise(src, arena));
  });
  double fused_ms = time_median_ms(payload_bytes, [&] {
    arena.reset();
    benchmark::DoNotOptimize(chain.apply(src, arena));
  });
  // Report microseconds: per-morph cost is far below a millisecond.
  print_row(label.c_str(), {hop_ms * 1000.0, fused_ms * 1000.0, hop_ms / fused_ms});
}

void fusion_table() {
  std::printf("\nFused vs hop-wise morph execution (us per morph), %d-field scalar record\n",
              4);
  std::printf("(--fused %s; 'fused' column falls back to hop-wise when fusion is off)\n\n",
              bench_fused() ? "on" : "off");
  print_header("chain", {"hopwise_us", "fused_us", "hop/fused"});

  constexpr int kMaxHops = 4;
  std::vector<pbio::FormatPtr> formats;
  formats.reserve(kMaxHops + 1);
  for (int v = kMaxHops; v >= 0; --v) formats.push_back(telemetry_format(v));

  for (int hops = 2; hops <= kMaxHops; ++hops) {
    std::vector<core::TransformSpec> specs;
    specs.reserve(static_cast<size_t>(hops));
    for (int h = 0; h < hops; ++h) specs.push_back(telemetry_hop(formats[h], formats[h + 1]));
    // These records are ~48 B, so pass 100 to get the dense sampling.
    chain_row(std::to_string(hops) + "-hop", specs,
              [](const pbio::FormatPtr& fmt) {
                Rng rng(7);
                return pbio::random_dyn(rng, fmt);
              },
              100);
  }

  // Strings and a struct array: every intermediate field is a verbatim
  // copy, so fusion forwards the whole ladder into one copy pass.
  std::vector<core::TransformSpec> scan;
  for (int rev = kMaxHops; rev >= 1; --rev) {
    scan.push_back(scan_hop(scan_format(rev), scan_format(rev - 1)));
  }
  constexpr int kReadings = 256;
  chain_row("4-hop str+arr", scan,
            [](const pbio::FormatPtr& fmt) {
              Rng rng(7);
              pbio::RandRecordOptions opt;
              opt.max_array_len = 0;
              opt.max_string_len = 64;
              pbio::DynValue v = pbio::random_dyn(rng, fmt, opt);
              auto& fields = v.as_struct().fields;
              const pbio::FormatPtr& elem = fmt->find_field("readings")->element_format;
              for (int i = 0; i < kReadings; ++i) {
                fields[fmt->field_index("readings")].as_list().push_back(
                    pbio::random_dyn(rng, elem));
              }
              fields[fmt->field_index("nreadings")] = pbio::DynValue(int64_t{kReadings});
              return v;
            },
            10 << 10);
  std::printf("(4-hop str+arr: 5-revision scan, strings + a %d-element struct array)\n",
              kReadings);
  std::printf("\nexpected shape: fused execution wins and the gap widens with chain "
              "length (no intermediate records)\n");
}

void paper_table() {
  std::printf(
      "Figure 10: decoding cost with msg evolution (ms per message), "
      "v2.0 message -> v1.0 receiver\n\n");
  print_header("size", {"PBIO-morph", "XML/XSLT", "XSLT/morph"});
  MorphSetup setup;
  xmlx::Stylesheet sheet = xmlx::Stylesheet::parse(echo::response_v2_to_v1_xslt());

  for (size_t size : paper_sizes()) {
    RecordArena arena;
    auto* rec = make_payload(size, arena);
    ByteBuffer wire;
    pbio::Encoder(setup.v2).encode(rec, wire);
    std::string xml;
    xmlx::xml_encode_record(*setup.v2, rec, xml);

    RecordArena morph_arena;
    double morph_ms = time_median_ms(size, [&] {
      morph_arena.reset();
      void* native = setup.decoder.decode(wire.data(), wire.size(), setup.v2, morph_arena);
      void* v1_rec = setup.chain.apply(native, morph_arena);
      benchmark::DoNotOptimize(v1_rec);
    });

    RecordArena xslt_arena;
    double xslt_ms = time_median_ms(size, [&] {
      xslt_arena.reset();
      auto doc = xmlx::xml_parse(xml);
      auto v1_doc = sheet.apply(*doc);
      void* v1_rec = xmlx::xml_decode_record(*setup.v1, *v1_doc, xslt_arena);
      benchmark::DoNotOptimize(v1_rec);
    });

    print_row(size_label(size), {morph_ms, xslt_ms, xslt_ms / morph_ms});
  }
  std::printf("\npaper's shape: XML/XSLT is about an order of magnitude slower than "
              "PBIO-based morphing\n");
  std::printf("(morph backend: %s)\n",
              MorphSetup().chain.jitted() ? "x86-64 JIT" : "bytecode VM");
  fusion_table();
}

void bm_pbio_morph(benchmark::State& state) {
  MorphSetup setup;
  RecordArena arena;
  auto* rec = make_payload(static_cast<size_t>(state.range(0)), arena);
  ByteBuffer wire;
  pbio::Encoder(setup.v2).encode(rec, wire);
  RecordArena out;
  for (auto _ : state) {
    out.reset();
    void* native = setup.decoder.decode(wire.data(), wire.size(), setup.v2, out);
    benchmark::DoNotOptimize(setup.chain.apply(native, out));
  }
}

void bm_xml_xslt(benchmark::State& state) {
  auto v2 = echo::channel_open_response_v2_format();
  auto v1 = echo::channel_open_response_v1_format();
  RecordArena arena;
  auto* rec = make_payload(static_cast<size_t>(state.range(0)), arena);
  std::string xml;
  xmlx::xml_encode_record(*v2, rec, xml);
  xmlx::Stylesheet sheet = xmlx::Stylesheet::parse(echo::response_v2_to_v1_xslt());
  RecordArena out;
  for (auto _ : state) {
    out.reset();
    auto doc = xmlx::xml_parse(xml);
    auto v1_doc = sheet.apply(*doc);
    benchmark::DoNotOptimize(xmlx::xml_decode_record(*v1, *v1_doc, out));
  }
}

BENCHMARK(bm_pbio_morph)->Arg(100)->Arg(1 << 10)->Arg(10 << 10)->Arg(100 << 10)->Arg(1 << 20);
BENCHMARK(bm_xml_xslt)->Arg(100)->Arg(1 << 10)->Arg(10 << 10)->Arg(100 << 10)->Arg(1 << 20);

}  // namespace

MORPH_BENCH_MAIN(paper_table)
