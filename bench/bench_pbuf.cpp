// Pbuf bridge cost — the protobuf interop column in isolation.
//
// Same ChannelOpenResponse v2.0 payload sweep as Figures 8/9, but pitting
// the pbuf bridge's compiled plans against PBIO's native flatten on both
// directions, plus the full bridge round trip (encode to protobuf wire,
// decode back to a native record). The trailing ratio is protobuf encode
// over PBIO encode — the price of crossing the serialization ecosystem
// boundary, which the broker pays once per (format, encoding) group, not
// once per sink. Bytes-on-wire for both encodings land in the --json dump
// as bench_wire_bytes gauges (deterministic, so the regression gate can
// compare them across machines). A last row times the ~1 KB Quote record
// of the pbuf_churn pipeline workload, whose 110 packed doubles are the
// bridge's bulk-copy case.
#include "bench_support.hpp"

#include "pbio/encode.hpp"
#include "pbio/record.hpp"
#include "pbuf/bridge.hpp"
#include "pbuf/schema.hpp"

namespace {

using namespace morph;
using namespace morph::bench;

/// Time one record through PBIO and the pbuf bridge and print its row.
/// `fmt` is the native format, `pb_fmt` the same layout with pb numbers.
void time_row(const char* label, size_t size, const pbio::FormatPtr& fmt,
              const pbio::FormatPtr& pb_fmt, const void* rec) {
  pbio::Encoder pbio_enc(fmt);
  pbuf::EncodePlan enc(pb_fmt);
  pbuf::DecodePlan dec(pb_fmt);

  ByteBuffer pbio_wire;
  double pbio_ms = time_median_ms(size, [&] {
    pbio_enc.encode(rec, pbio_wire);
    benchmark::DoNotOptimize(pbio_wire.data());
  });

  ByteBuffer wire;
  double enc_ms = time_median_ms(size, [&] {
    wire.clear();
    enc.encode(rec, wire);
    benchmark::DoNotOptimize(wire.data());
  });

  RecordArena dec_arena;
  double dec_ms = time_median_ms(size, [&] {
    dec_arena.reset();
    void* out = dec.decode(wire.data(), wire.size(), dec_arena);
    benchmark::DoNotOptimize(out);
  });

  ByteBuffer rt_wire;
  RecordArena rt_arena;
  double rt_ms = time_median_ms(size, [&] {
    rt_wire.clear();
    rt_arena.reset();
    enc.encode(rec, rt_wire);
    void* out = dec.decode(rt_wire.data(), rt_wire.size(), rt_arena);
    benchmark::DoNotOptimize(out);
  });

  print_row(label, {pbio_ms, enc_ms, dec_ms, rt_ms, enc_ms / pbio_ms});
  record_wire_bytes(label, "PBIO", pbio_wire.size());
  record_wire_bytes(label, "Pbuf", wire.size());
}

/// The ~1 KB Quote record of the pbuf_churn pipeline workload (rev 1):
/// scalars, three short strings and 110 packed doubles.
pbio::FormatPtr quote_format() {
  pbio::FormatBuilder b("Quote");
  b.add_int("seq", 8);
  b.add_string("symbol");
  b.add_int("venue", 4);
  b.add_int("npx", 4);
  b.add_dyn_array("px", pbio::FieldKind::kFloat, 8, "npx");
  b.add_string("note");
  b.add_int("ts", 8);
  b.add_int("flags", 4);
  b.add_string("trader");
  return b.build();
}

void* make_quote(const pbio::FormatPtr& fmt, RecordArena& arena) {
  constexpr uint64_t kPx = 110;
  void* rec = pbio::alloc_record(*fmt, arena);
  pbio::RecordRef q(rec, fmt);
  q.set_int("seq", 123456);
  q.set_string("symbol", "ACME", arena);
  q.set_int("venue", 17);
  const auto* px = fmt->find_field("px");
  auto* elems = static_cast<double*>(pbio::alloc_dyn_array(arena, 8, kPx));
  for (uint64_t i = 0; i < kPx; ++i) elems[i] = 100.0 + 0.37 * static_cast<double>(i);
  pbio::write_pointer(rec, *px, elems);
  q.set_int("npx", kPx);
  q.set_string("note", "opening auction, indicative prices only; subject to revision", arena);
  q.set_int("ts", int64_t{1} << 45);
  q.set_int("flags", 0x5a);
  q.set_string("trader", "trader-0042", arena);
  return rec;
}

void paper_table() {
  std::printf("Pbuf bridge: cost (ms per message), ChannelOpenResponse v2.0 (annotated),\n"
              "then the pbuf_churn Quote (1 KB, 110 packed doubles)\n\n");
  print_header("size", {"PBIO-enc", "Pbuf-enc", "Pbuf-dec", "RoundTrip", "Pbuf/PBIO"});
  for (size_t size : paper_sizes()) {
    RecordArena arena;
    auto* rec = make_payload(size, arena);
    auto fmt = echo::channel_open_response_v2_format();
    time_row(size_label(size), size, fmt, pbuf::annotate_field_numbers(*fmt), rec);
  }
  RecordArena arena;
  auto quote = quote_format();
  time_row("quote1KB", 1 << 10, quote, pbuf::annotate_field_numbers(*quote),
           make_quote(quote, arena));
  const auto& m = pbuf::bridge_metrics();
  std::printf("\nbridge conservation: frames_in=%llu decoded=%llu rejected=%llu (%s)\n",
              static_cast<unsigned long long>(m.frames_in.value()),
              static_cast<unsigned long long>(m.decoded.value()),
              static_cast<unsigned long long>(m.rejected.value()),
              m.frames_in.value() == m.decoded.value() + m.rejected.value() ? "holds"
                                                                            : "VIOLATED");
}

void bm_pbuf_roundtrip(benchmark::State& state) {
  RecordArena arena;
  auto* rec = make_payload(static_cast<size_t>(state.range(0)), arena);
  auto pb_fmt = pbuf::annotate_field_numbers(*echo::channel_open_response_v2_format());
  pbuf::EncodePlan enc(pb_fmt);
  pbuf::DecodePlan dec(pb_fmt);
  ByteBuffer wire;
  RecordArena out;
  for (auto _ : state) {
    wire.clear();
    out.reset();
    enc.encode(rec, wire);
    benchmark::DoNotOptimize(dec.decode(wire.data(), wire.size(), out));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire.size()));
}

BENCHMARK(bm_pbuf_roundtrip)->Arg(100)->Arg(1 << 10)->Arg(10 << 10)->Arg(100 << 10)->Arg(1 << 20);

}  // namespace

MORPH_BENCH_MAIN(paper_table)
