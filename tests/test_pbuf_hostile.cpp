// Hostile-input fuzzing for the protobuf wire parser and bridge.
//
// Protobuf frames arrive from the network; a truncated, corrupted, or
// malicious payload must never crash the receiver, drive unbounded work,
// or break the conservation law frames_in == decoded + rejected. Same
// idiom as the descriptor fuzz in test_wire_hostile.cpp: deterministic
// Rng, parsed + rejected == N accounting.
#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "pbio/randgen.hpp"
#include "pbio/record.hpp"
#include "pbuf/bridge.hpp"
#include "pbuf/schema.hpp"
#include "pbuf/wire.hpp"

namespace morph::pbuf {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::RecordRef;

FormatPtr roster_format() {
  return parse_proto_message(
      "message Member { string name = 1; int32 port = 2; }\n"
      "message Roster { string channel = 1; repeated Member members = 2;\n"
      "                 repeated int32 shard_ids = 3; double load = 4; }\n",
      "Roster");
}

std::vector<uint8_t> encode_sample(const FormatPtr& fmt, RecordArena& arena, Rng& rng) {
  void* rec = pbio::random_record(rng, fmt, arena);
  ByteBuffer out;
  EncodePlan(fmt).encode(rec, out);
  return {out.data(), out.data() + out.size()};
}

TEST(PbufFuzz, BitFlippedFramesNeverCrashAndConservationHolds) {
  Rng rng(777);
  FormatPtr fmt = roster_format();
  DecodePlan dec(fmt);
  BridgeMetrics& m = bridge_metrics();
  uint64_t frames0 = m.frames_in.value();
  size_t parsed = 0, rejected = 0;
  constexpr int kIters = 500;
  for (int iter = 0; iter < kIters; ++iter) {
    RecordArena arena;
    std::vector<uint8_t> wire = encode_sample(fmt, arena, rng);
    if (wire.empty()) wire.push_back(0);  // keep the flip target non-empty
    int flips = 1 + static_cast<int>(rng.next_below(5));
    for (int f = 0; f < flips; ++f) {
      wire[rng.next_below(wire.size())] ^= static_cast<uint8_t>(1 + rng.next_below(255));
    }
    try {
      (void)dec.decode(wire.data(), wire.size(), arena);
      ++parsed;
    } catch (const DecodeError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, static_cast<size_t>(kIters));
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(parsed, 0u);  // many single-bit flips still parse (value changes)
  EXPECT_EQ(m.frames_in.value() - frames0, static_cast<uint64_t>(kIters));
  EXPECT_EQ(m.frames_in.value(), m.decoded.value() + m.rejected.value());
}

TEST(PbufFuzz, TruncationSweepNeverCrashes) {
  Rng rng(31);
  FormatPtr fmt = roster_format();
  DecodePlan dec(fmt);
  RecordArena arena;
  std::vector<uint8_t> wire = encode_sample(fmt, arena, rng);
  ASSERT_GT(wire.size(), 4u);
  size_t parsed = 0, rejected = 0;
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    RecordArena scratch;
    try {
      // A protobuf stream cut at a field boundary is a shorter valid
      // message, so truncation does not always reject — but it must never
      // crash, hang, or misreport the conservation counters.
      (void)dec.decode(wire.data(), cut, scratch);
      ++parsed;
    } catch (const DecodeError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, wire.size());
  EXPECT_GT(rejected, 0u);
  BridgeMetrics& m = bridge_metrics();
  EXPECT_EQ(m.frames_in.value(), m.decoded.value() + m.rejected.value());
}

TEST(PbufFuzz, RandomGarbageNeverCrashes) {
  Rng rng(90210);
  FormatPtr fmt = roster_format();
  DecodePlan dec(fmt);
  size_t parsed = 0, rejected = 0;
  constexpr int kIters = 400;
  for (int iter = 0; iter < kIters; ++iter) {
    std::vector<uint8_t> junk(rng.next_below(200));
    for (auto& b : junk) b = static_cast<uint8_t>(rng.next_below(256));
    RecordArena arena;
    try {
      (void)dec.decode(junk.data(), junk.size(), arena);
      ++parsed;
    } catch (const DecodeError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, static_cast<size_t>(kIters));
  EXPECT_GT(rejected, 0u);
}

TEST(PbufFuzz, NestedLengthOverflowRejected) {
  FormatPtr fmt = roster_format();
  DecodePlan dec(fmt);
  RecordArena arena;
  // members (field 2) claims 1000 payload bytes, frame holds 2.
  ByteBuffer wire;
  put_tag(wire, 2, WireType::kLengthDelimited);
  put_varint(wire, 1000);
  wire.append_u8(0);
  wire.append_u8(0);
  EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
}

TEST(PbufFuzz, InnerLengthCannotEscapeOuterMessage) {
  FormatPtr fmt = roster_format();
  DecodePlan dec(fmt);
  RecordArena arena;
  // A members element whose inner string claims bytes beyond the element's
  // own extent; the sub-reader must clamp to the element, not the frame.
  ByteBuffer inner;
  put_tag(inner, 1, WireType::kLengthDelimited);  // Member.name
  put_varint(inner, 200);                         // lies: extends past element
  ByteBuffer wire;
  put_tag(wire, 2, WireType::kLengthDelimited);
  put_varint(wire, inner.size());
  wire.append(inner.data(), inner.size());
  // Plenty of trailing frame bytes the inner length tries to reach into.
  for (int i = 0; i < 300; ++i) wire.append_u8(0x08);
  EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
}

TEST(PbufFuzz, DeepNestingHitsDepthCap) {
  // Build a .proto chain nested deeper than FormatDescriptor::kMaxNesting;
  // the format layer itself must refuse it (the decoder's own depth cap
  // then can never be reached through a valid plan).
  std::string src;
  constexpr int kDepth = 40;
  for (int i = kDepth; i >= 1; --i) {
    src += "message M" + std::to_string(i) + " { ";
    if (i < kDepth) src += "M" + std::to_string(i + 1) + " next = 1; ";
    src += "int32 x = 2; }\n";
  }
  EXPECT_THROW(parse_proto(src), Error);
}

TEST(PbufFuzz, OverlongVarintInsideFrameRejected) {
  FormatPtr fmt =
      parse_proto_message("message V { int64 x = 1; }", "V");
  DecodePlan dec(fmt);
  RecordArena arena;
  ByteBuffer wire;
  put_tag(wire, 1, WireType::kVarint);
  for (int i = 0; i < 11; ++i) wire.append_u8(0x80);
  wire.append_u8(0x00);
  EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
}

TEST(PbufFuzz, WireTypeMismatchRejected) {
  FormatPtr fmt =
      parse_proto_message("message W { int32 a = 1; string s = 2; }", "W");
  DecodePlan dec(fmt);
  RecordArena arena;
  {
    // int32 arriving as length-delimited.
    ByteBuffer wire;
    put_tag(wire, 1, WireType::kLengthDelimited);
    put_varint(wire, 1);
    wire.append_u8(7);
    EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
  }
  {
    // string arriving as varint.
    ByteBuffer wire;
    put_tag(wire, 2, WireType::kVarint);
    put_varint(wire, 7);
    EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
  }
}

TEST(PbufFuzz, RepeatedElementFloodIsBoundedByInput) {
  // A packed run of N zero bytes decodes to N elements — linear in input,
  // no amplification. 100k elements should decode fine and count exactly.
  FormatPtr fmt = parse_proto_message(
      "message P { repeated int32 xs = 1; }", "P");
  DecodePlan dec(fmt);
  RecordArena arena;
  constexpr size_t kN = 100000;
  ByteBuffer wire;
  put_tag(wire, 1, WireType::kLengthDelimited);
  put_varint(wire, kN);
  for (size_t i = 0; i < kN; ++i) wire.append_u8(0);
  void* rec = dec.decode(wire.data(), wire.size(), arena);
  EXPECT_EQ(RecordRef(rec, fmt).get_int("xs_count"), static_cast<int64_t>(kN));
}

TEST(PbufFuzz, TinyFrameCannotForceHugeRepeatedAllocation) {
  // A peer-learned descriptor controls element_stride, so a repeated
  // message whose element struct is huge would let a 2-byte empty
  // occurrence demand ~half a GB (grow_dyn_array's initial capacity is 8).
  // The per-frame decode byte budget must reject before allocating.
  constexpr uint32_t kHugeStride = 64u << 20;  // 64 MB per element
  FormatPtr big = FormatBuilder("Big", kHugeStride)
                      .add_int("x", 4, 0)
                      .with_pb_field(1)
                      .build();
  FormatPtr top = FormatBuilder("Top", 16)
                      .add_uint("items_count", 8, 0)
                      .add_dyn_array("items", big, "items_count", 8)
                      .with_pb_field(1)
                      .build();
  DecodePlan dec(top);
  BridgeMetrics& m = bridge_metrics();
  uint64_t rejected0 = m.rejected.value();
  RecordArena arena;
  ByteBuffer wire;
  put_tag(wire, 1, WireType::kLengthDelimited);
  put_varint(wire, 0);  // one empty occurrence: 2 wire bytes
  EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
  EXPECT_EQ(m.rejected.value(), rejected0 + 1);
  EXPECT_EQ(m.frames_in.value(), m.decoded.value() + m.rejected.value());
  EXPECT_LT(arena.bytes_allocated(), 1u << 20);  // the 512 MB never happened
}

TEST(PbufFuzz, EmptyOccurrenceFloodIsBudgetBounded) {
  // Moderate stride, many empty occurrences: each costs 2 wire bytes but
  // allocates ~1 KB of record. Total decoded bytes must stay proportional
  // to the payload, so the flood rejects instead of amplifying ~500x.
  FormatPtr elem = FormatBuilder("Elem", 1024)
                       .add_int("x", 4, 0)
                       .with_pb_field(1)
                       .build();
  FormatPtr top = FormatBuilder("Top", 16)
                      .add_uint("items_count", 8, 0)
                      .add_dyn_array("items", elem, "items_count", 8)
                      .with_pb_field(1)
                      .build();
  DecodePlan dec(top);
  RecordArena arena;
  ByteBuffer wire;
  for (int i = 0; i < 4096; ++i) {
    put_tag(wire, 1, WireType::kLengthDelimited);
    put_varint(wire, 0);
  }
  EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
  BridgeMetrics& m = bridge_metrics();
  EXPECT_EQ(m.frames_in.value(), m.decoded.value() + m.rejected.value());
}

TEST(PbufFuzz, EmbeddedNulInStringRejected) {
  FormatPtr fmt = parse_proto_message("message S { string s = 1; }", "S");
  DecodePlan dec(fmt);
  RecordArena arena;
  ByteBuffer wire;
  put_tag(wire, 1, WireType::kLengthDelimited);
  put_varint(wire, 3);
  wire.append("a\0b", 3);
  EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
}

// ---------------------------------------------------------------------------
// Packed runs: the decoder measures a run, grows its array once, and copies
// byte-identical runs (doubles, fixed ints of the wire's width) in one go.
// ---------------------------------------------------------------------------

FormatPtr packed_format() {
  return parse_proto_message(
      "message Packed { repeated double px = 1; repeated sfixed32 ids = 2;\n"
      "                 repeated int32 xs = 3; repeated float fs = 4; }\n",
      "Packed");
}

/// Append a length-delimited occurrence of field `number` holding `bytes`.
void put_run(ByteBuffer& wire, uint32_t number, const void* bytes, size_t size) {
  put_tag(wire, number, WireType::kLengthDelimited);
  put_varint(wire, size);
  wire.append(bytes, size);
}

/// Decode `wire` expecting a DecodeError that is counted as one rejection.
void expect_rejected(const DecodePlan& dec, const ByteBuffer& wire, RecordArena& arena) {
  BridgeMetrics& m = bridge_metrics();
  uint64_t rejected0 = m.rejected.value();
  EXPECT_THROW(dec.decode(wire.data(), wire.size(), arena), DecodeError);
  EXPECT_EQ(m.rejected.value(), rejected0 + 1);
  EXPECT_EQ(m.frames_in.value(), m.decoded.value() + m.rejected.value());
}

TEST(PbufBulk, RunNotAWholeNumberOfElementsRejected) {
  DecodePlan dec(packed_format());
  RecordArena arena;
  const uint8_t bytes[12] = {};
  for (uint32_t number : {1u, 2u}) {  // 12 bytes: 1.5 doubles; 6 bytes: 1.5 sfixed32
    ByteBuffer wire;
    put_run(wire, number, bytes, number == 1 ? 12 : 6);
    expect_rejected(dec, wire, arena);
  }
}

TEST(PbufBulk, PackedRunsAndUnpackedOccurrencesAppendInWireOrder) {
  FormatPtr fmt = packed_format();
  DecodePlan dec(fmt);
  ByteBuffer wire;
  const double a[] = {1.0, 2.0};
  const double b[] = {4.0, 5.0, 6.0};
  put_run(wire, 1, a, sizeof a);
  put_tag(wire, 1, WireType::kFixed64);
  put_fixed64(wire, std::bit_cast<uint64_t>(3.0));
  put_run(wire, 1, b, sizeof b);
  const int32_t ids[] = {-1, 2};
  put_run(wire, 2, ids, sizeof ids);  // another field between runs of px
  put_tag(wire, 1, WireType::kFixed64);
  put_fixed64(wire, std::bit_cast<uint64_t>(7.0));
  put_run(wire, 1, a, 0);  // an empty run appends nothing
  put_tag(wire, 2, WireType::kFixed32);
  put_fixed32(wire, 3);
  // Enough further single doubles to grow the array past its exact size.
  for (int i = 8; i <= 20; ++i) {
    put_tag(wire, 1, WireType::kFixed64);
    put_fixed64(wire, std::bit_cast<uint64_t>(static_cast<double>(i)));
  }
  RecordArena arena;
  void* rec = dec.decode(wire.data(), wire.size(), arena);
  RecordRef r(rec, fmt);
  ASSERT_EQ(r.get_int("px_count"), 20);
  const auto* px = static_cast<const double*>(pbio::read_pointer(rec, *fmt->find_field("px")));
  for (int i = 0; i < 20; ++i) EXPECT_EQ(px[i], i + 1.0) << i;
  ASSERT_EQ(r.get_int("ids_count"), 3);
  const auto* id = static_cast<const int32_t*>(pbio::read_pointer(rec, *fmt->find_field("ids")));
  EXPECT_EQ(id[0], -1);
  EXPECT_EQ(id[1], 2);
  EXPECT_EQ(id[2], 3);
}

TEST(PbufBulk, RunOverBudgetRejectedBeforeTheArenaGrows) {
  // Repeated-message elements spend the frame's whole decode budget
  // (64 KB + 64 bytes per payload byte, docs/PBUF.md), so the packed run
  // that follows them is over it. The control frame carries an unknown
  // field of the same size in place of the run: same budget, same
  // allocations, and it decodes.
  constexpr uint64_t kN = 1000;
  constexpr uint64_t kPayload = 2 + 1 + 2 + 8 * kN;  // empty element, then the run
  constexpr uint64_t kBudget = 64 * 1024 + 64 * kPayload;
  constexpr uint32_t kStride = kBudget / 64 * 8;  // 8 elements spend all but < 64 bytes
  FormatPtr elem = FormatBuilder("Elem", kStride).add_int("x", 4, 0).with_pb_field(1).build();
  FormatPtr top = FormatBuilder("Top", 32)
                      .add_uint("items_count", 8, 0)
                      .add_dyn_array("items", elem, "items_count", 8)
                      .with_pb_field(1)
                      .add_uint("px_count", 8, 16)
                      .add_dyn_array("px", pbio::FieldKind::kFloat, 8, "px_count", 24)
                      .with_pb_field(2)
                      .build();
  DecodePlan dec(top);
  std::vector<double> px(kN, 1.5);
  auto frame = [&](uint32_t run_number) {
    ByteBuffer wire;
    put_run(wire, 1, nullptr, 0);
    put_run(wire, run_number, px.data(), px.size() * sizeof(double));
    EXPECT_EQ(wire.size(), kPayload);
    return wire;
  };
  // One chunk holds the record and the elements; the run would need another.
  constexpr size_t kChunk = 8 * size_t{kStride} + 4096;

  RecordArena control(kChunk);
  EXPECT_NO_THROW(dec.decode(frame(3).data(), kPayload, control));
  EXPECT_EQ(control.bytes_allocated(), kChunk);

  BridgeMetrics& m = bridge_metrics();
  uint64_t rejected0 = m.rejected.value();
  RecordArena arena(kChunk);
  std::string what;
  try {
    dec.decode(frame(2).data(), kPayload, arena);
  } catch (const DecodeError& e) {
    what = e.what();
  }
  EXPECT_NE(what.find("'px' exceeds the per-frame decode byte budget"), std::string::npos)
      << what;
  EXPECT_EQ(m.rejected.value(), rejected0 + 1);
  EXPECT_EQ(arena.bytes_allocated(), kChunk);
}

TEST(PbufBulk, ZeroLengthRunLeavesTheCountUnchanged) {
  FormatPtr fmt = packed_format();
  DecodePlan dec(fmt);
  RecordArena arena;
  for (uint32_t number : {1u, 2u, 3u, 4u}) {
    ByteBuffer wire;
    put_run(wire, number, nullptr, 0);
    void* rec = dec.decode(wire.data(), wire.size(), arena);
    const auto& fd = fmt->fields()[2 * (number - 1) + 1];  // count, then array
    EXPECT_EQ(pbio::read_scalar_i64(rec, *fmt->find_field(fd.length_field)), 0) << fd.name;
    EXPECT_EQ(pbio::read_pointer(rec, fd), nullptr) << fd.name;
  }
  ByteBuffer wire;
  put_tag(wire, 3, WireType::kVarint);
  put_varint(wire, 5);
  put_run(wire, 3, nullptr, 0);
  void* rec = dec.decode(wire.data(), wire.size(), arena);
  EXPECT_EQ(RecordRef(rec, fmt).get_int("xs_count"), 1);
}

TEST(PbufBulk, VarintRunEndingMidVarintRejected) {
  DecodePlan dec(packed_format());
  RecordArena arena;
  const uint8_t run[] = {0x01, 0x96, 0x01, 0x80};  // 1, 150, then a cut varint
  ByteBuffer wire;
  put_run(wire, 3, run, sizeof run);
  expect_rejected(dec, wire, arena);
}

TEST(PbufBulk, SignallingNanKeepsItsDecodedBits) {
  // A packed float goes element by element through float -> double ->
  // float, which quiets a signalling NaN (the bits every PBIO float
  // accessor produces); a packed double is copied bit for bit.
  FormatPtr fmt = packed_format();
  const uint32_t fs[] = {0x7fa00001u, 0xffa00000u, 0x3fc00000u};
  const uint64_t px[] = {0x7ff4000000000001ull, 0x3ff8000000000000ull};
  ByteBuffer wire;
  put_run(wire, 4, fs, sizeof fs);
  put_run(wire, 1, px, sizeof px);
  RecordArena arena;
  void* rec = DecodePlan(fmt).decode(wire.data(), wire.size(), arena);
  const auto* f = static_cast<const uint32_t*>(pbio::read_pointer(rec, *fmt->find_field("fs")));
  EXPECT_EQ(f[0], 0x7fe00001u);
  EXPECT_EQ(f[1], 0xffe00000u);
  EXPECT_EQ(f[2], 0x3fc00000u);
  const auto* d = static_cast<const uint64_t*>(pbio::read_pointer(rec, *fmt->find_field("px")));
  EXPECT_EQ(d[0], 0x7ff4000000000001ull);
  EXPECT_EQ(d[1], 0x3ff8000000000000ull);
}

}  // namespace
}  // namespace morph::pbuf
