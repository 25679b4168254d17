// Protobuf interop backend: wire codec, schema import, and bridge plans.
//
// The round-trip differential suite replays the committed examples/proto
// corpus: every record is encoded to protobuf bytes, re-decoded, and
// compared field-by-field; the hostile-input counterpart lives in
// test_pbuf_hostile.cpp.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "pbio/randgen.hpp"
#include "pbio/record.hpp"
#include "pbio/registry.hpp"
#include "pbuf/bridge.hpp"
#include "pbuf/schema.hpp"
#include "pbuf/wire.hpp"
#include "pbuf_records.hpp"

namespace morph::pbuf {
namespace {

using pbio::FieldDescriptor;
using pbio::FieldKind;
using pbio::FormatBuilder;
using pbio::FormatDescriptor;
using pbio::FormatPtr;
using pbio::RecordRef;
using testing::expect_records_equal;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string corpus(const std::string& name) { return read_file(MORPH_PROTO_DIR "/" + name); }

/// Encode -> decode -> compare, returning the re-decoded record.
void* round_trip(const FormatPtr& fmt, const void* record, RecordArena& arena) {
  EncodePlan enc(fmt);
  DecodePlan dec(fmt);
  ByteBuffer wire;
  enc.encode(record, wire);
  void* back = dec.decode(wire.data(), wire.size(), arena);
  expect_records_equal(*fmt, record, back);
  return back;
}

// ---------------------------------------------------------------------------
// Wire primitives
// ---------------------------------------------------------------------------

TEST(PbufWire, VarintRoundTrip) {
  const uint64_t cases[] = {0,   1,    127,        128,        300,       16383, 16384,
                            1u << 21, 1ull << 35, 1ull << 56, ~0ull >> 1, ~0ull};
  for (uint64_t v : cases) {
    ByteBuffer out;
    put_varint(out, v);
    EXPECT_EQ(out.size(), varint_size(v)) << v;
    PbReader in(out.data(), out.size());
    EXPECT_EQ(in.varint(), v);
    EXPECT_TRUE(in.at_end());
  }
}

TEST(PbufWire, ZigzagProperties) {
  const int64_t cases[] = {0, -1, 1, -2, 2, 0x7FFFFFFF, -0x80000000ll,
                           std::numeric_limits<int64_t>::max(),
                           std::numeric_limits<int64_t>::min()};
  for (int64_t v : cases) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v) << v;
  }
  // Small magnitudes map to small codes (the whole point of zigzag).
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
}

TEST(PbufWire, TagRoundTrip) {
  ByteBuffer out;
  put_tag(out, 1, WireType::kVarint);
  put_tag(out, 2, WireType::kLengthDelimited);
  put_tag(out, 536870911, WireType::kFixed64);  // max field number
  PbReader in(out.data(), out.size());
  auto t1 = in.tag();
  EXPECT_EQ(t1.field, 1u);
  EXPECT_EQ(t1.wt, WireType::kVarint);
  auto t2 = in.tag();
  EXPECT_EQ(t2.field, 2u);
  EXPECT_EQ(t2.wt, WireType::kLengthDelimited);
  auto t3 = in.tag();
  EXPECT_EQ(t3.field, 536870911u);
  EXPECT_EQ(t3.wt, WireType::kFixed64);
}

TEST(PbufWire, RejectsFieldNumberZeroAndBadWireTypes) {
  for (uint8_t raw : {uint8_t{0x00}, uint8_t{0x02}}) {  // field 0, any wt
    PbReader in(&raw, 1);
    EXPECT_THROW(in.tag(), DecodeError);
  }
  for (uint64_t wt : {3u, 4u, 6u, 7u}) {  // group start/end, reserved
    ByteBuffer out;
    put_varint(out, (1u << 3) | wt);
    PbReader in(out.data(), out.size());
    EXPECT_THROW(in.tag(), DecodeError) << wt;
  }
}

TEST(PbufWire, OverlongVarintRejected) {
  // 10 bytes, all continuation: claims an 11th byte.
  std::vector<uint8_t> bytes(10, 0x80);
  {
    PbReader in(bytes.data(), bytes.size());
    EXPECT_THROW(in.varint(), DecodeError);
  }
  // 10th byte with payload bits above bit 63 set.
  bytes.assign(9, 0x80);
  bytes.push_back(0x02);
  {
    PbReader in(bytes.data(), bytes.size());
    EXPECT_THROW(in.varint(), DecodeError);
  }
  // Canonical max: 9 continuations then 0x01 = 2^63, fine.
  bytes.assign(9, 0xFF);
  bytes.push_back(0x01);
  {
    PbReader in(bytes.data(), bytes.size());
    EXPECT_EQ(in.varint(), ~0ull);
  }
}

TEST(PbufWire, TruncatedVarintRejected) {
  std::vector<uint8_t> bytes = {0x80, 0x80};
  PbReader in(bytes.data(), bytes.size());
  EXPECT_THROW(in.varint(), DecodeError);
}

TEST(PbufWire, LengthOverflowRejected) {
  ByteBuffer out;
  put_varint(out, 100);  // claims 100 bytes follow
  out.append_u8(0);
  PbReader in(out.data(), out.size());
  EXPECT_THROW(in.length_delimited(), DecodeError);
}

// ---------------------------------------------------------------------------
// Schema import
// ---------------------------------------------------------------------------

TEST(PbufSchema, ImportsSensorReading) {
  FormatPtr fmt = parse_proto_message(corpus("sensor.proto"), "SensorReading");
  EXPECT_EQ(fmt->name(), "SensorReading");
  const auto* station = fmt->find_field("station");
  ASSERT_NE(station, nullptr);
  EXPECT_EQ(station->kind, FieldKind::kInt);
  EXPECT_EQ(station->size, 4u);
  EXPECT_EQ(station->pb_number(), 1u);
  const auto* label = fmt->find_field("label");
  ASSERT_NE(label, nullptr);
  EXPECT_EQ(label->kind, FieldKind::kString);
  EXPECT_EQ(label->pb_number(), 2u);
  const auto* samples = fmt->find_field("samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_EQ(samples->kind, FieldKind::kDynArray);
  EXPECT_EQ(samples->element_kind, FieldKind::kFloat);
  EXPECT_EQ(samples->element_size, 4u);
  EXPECT_EQ(samples->pb_number(), 4u);
  // The synthesized count field is implied: present in the layout, absent
  // from the wire mapping.
  const auto* count = fmt->find_field("samples_count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->pb_field, 0u);
  EXPECT_TRUE(pbuf_encodable(*fmt));
}

TEST(PbufSchema, ImportsNestedAndRepeatedMessages) {
  auto fmts = parse_proto(corpus("roster.proto"));
  ASSERT_EQ(fmts.size(), 2u);
  EXPECT_EQ(fmts[0]->name(), "Member");
  FormatPtr roster = fmts[1];
  EXPECT_EQ(roster->name(), "Roster");
  const auto* members = roster->find_field("members");
  ASSERT_NE(members, nullptr);
  EXPECT_EQ(members->kind, FieldKind::kDynArray);
  ASSERT_NE(members->element_format, nullptr);
  EXPECT_EQ(members->element_format->name(), "Member");
  EXPECT_EQ(members->pb_number(), 2u);
  EXPECT_TRUE(pbuf_encodable(*roster));
}

TEST(PbufSchema, ImportsScalarVariants) {
  FormatPtr probe = parse_proto_message(corpus("telemetry.proto"), "Probe");
  const auto* delta = probe->find_field("delta");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->kind, FieldKind::kInt);
  EXPECT_NE(delta->pb_field & pbio::kPbZigzag, 0u);
  const auto* crc = probe->find_field("crc");
  ASSERT_NE(crc, nullptr);
  EXPECT_EQ(crc->kind, FieldKind::kUInt);
  EXPECT_NE(crc->pb_field & pbio::kPbFixed, 0u);
  const auto* armed = probe->find_field("armed");
  ASSERT_NE(armed, nullptr);
  EXPECT_EQ(armed->kind, FieldKind::kUInt);
  EXPECT_EQ(armed->size, 1u);
  const auto* origin = probe->find_field("origin");
  ASSERT_NE(origin, nullptr);
  EXPECT_EQ(origin->kind, FieldKind::kStruct);
  ASSERT_NE(origin->element_format, nullptr);
  EXPECT_EQ(origin->element_format->name(), "Origin");
}

TEST(PbufSchema, RejectsOutsideSubset) {
  EXPECT_THROW(parse_proto("syntax = \"proto2\"; message M { int32 a = 1; }"), FormatError);
  EXPECT_THROW(parse_proto("enum E { A = 0; }"), FormatError);
  EXPECT_THROW(parse_proto("message M { oneof o { int32 a = 1; } }"), FormatError);
  EXPECT_THROW(parse_proto("message M { map<int32, string> m = 1; }"), FormatError);
  EXPECT_THROW(parse_proto("message M { int32 a = 1; int32 b = 1; }"), FormatError);
  EXPECT_THROW(parse_proto("message M { int32 a = 0; }"), FormatError);
  EXPECT_THROW(parse_proto("message M { int32 a = 19500; }"), FormatError);
  EXPECT_THROW(parse_proto("message M { Unknown u = 1; }"), FormatError);
  EXPECT_THROW(parse_proto("message M { M m = 1; }"), FormatError);  // recursive
  EXPECT_THROW(parse_proto(""), FormatError);
}

TEST(PbufSchema, SiblingMessagesSeeEachOtherInEitherOrder) {
  auto fmts = parse_proto(
      "message Outer { Inner i = 1; }\n"
      "message Inner { int32 x = 1; }\n");
  ASSERT_EQ(fmts.size(), 2u);
  const auto* i = fmts[0]->find_field("i");
  ASSERT_NE(i, nullptr);
  EXPECT_EQ(i->element_format->name(), "Inner");
}

TEST(PbufSchema, AnnotateFieldNumbersPreservesLayout) {
  auto native = FormatBuilder("Native")
                    .add_int("a", 4)
                    .add_string("s")
                    .add_uint("xs_count", 4)
                    .add_dyn_array("xs", FieldKind::kInt, 4, "xs_count")
                    .build();
  FormatPtr ann = annotate_field_numbers(*native);
  EXPECT_EQ(ann->struct_size(), native->struct_size());
  EXPECT_EQ(ann->field_count(), native->field_count());
  for (size_t i = 0; i < native->field_count(); ++i) {
    EXPECT_EQ(ann->field_at(i).offset, native->field_at(i).offset);
  }
  EXPECT_EQ(ann->find_field("a")->pb_number(), 1u);
  EXPECT_EQ(ann->find_field("s")->pb_number(), 2u);
  EXPECT_EQ(ann->find_field("xs_count")->pb_field, 0u);  // implied
  EXPECT_EQ(ann->find_field("xs")->pb_number(), 3u);
  EXPECT_TRUE(pbuf_encodable(*ann));
  EXPECT_FALSE(pbuf_encodable(*native));
  // pb metadata is part of the identity, but only when present.
  EXPECT_NE(ann->fingerprint(), native->fingerprint());
  EXPECT_EQ(ann->shape_fingerprint(), native->shape_fingerprint());
}

TEST(PbufSchema, AnnotateSkipsExplicitlyTakenNumbers) {
  // Auto-assignment must dodge numbers claimed explicitly: with "a" pinned
  // to pb=2, the unnumbered fields get 1 and 3, never a duplicate 2.
  auto native = FormatBuilder("Native")
                    .add_int("a", 4)
                    .with_pb_field(2)
                    .add_int("b", 4)
                    .add_int("c", 4)
                    .build();
  FormatPtr ann = annotate_field_numbers(*native);
  EXPECT_EQ(ann->find_field("a")->pb_number(), 2u);
  EXPECT_EQ(ann->find_field("b")->pb_number(), 1u);
  EXPECT_EQ(ann->find_field("c")->pb_number(), 3u);
  EXPECT_TRUE(pbuf_encodable(*ann));
}

TEST(PbufSchema, DescriptorSerializationCarriesPbNumbers) {
  FormatPtr fmt = parse_proto_message(corpus("roster.proto"), "Roster");
  ByteBuffer buf;
  fmt->serialize(buf);
  ByteReader r(buf.data(), buf.size());
  FormatPtr back = FormatDescriptor::deserialize(r);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(back->identical_to(*fmt));
  EXPECT_EQ(back->fingerprint(), fmt->fingerprint());
  EXPECT_EQ(back->find_field("members")->pb_number(), 2u);
  EXPECT_TRUE(pbuf_encodable(*back));
}

TEST(PbufSchema, RegistryServesImportedFormats) {
  pbio::FormatRegistry reg;
  FormatPtr fmt = parse_proto_message(corpus("sensor.proto"), "SensorReading");
  reg.register_format(fmt);
  EXPECT_EQ(reg.by_fingerprint(fmt->fingerprint()), fmt);
}

// ---------------------------------------------------------------------------
// Bridge round trips
// ---------------------------------------------------------------------------

TEST(PbufBridge, SensorReadingRoundTrip) {
  FormatPtr fmt = parse_proto_message(corpus("sensor.proto"), "SensorReading");
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  RecordRef r(rec, fmt);
  r.set_int("station", 42);
  r.set_string("label", "rooftop-a", arena);
  r.set_float("value", 21.75);
  r.set_int("flags", 0x13);
  const auto* samples = fmt->find_field("samples");
  for (uint64_t i = 0; i < 5; ++i) {
    auto* base = static_cast<float*>(pbio::grow_dyn_array(rec, *samples, arena, i));
    base[i] = 0.5f * static_cast<float>(i) - 1.0f;
  }
  r.set_int("samples_count", 5);
  round_trip(fmt, rec, arena);
}

TEST(PbufBridge, RosterRoundTrip) {
  FormatPtr fmt = parse_proto_message(corpus("roster.proto"), "Roster");
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  RecordRef r(rec, fmt);
  r.set_string("channel", "alerts", arena);
  r.set_int("epoch", 7710954);
  const auto* members = fmt->find_field("members");
  uint32_t stride = members->element_stride();
  for (uint64_t i = 0; i < 3; ++i) {
    auto* base = static_cast<uint8_t*>(pbio::grow_dyn_array(rec, *members, arena, i));
    RecordRef m(base + i * stride, members->element_format);
    m.set_string("name", "member-" + std::to_string(i), arena);
    m.set_string("host", i == 1 ? "" : "host" + std::to_string(i), arena);
    m.set_int("port", 9000 + static_cast<int64_t>(i));
  }
  r.set_int("members_count", 3);
  const auto* shards = fmt->find_field("shard_ids");
  for (uint64_t i = 0; i < 4; ++i) {
    auto* base = static_cast<int32_t*>(pbio::grow_dyn_array(rec, *shards, arena, i));
    base[i] = static_cast<int32_t>(i * 100) - 150;  // include negatives and 0? -150,-50,50,150
  }
  r.set_int("shard_ids_count", 4);
  round_trip(fmt, rec, arena);
}

TEST(PbufBridge, ProbeScalarVariantsRoundTrip) {
  FormatPtr fmt = parse_proto_message(corpus("telemetry.proto"), "Probe");
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  RecordRef r(rec, fmt);
  r.set_int("delta", -12345);
  r.set_int("wide_delta", -3000000000ll);
  r.set_int("crc", 0xDEADBEEF);
  r.set_int("stamp", static_cast<int64_t>(0xFEEDFACECAFEBEEFull));
  r.set_int("bias", -7);
  r.set_int("drift", -1234567890123ll);
  r.set_int("armed", 1);
  r.set_string("payload", "abc", arena);
  r.set_float("ratio", 0.25);
  r.get_struct("origin").set_string("node", "n1", arena);
  r.get_struct("origin").set_int("boot_id", 99);
  round_trip(fmt, rec, arena);
}

TEST(PbufBridge, ZeroRecordEncodesEmptyAndRoundTrips) {
  FormatPtr fmt = parse_proto_message(corpus("sensor.proto"), "SensorReading");
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  EncodePlan enc(fmt);
  ByteBuffer wire;
  EXPECT_EQ(enc.encode(rec, wire), 0u);  // proto3: all-default message is empty
  DecodePlan dec(fmt);
  void* back = dec.decode(wire.data(), wire.size(), arena);
  expect_records_equal(*fmt, rec, back);
}

TEST(PbufBridge, NegativeIntUsesTenByteVarintAndZigzagStaysShort) {
  FormatPtr f = FormatBuilder("N")
                    .add_int("plain", 8)
                    .with_pb_field(1)
                    .add_int("zz", 8)
                    .with_pb_field(2 | pbio::kPbZigzag)
                    .build();
  RecordArena arena;
  void* rec = pbio::alloc_record(*f, arena);
  RecordRef r(rec, f);
  r.set_int("plain", -1);
  r.set_int("zz", -1);
  ByteBuffer wire;
  EncodePlan(f).encode(rec, wire);
  // tag(1) + 10-byte varint for plain, tag(1) + 1-byte zigzag for zz.
  EXPECT_EQ(wire.size(), 1 + 10 + 1 + 1u);
  void* back = DecodePlan(f).decode(wire.data(), wire.size(), arena);
  expect_records_equal(*f, rec, back);
}

TEST(PbufBridge, RandomRecordsRoundTripOverCorpus) {
  Rng rng(4242);
  for (const char* file : {"sensor.proto", "roster.proto", "telemetry.proto"}) {
    for (FormatPtr& fmt : parse_proto(corpus(file))) {
      for (int iter = 0; iter < 25; ++iter) {
        RecordArena arena;
        void* rec = pbio::random_record(rng, fmt, arena);
        round_trip(fmt, rec, arena);
      }
    }
  }
}

TEST(PbufBridge, DecodeAppliesDeclaredDefaults) {
  FormatPtr f = FormatBuilder("D")
                    .add_int("a", 4)
                    .with_pb_field(1)
                    .with_default(int64_t{77})
                    .add_string("s")
                    .with_pb_field(2)
                    .with_default(std::string("fallback"))
                    .build();
  RecordArena arena;
  DecodePlan dec(f);
  void* rec = dec.decode(nullptr, 0, arena);  // empty message: all defaults
  RecordRef r(rec, f);
  EXPECT_EQ(r.get_int("a"), 77);
  EXPECT_EQ(r.get_string("s"), "fallback");
}

TEST(PbufBridge, UnknownFieldsSkippedDeterministically) {
  FormatPtr f = FormatBuilder("U").add_int("a", 4).with_pb_field(1).build();
  // field 1 = 5, unknown field 9 (varint), unknown field 10 (bytes).
  ByteBuffer wire;
  put_tag(wire, 1, WireType::kVarint);
  put_varint(wire, 5);
  put_tag(wire, 9, WireType::kVarint);
  put_varint(wire, 1234567);
  put_tag(wire, 10, WireType::kLengthDelimited);
  put_varint(wire, 3);
  wire.append("xyz", 3);
  DecodePlan dec(f);
  uint64_t unknown_before = bridge_metrics().unknown_fields.value();
  RecordArena arena;
  void* r1 = dec.decode(wire.data(), wire.size(), arena);
  void* r2 = dec.decode(wire.data(), wire.size(), arena);
  EXPECT_EQ(RecordRef(r1, f).get_int("a"), 5);
  expect_records_equal(*f, r1, r2);
  EXPECT_EQ(bridge_metrics().unknown_fields.value(), unknown_before + 4);
}

TEST(PbufBridge, UnpackedRepeatedScalarsAccepted) {
  FormatPtr f = FormatBuilder("R")
                    .add_uint("xs_count", 4)
                    .add_dyn_array("xs", FieldKind::kInt, 4, "xs_count")
                    .build();
  f = annotate_field_numbers(*f);
  const auto* xs = f->find_field("xs");
  // Writers may emit repeated scalars unpacked (one tag per element);
  // decoders must accept both. Interleave the two styles.
  ByteBuffer wire;
  put_tag(wire, xs->pb_number(), WireType::kVarint);
  put_varint(wire, 10);
  ByteBuffer packed;
  put_varint(packed, 20);
  put_varint(packed, 30);
  put_tag(wire, xs->pb_number(), WireType::kLengthDelimited);
  put_varint(wire, packed.size());
  wire.append(packed.data(), packed.size());
  put_tag(wire, xs->pb_number(), WireType::kVarint);
  put_varint(wire, 40);
  RecordArena arena;
  void* rec = DecodePlan(f).decode(wire.data(), wire.size(), arena);
  RecordRef r(rec, f);
  EXPECT_EQ(r.get_int("xs_count"), 4);
  const auto* base = static_cast<const int32_t*>(pbio::read_pointer(rec, *xs));
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(base[0], 10);
  EXPECT_EQ(base[1], 20);
  EXPECT_EQ(base[2], 30);
  EXPECT_EQ(base[3], 40);
}

TEST(PbufBridge, ConservationLawHolds) {
  BridgeMetrics& m = bridge_metrics();
  FormatPtr f = FormatBuilder("C").add_int("a", 4).with_pb_field(1).build();
  DecodePlan dec(f);
  RecordArena arena;
  // A mix of good and bad frames.
  ByteBuffer good;
  put_tag(good, 1, WireType::kVarint);
  put_varint(good, 9);
  std::vector<uint8_t> bad = {0x80, 0x80};  // truncated varint tag
  for (int i = 0; i < 10; ++i) {
    (void)dec.decode(good.data(), good.size(), arena);
    EXPECT_THROW(dec.decode(bad.data(), bad.size(), arena), DecodeError);
  }
  EXPECT_EQ(m.frames_in.value(), m.decoded.value() + m.rejected.value());
}

}  // namespace
}  // namespace morph::pbuf
