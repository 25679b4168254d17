// Encode/decode round trips: bound C++ structs (the paper's Figure 2 usage),
// in-place fast-path decoding, strings, nested structs, dynamic arrays, and
// hostile-input rejection.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "pbio/decode.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/encode.hpp"
#include "pbio/randgen.hpp"
#include "pbio/record.hpp"

namespace morph::pbio {
namespace {

// --- The paper's Figure 2 example -----------------------------------------

struct LoadMsg {
  int cpu;
  int memory;
  int network;
};

FormatPtr load_format() {
  return FormatBuilder("Msg", sizeof(LoadMsg))
      .add_int("load", 4, offsetof(LoadMsg, cpu))
      .add_int("mem", 4, offsetof(LoadMsg, memory))
      .add_int("net", 4, offsetof(LoadMsg, network))
      .build();
}

TEST(EncodeDecode, Figure2FlatStructRoundTrip) {
  auto fmt = load_format();
  LoadMsg msg{42, -7, 1000000};

  ByteBuffer wire;
  Encoder enc(fmt);
  size_t n = enc.encode(&msg, wire);
  EXPECT_EQ(n, wire.size());
  EXPECT_EQ(n, kWireHeaderSize + sizeof(LoadMsg));  // header + raw struct

  Decoder dec(fmt);
  auto* back = static_cast<LoadMsg*>(dec.decode_in_place(wire.data(), wire.size()));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->cpu, 42);
  EXPECT_EQ(back->memory, -7);
  EXPECT_EQ(back->network, 1000000);
}

TEST(EncodeDecode, HeaderOverheadUnder30Bytes) {
  // Table 1's claim: "PBIO encoding adds less than 30 bytes".
  auto fmt = load_format();
  LoadMsg msg{1, 2, 3};
  ByteBuffer wire;
  Encoder(fmt).encode(&msg, wire);
  EXPECT_LT(wire.size() - sizeof(LoadMsg), 30u);
}

TEST(EncodeDecode, PeekHeaderReportsFormatAndSize) {
  auto fmt = load_format();
  LoadMsg msg{0, 0, 0};
  ByteBuffer wire;
  Encoder(fmt).encode(&msg, wire);
  WireInfo info = peek_header(wire.data(), wire.size());
  EXPECT_EQ(info.fingerprint, fmt->fingerprint());
  EXPECT_EQ(info.total_size, wire.size());
  EXPECT_EQ(info.order, host_byte_order());
}

// --- Strings and dynamic arrays -------------------------------------------

struct Contact {
  const char* info;
  int id;
};

struct Roster {
  int member_count;
  Contact* members;
  const char* title;
};

FormatPtr contact_format() {
  return FormatBuilder("Contact", sizeof(Contact))
      .add_string("info", offsetof(Contact, info))
      .add_int("ID", 4, offsetof(Contact, id))
      .build();
}

FormatPtr roster_format() {
  return FormatBuilder("Roster", sizeof(Roster))
      .add_int("member_count", 4, offsetof(Roster, member_count))
      .add_dyn_array("members", contact_format(), "member_count",
                     offsetof(Roster, members))
      .add_string("title", offsetof(Roster, title))
      .build();
}

TEST(EncodeDecode, PointerDataRoundTripInPlace) {
  Contact members[3] = {{"alice@host:1", 1}, {"bob@host:2", 2}, {"carol@host:3", 3}};
  Roster roster{3, members, "my channel"};
  auto fmt = roster_format();

  ByteBuffer wire;
  Encoder(fmt).encode(&roster, wire);

  Decoder dec(fmt);
  auto* back = static_cast<Roster*>(dec.decode_in_place(wire.data(), wire.size()));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->member_count, 3);
  EXPECT_STREQ(back->title, "my channel");
  ASSERT_NE(back->members, nullptr);
  EXPECT_STREQ(back->members[0].info, "alice@host:1");
  EXPECT_EQ(back->members[2].id, 3);
  // The decoded record aliases the wire buffer: zero-copy.
  EXPECT_GE(reinterpret_cast<uint8_t*>(back->members), wire.data());
  EXPECT_LT(reinterpret_cast<uint8_t*>(back->members), wire.data() + wire.size());
}

struct Tagged {
  const char* tag;
  int32_t n;
  int64_t* xs;
};

TEST(EncodeDecode, AppendAfterAFrameHeaderMatchesEncode) {
  // A message appended after other bytes (a 5-byte frame header, say) has
  // its pointers and padding relative to its own first byte: the 4-byte tag
  // leaves the array 4 bytes short of alignment within the message but 1
  // byte short within the buffer, and the bytes must equal encode()'s.
  auto fmt = FormatBuilder("Tagged", sizeof(Tagged))
                 .add_string("tag", offsetof(Tagged, tag))
                 .add_int("n", 4, offsetof(Tagged, n))
                 .add_dyn_array("xs", FieldKind::kInt, 8, "n", offsetof(Tagged, xs))
                 .build();
  int64_t xs[2] = {7, -9};
  Tagged rec{"abc", 2, xs};
  Encoder enc(fmt);
  ByteBuffer alone;
  const size_t n = enc.encode(&rec, alone);
  ByteBuffer framed;
  framed.append("hdr!!", 5);
  EXPECT_EQ(enc.append(&rec, framed), n);
  ASSERT_EQ(framed.size(), 5 + n);
  EXPECT_EQ(std::memcmp(framed.data() + 5, alone.data(), n), 0);
}

TEST(EncodeDecode, StaticStringArraysRoundTrip) {
  struct Tagged {
    int32_t id;
    const char* tags[3];
  };
  auto fmt = FormatBuilder("Tagged", sizeof(Tagged))
                 .add_int("id", 4, offsetof(Tagged, id))
                 .add_static_array("tags", FieldKind::kString, 0, 3, offsetof(Tagged, tags))
                 .build();
  Tagged rec{9, {"alpha", nullptr, "gamma"}};
  ByteBuffer wire;
  Encoder(fmt).encode(&rec, wire);

  // In-place path.
  Decoder dec(fmt);
  ByteBuffer copy;
  copy.append(wire.data(), wire.size());
  auto* inplace = static_cast<Tagged*>(dec.decode_in_place(copy.data(), copy.size()));
  ASSERT_NE(inplace, nullptr);
  EXPECT_STREQ(inplace->tags[0], "alpha");
  EXPECT_EQ(inplace->tags[1], nullptr);
  EXPECT_STREQ(inplace->tags[2], "gamma");

  // Conversion path.
  RecordArena arena;
  auto* conv = static_cast<Tagged*>(dec.decode(wire.data(), wire.size(), fmt, arena));
  EXPECT_STREQ(conv->tags[2], "gamma");
  EXPECT_EQ(conv->tags[1], nullptr);
  EXPECT_EQ(conv->id, 9);

  // Foreign byte order.
  reorder_encoded(wire, *fmt);
  RecordArena arena2;
  auto* swapped = static_cast<Tagged*>(dec.decode(wire.data(), wire.size(), fmt, arena2));
  EXPECT_STREQ(swapped->tags[0], "alpha");
  EXPECT_EQ(swapped->id, 9);
}

TEST(EncodeDecode, DynArrayOfStringsInPlace) {
  struct Names {
    int32_t n;
    const char** names;
  };
  auto fmt = FormatBuilder("Names", sizeof(Names))
                 .add_int("n", 4, offsetof(Names, n))
                 .add_dyn_array("names", FieldKind::kString, 0, "n", offsetof(Names, names))
                 .build();
  const char* names[2] = {"first", "second"};
  Names rec{2, names};
  ByteBuffer wire;
  Encoder(fmt).encode(&rec, wire);
  Decoder dec(fmt);
  auto* back = static_cast<Names*>(dec.decode_in_place(wire.data(), wire.size()));
  ASSERT_NE(back, nullptr);
  EXPECT_STREQ(back->names[0], "first");
  EXPECT_STREQ(back->names[1], "second");
}

TEST(EncodeDecode, NullStringAndEmptyArray) {
  Roster roster{0, nullptr, nullptr};
  auto fmt = roster_format();
  ByteBuffer wire;
  Encoder(fmt).encode(&roster, wire);

  Decoder dec(fmt);
  auto* back = static_cast<Roster*>(dec.decode_in_place(wire.data(), wire.size()));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->member_count, 0);
  EXPECT_EQ(back->members, nullptr);
  EXPECT_EQ(back->title, nullptr);
}

TEST(EncodeDecode, DoubleInPlaceDecodeRejected) {
  Roster roster{0, nullptr, "x"};
  auto fmt = roster_format();
  ByteBuffer wire;
  Encoder(fmt).encode(&roster, wire);
  Decoder dec(fmt);
  ASSERT_NE(dec.decode_in_place(wire.data(), wire.size()), nullptr);
  EXPECT_THROW(dec.decode_in_place(wire.data(), wire.size()), DecodeError);
}

TEST(EncodeDecode, InPlaceRequiresExactFormat) {
  LoadMsg msg{1, 2, 3};
  ByteBuffer wire;
  Encoder(load_format()).encode(&msg, wire);
  Decoder dec(roster_format());
  EXPECT_EQ(dec.decode_in_place(wire.data(), wire.size()), nullptr);
}

// --- Conversion-plan path on the same format --------------------------------

TEST(EncodeDecode, ConversionPathMatchesInPlacePath) {
  Contact members[2] = {{"a", 10}, {"b", 20}};
  Roster roster{2, members, "t"};
  auto fmt = roster_format();
  ByteBuffer wire;
  Encoder(fmt).encode(&roster, wire);

  RecordArena arena;
  Decoder dec(fmt);
  auto* rec = static_cast<Roster*>(dec.decode(wire.data(), wire.size(), fmt, arena));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->member_count, 2);
  EXPECT_STREQ(rec->members[1].info, "b");
  EXPECT_EQ(rec->members[1].id, 20);
  EXPECT_STREQ(rec->title, "t");
  // This path copies: the record must not alias the wire buffer.
  EXPECT_TRUE(reinterpret_cast<uint8_t*>(rec) < wire.data() ||
              reinterpret_cast<uint8_t*>(rec) >= wire.data() + wire.size());
}

TEST(EncodeDecode, PlanIsCachedPerWireFormat) {
  auto fmt = roster_format();
  Decoder dec(fmt);
  EXPECT_EQ(dec.cached_plans(), 0u);
  dec.plan_for(fmt);
  dec.plan_for(fmt);
  EXPECT_EQ(dec.cached_plans(), 1u);
}

// --- Hostile input ----------------------------------------------------------

TEST(EncodeDecode, RejectsBadMagicAndTruncation) {
  Roster roster{0, nullptr, "x"};
  auto fmt = roster_format();
  ByteBuffer wire;
  Encoder(fmt).encode(&roster, wire);

  EXPECT_THROW(peek_header(wire.data(), 4), DecodeError);

  ByteBuffer bad;
  bad.append(wire.data(), wire.size());
  bad.data()[0] = 'X';
  EXPECT_THROW(peek_header(bad.data(), bad.size()), DecodeError);

  Decoder dec(fmt);
  EXPECT_THROW(dec.decode_in_place(wire.data(), kWireHeaderSize - 1), DecodeError);
}

TEST(EncodeDecode, RejectsOutOfRangeStringOffset) {
  Roster roster{0, nullptr, "hello"};
  auto fmt = roster_format();
  ByteBuffer wire;
  Encoder(fmt).encode(&roster, wire);

  // Corrupt the title offset slot to point far out of the body.
  size_t slot = kWireHeaderSize + offsetof(Roster, title);
  uint64_t evil = 1u << 20;
  wire.patch(slot, &evil, 8);
  Decoder dec(fmt);
  EXPECT_THROW(dec.decode_in_place(wire.data(), wire.size()), DecodeError);
}

TEST(EncodeDecode, RejectsUnterminatedString) {
  Roster roster{0, nullptr, "hello"};
  auto fmt = roster_format();
  ByteBuffer wire;
  Encoder(fmt).encode(&roster, wire);
  // Overwrite the trailing NUL (the last byte of the message).
  wire.data()[wire.size() - 1] = '!';
  Decoder dec(fmt);
  EXPECT_THROW(dec.decode_in_place(wire.data(), wire.size()), DecodeError);
}

TEST(EncodeDecode, RejectsOverlongArrayCount) {
  Contact members[1] = {{"a", 1}};
  Roster roster{1, members, "t"};
  auto fmt = roster_format();
  ByteBuffer wire;
  Encoder(fmt).encode(&roster, wire);
  // Claim a huge member count.
  int huge = 1 << 29;
  wire.patch(kWireHeaderSize + offsetof(Roster, member_count), &huge, 4);
  Decoder dec(fmt);
  EXPECT_THROW(dec.decode_in_place(wire.data(), wire.size()), DecodeError);

  RecordArena arena;
  Decoder dec2(fmt);
  // Re-encode cleanly, then corrupt again for the conversion path.
  ByteBuffer wire2;
  Encoder(fmt).encode(&roster, wire2);
  wire2.patch(kWireHeaderSize + offsetof(Roster, member_count), &huge, 4);
  EXPECT_THROW(dec2.decode(wire2.data(), wire2.size(), fmt, arena), DecodeError);
}

struct Samples {
  int64_t n;
  int64_t* xs;
  const char* label;
};

FormatPtr samples_format() {
  return FormatBuilder("Samples", sizeof(Samples))
      .add_int("n", 8, offsetof(Samples, n))
      .add_dyn_array("xs", FieldKind::kInt, 8, "n", offsetof(Samples, xs))
      .add_string("label", offsetof(Samples, label))
      .build();
}

TEST(EncodeDecode, InPlaceRejectsWrappingArrayCount) {
  // 2^61 eight-byte elements in a 2-element body: count * stride wraps to
  // 0, so the bound must divide, as the conversion plan's does.
  int64_t xs[2] = {1, 2};
  Samples rec{2, xs, "s"};
  auto fmt = samples_format();
  ByteBuffer wire;
  Encoder(fmt).encode(&rec, wire);
  const int64_t huge = int64_t{1} << 61;
  wire.patch(kWireHeaderSize + offsetof(Samples, n), &huge, 8);
  ByteBuffer copy;
  copy.append(wire.data(), wire.size());

  Decoder dec(fmt);
  EXPECT_THROW(dec.decode_in_place(wire.data(), wire.size()), DecodeError);
  RecordArena arena;
  EXPECT_THROW(dec.decode(copy.data(), copy.size(), fmt, arena), DecodeError);
}

TEST(EncodeDecode, InPlaceRejectsStringOverAFixedPartSlot) {
  // The label's offset aims one byte into the xs pointer slot. The copying
  // plan reads the slot's wire bytes; in place, the walk writes a host
  // pointer there, so the label would carry bytes of a heap address.
  int64_t xs[2] = {1, 2};
  Samples rec{2, xs, "hello"};
  auto fmt = samples_format();
  ByteBuffer wire;
  Encoder(fmt).encode(&rec, wire);
  wire.patch_u64(kWireHeaderSize + offsetof(Samples, label), offsetof(Samples, xs) + 1);
  ByteBuffer copy;
  copy.append(wire.data(), wire.size());

  Decoder dec(fmt);
  RecordArena arena;
  auto* conv = static_cast<Samples*>(dec.decode(copy.data(), copy.size(), fmt, arena));
  EXPECT_STREQ(conv->label,
               reinterpret_cast<const char*>(wire.data() + kWireHeaderSize +
                                             offsetof(Samples, xs) + 1));
  EXPECT_THROW(dec.decode_in_place(wire.data(), wire.size()), DecodeError);
}

TEST(EncodeDecode, InPlaceRejectsStringOverAnArrayOfStrings) {
  // Slots in the variable part: the title points into the element block
  // of a dynamic array of strings, whose slots the walk rewrites.
  struct Tags {
    int32_t n;
    const char** tags;
    const char* title;
  };
  auto fmt = FormatBuilder("Tags", sizeof(Tags))
                 .add_int("n", 4, offsetof(Tags, n))
                 .add_dyn_array("tags", FieldKind::kString, 0, "n", offsetof(Tags, tags))
                 .add_string("title", offsetof(Tags, title))
                 .build();
  const char* tags[2] = {"alpha", "beta"};
  Tags rec{2, tags, "title"};
  ByteBuffer wire;
  Encoder(fmt).encode(&rec, wire);
  uint64_t block;
  std::memcpy(&block, wire.data() + kWireHeaderSize + offsetof(Tags, tags), 8);
  wire.patch_u64(kWireHeaderSize + offsetof(Tags, title), block + 1);
  ByteBuffer copy;
  copy.append(wire.data(), wire.size());

  Decoder dec(fmt);
  RecordArena arena;
  EXPECT_NO_THROW(dec.decode(copy.data(), copy.size(), fmt, arena));
  EXPECT_THROW(dec.decode_in_place(wire.data(), wire.size()), DecodeError);
}

TEST(EncodeDecode, InPlaceAcceptsStringsSharingBytes) {
  // Overlapping strings rewrite no slot: the copying plan and the in-place
  // walk read the same bytes, so the frame still decodes in place.
  struct Pair {
    const char* a;
    const char* b;
  };
  auto fmt = FormatBuilder("Pair", sizeof(Pair))
                 .add_string("a", offsetof(Pair, a))
                 .add_string("b", offsetof(Pair, b))
                 .build();
  Pair rec{"shared", "other"};
  ByteBuffer wire;
  Encoder(fmt).encode(&rec, wire);
  uint64_t a_rel;
  std::memcpy(&a_rel, wire.data() + kWireHeaderSize + offsetof(Pair, a), 8);
  wire.patch_u64(kWireHeaderSize + offsetof(Pair, b), a_rel + 2);

  Decoder dec(fmt);
  auto* back = static_cast<Pair*>(dec.decode_in_place(wire.data(), wire.size()));
  ASSERT_NE(back, nullptr);
  EXPECT_STREQ(back->a, "shared");
  EXPECT_STREQ(back->b, "ared");
}

TEST(EncodeDecode, InPlaceNullArrayDeliversZeroCount) {
  // A count without elements (the sender's pointer was null): both paths
  // deliver a null array with a zero count, so no handler walks past it.
  Samples rec{5, nullptr, "x"};
  auto fmt = samples_format();
  ByteBuffer wire;
  Encoder(fmt).encode(&rec, wire);
  ByteBuffer copy;
  copy.append(wire.data(), wire.size());

  Decoder dec(fmt);
  auto* back = static_cast<Samples*>(dec.decode_in_place(wire.data(), wire.size()));
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->xs, nullptr);
  EXPECT_EQ(back->n, 0);
  RecordArena arena;
  auto* conv = static_cast<Samples*>(dec.decode(copy.data(), copy.size(), fmt, arena));
  EXPECT_EQ(conv->xs, nullptr);
  EXPECT_EQ(conv->n, 0);
}

// --- Byte-order simulation ---------------------------------------------------

TEST(EncodeDecode, ForeignByteOrderConverts) {
  Contact members[2] = {{"alpha", 0x01020304}, {"beta", 0x0A0B0C0D}};
  Roster roster{2, members, "chan"};
  auto fmt = roster_format();
  ByteBuffer wire;
  Encoder(fmt).encode(&roster, wire);
  reorder_encoded(wire, *fmt);  // now looks like it came from the other endianness

  WireInfo info = peek_header(wire.data(), wire.size());
  EXPECT_NE(info.order, host_byte_order());
  EXPECT_EQ(info.fingerprint, fmt->fingerprint());

  Decoder dec(fmt);
  // Fast path must refuse (order mismatch)...
  EXPECT_EQ(dec.decode_in_place(wire.data(), wire.size()), nullptr);
  // ...and the conversion path must swap correctly.
  RecordArena arena;
  auto* rec = static_cast<Roster*>(dec.decode(wire.data(), wire.size(), fmt, arena));
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->member_count, 2);
  EXPECT_EQ(rec->members[0].id, 0x01020304);
  EXPECT_STREQ(rec->members[0].info, "alpha");
  EXPECT_STREQ(rec->title, "chan");
}

// --- Property test: random formats round-trip --------------------------------

TEST(EncodeDecodeProperty, RandomRecordsRoundTripThroughWire) {
  Rng rng(2026);
  for (int iter = 0; iter < 60; ++iter) {
    auto fmt = random_format(rng, "Rand" + std::to_string(iter));
    RecordArena arena;
    DynValue value = random_dyn(rng, fmt);
    void* rec = from_dyn(value, arena);

    ByteBuffer wire;
    Encoder(fmt).encode(rec, wire);

    // Path 1: conversion plan back into the same format.
    RecordArena arena2;
    Decoder dec(fmt);
    void* back = dec.decode(wire.data(), wire.size(), fmt, arena2);
    DynValue round = to_dyn(*fmt, back);
    EXPECT_EQ(to_dyn(*fmt, rec), round) << "iter " << iter << "\n" << fmt->to_string();

    // Path 2: in-place.
    void* inplace = dec.decode_in_place(wire.data(), wire.size());
    ASSERT_NE(inplace, nullptr);
    EXPECT_EQ(to_dyn(*fmt, inplace), round) << "iter " << iter;
  }
}

TEST(EncodeDecodeProperty, ForeignOrderRoundTrips) {
  Rng rng(555);
  for (int iter = 0; iter < 40; ++iter) {
    auto fmt = random_format(rng, "Swap" + std::to_string(iter));
    RecordArena arena;
    void* rec = random_record(rng, fmt, arena);
    DynValue original = to_dyn(*fmt, rec);

    ByteBuffer wire;
    Encoder(fmt).encode(rec, wire);
    reorder_encoded(wire, *fmt);

    RecordArena arena2;
    Decoder dec(fmt);
    void* back = dec.decode(wire.data(), wire.size(), fmt, arena2);
    EXPECT_EQ(to_dyn(*fmt, back), original) << "iter " << iter << "\n" << fmt->to_string();
  }
}

}  // namespace
}  // namespace morph::pbio
