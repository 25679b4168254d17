// Unit tests for the common substrate: buffers, arena, endian, rng, hash.
#include <gtest/gtest.h>

#include <cstring>

#include "common/arena.hpp"
#include "common/bytes.hpp"
#include "common/endian.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"

namespace morph {
namespace {

TEST(ByteBuffer, AppendAndRead) {
  ByteBuffer b;
  b.append_u8(0xAB);
  b.append_u32(0x12345678);
  b.append_i64(-42);
  b.append_string("hello");
  b.append_f64(2.5);

  ByteReader r(b.data(), b.size());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u32(), 0x12345678u);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_EQ(r.read_string(), "hello");
  EXPECT_EQ(r.read_f64(), 2.5);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteBuffer, PatchOverwritesEarlierBytes) {
  ByteBuffer b;
  b.append_u32(0);
  b.append_u8(7);
  b.patch_u32(0, 0xCAFEBABE);
  ByteReader r(b.data(), b.size());
  EXPECT_EQ(r.read_u32(), 0xCAFEBABEu);
  EXPECT_EQ(r.read_u8(), 7);
}

TEST(ByteBuffer, AlignToPads) {
  ByteBuffer b;
  b.append_u8(1);
  b.align_to(8);
  EXPECT_EQ(b.size(), 8u);
  b.align_to(8);
  EXPECT_EQ(b.size(), 8u);  // already aligned: no change
}

TEST(ByteBuffer, PatchOutOfRangeThrows) {
  ByteBuffer b;
  b.append_u8(1);
  EXPECT_THROW(b.patch_u32(0, 1), Error);
}

TEST(ByteReader, TruncationThrows) {
  // The reader sees 3 bytes of a larger buffer: a u32 read must throw on
  // the reader's bound, and the compiler sees no out-of-bounds load on the
  // (unreachable) path past the check.
  uint8_t data[8] = {1, 2, 3};
  ByteReader r(data, 3);
  EXPECT_THROW(r.read_u32(), DecodeError);
  EXPECT_EQ(r.read_u8(), 1);  // position unchanged by the failed read
}

TEST(ByteReader, StringTruncationThrows) {
  ByteBuffer b;
  b.append_u32(100);  // claims 100 bytes follow
  b.append_u8('x');
  ByteReader r(b.data(), b.size());
  EXPECT_THROW(r.read_string(), DecodeError);
}

TEST(ByteReader, SkipAndSeek) {
  uint8_t data[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  ByteReader r(data, sizeof data);
  r.skip(3);
  EXPECT_EQ(r.read_u8(), 3);
  r.seek(7);
  EXPECT_EQ(r.read_u8(), 7);
  EXPECT_THROW(r.seek(9), DecodeError);
}

TEST(Hex, RendersBytes) {
  uint8_t data[] = {0x00, 0xFF, 0x1A};
  EXPECT_EQ(to_hex(data, 3), "00ff1a");
}

TEST(Endian, SwapValues) {
  EXPECT_EQ(byteswap16(0x1234), 0x3412);
  EXPECT_EQ(byteswap32(0x12345678u), 0x78563412u);
  EXPECT_EQ(byteswap64(0x0102030405060708ull), 0x0807060504030201ull);
}

TEST(Endian, SwapInPlace) {
  uint32_t v = 0xAABBCCDD;
  byteswap_inplace(&v, 4);
  EXPECT_EQ(v, 0xDDCCBBAAu);
  uint8_t one = 0x7F;
  byteswap_inplace(&one, 1);  // no-op
  EXPECT_EQ(one, 0x7F);
}

TEST(Arena, AllocationsAreZeroedAndAligned) {
  RecordArena arena;
  for (size_t align : {1u, 2u, 4u, 8u, 16u}) {
    void* p = arena.allocate(33, align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u);
    const auto* bytes = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < 33; ++i) EXPECT_EQ(bytes[i], 0);
  }
}

TEST(Arena, LargeAllocationGrows) {
  RecordArena arena(128);
  void* p = arena.allocate(1 << 20);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xFF, 1 << 20);  // must be writable
}

TEST(Arena, CopyStringNulTerminates) {
  RecordArena arena;
  char* s = arena.copy_string(std::string_view("abc\0def", 3));
  EXPECT_STREQ(s, "abc");
}

TEST(Arena, ResetReusesMemory) {
  RecordArena arena(256);
  void* first = arena.allocate(64);
  arena.reset();
  void* again = arena.allocate(64);
  EXPECT_EQ(first, again);
}

TEST(Arena, ManySmallAllocationsDistinct) {
  RecordArena arena(64);
  void* a = arena.allocate(40);
  void* b = arena.allocate(40);  // forces a second chunk
  EXPECT_NE(a, b);
  std::memset(a, 1, 40);
  std::memset(b, 2, 40);
  EXPECT_EQ(static_cast<uint8_t*>(a)[39], 1);
  EXPECT_EQ(static_cast<uint8_t*>(b)[0], 2);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, RangeBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.next_range(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, IdentHasRequestedLength) {
  Rng rng(1);
  EXPECT_EQ(rng.next_ident(9).size(), 9u);
}

TEST(Hash, FnvKnownProperties) {
  EXPECT_EQ(fnv1a("", kFnvOffset), kFnvOffset);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_NE(fnv1a("ab"), fnv1a("ba"));
  // Seed chaining differs from concatenation-insensitive hashing.
  EXPECT_EQ(fnv1a("bc", fnv1a("a")), fnv1a("abc"));
}

}  // namespace
}  // namespace morph
