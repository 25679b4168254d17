// Ecode execution semantics, run against BOTH backends (bytecode VM and
// x86-64 JIT) through a parameterized suite — every test is a differential
// check that the two implementations of "dynamic code generation" agree.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "ecode/ecode.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/randgen.hpp"
#include "pbio/record.hpp"
#include "record_bytes.hpp"

namespace morph::ecode {
namespace {

using pbio::DynList;
using pbio::DynValue;
using pbio::FieldKind;
using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::make_dyn;
using pbio::RecordRef;

/// Scratch format used by most tests: a grab-bag of scalar widths, floats,
/// strings, and arrays.
FormatPtr scratch_format() {
  static FormatPtr fmt = [] {
    auto sub = FormatBuilder("Sub").add_int("v", 4).add_string("name").build();
    return FormatBuilder("Scratch")
        .add_int("i8", 1)
        .add_int("i16", 2)
        .add_int("i32", 4)
        .add_int("i64", 8)
        .add_uint("u8", 1)
        .add_uint("u16", 2)
        .add_uint("u32", 4)
        .add_float("f32", 4)
        .add_float("f64", 8)
        .add_char("ch")
        .add_string("s")
        .add_int("count", 4)
        .add_dyn_array("items", sub, "count")
        .add_static_array("fixed", FieldKind::kInt, 4, 4)
        .add_struct("one", sub)
        .build();
  }();
  return fmt;
}

class ExecTest : public ::testing::TestWithParam<ExecBackend> {
 protected:
  /// Compile a transform with (dst, src) parameters over the scratch format
  /// and run it on fresh records. Returns the dst record.
  RecordRef run(const std::string& src_code, const DynValue* src_value = nullptr) {
    auto fmt = scratch_format();
    transform_ = std::make_unique<Transform>(
        Transform::compile(src_code, {{"dst", fmt}, {"src", fmt}}, GetParam()));
    void* dst = pbio::alloc_record(*fmt, arena_);
    void* src = src_value != nullptr ? pbio::from_dyn(*src_value, arena_)
                                     : pbio::alloc_record(*fmt, arena_);
    transform_->run2(dst, src, arena_);
    return RecordRef(dst, fmt);
  }

  RecordArena arena_;
  std::unique_ptr<Transform> transform_;
};

TEST_P(ExecTest, BackendMatchesRequest) {
  run("dst.i32 = 1;");
  if (GetParam() == ExecBackend::kJit) {
    EXPECT_TRUE(transform_->jitted());
    EXPECT_GT(transform_->native_code_size(), 0u);
  } else {
    EXPECT_FALSE(transform_->jitted());
    EXPECT_EQ(transform_->native_code_size(), 0u);
  }
}

TEST_P(ExecTest, IntArithmetic) {
  auto d = run(R"(
    dst.i64 = 7 + 3 * 4 - 10 / 2;   // 14
    dst.i32 = (7 + 3) * (4 - 10) / 2;  // -30
    dst.i16 = 17 % 5;
    dst.i8 = -7;
  )");
  EXPECT_EQ(d.get_int("i64"), 14);
  EXPECT_EQ(d.get_int("i32"), -30);
  EXPECT_EQ(d.get_int("i16"), 2);
  EXPECT_EQ(d.get_int("i8"), -7);
}

TEST_P(ExecTest, DivisionEdgeCases) {
  auto d = run(R"(
    int zero = 0;
    dst.i64 = 5 / zero;          // defined as 0
    dst.i32 = 5 % zero;          // defined as 0
    int m = -9223372036854775807 - 1;  // INT64_MIN
    int negone = -1;
    dst.i16 = (m / negone) == m;      // wraps
    dst.i8 = m % negone;              // 0
  )");
  EXPECT_EQ(d.get_int("i64"), 0);
  EXPECT_EQ(d.get_int("i32"), 0);
  EXPECT_EQ(d.get_int("i16"), 1);
  EXPECT_EQ(d.get_int("i8"), 0);
}

TEST_P(ExecTest, SignedDivisionTruncatesTowardZero) {
  auto d = run("dst.i32 = -7 / 2; dst.i16 = -7 % 2; dst.i64 = 7 / -2;");
  EXPECT_EQ(d.get_int("i32"), -3);
  EXPECT_EQ(d.get_int("i16"), -1);
  EXPECT_EQ(d.get_int("i64"), -3);
}

TEST_P(ExecTest, BitOperations) {
  auto d = run(R"(
    dst.i64 = (0xF0 & 0x3C) | (1 << 10) | (0x0F ^ 0x05);
    dst.i32 = ~0;
    dst.i16 = (-16) >> 2;   // arithmetic shift
    dst.i8 = !5;
    dst.u8 = !0;
  )");
  EXPECT_EQ(d.get_int("i64"), (0xF0 & 0x3C) | (1 << 10) | (0x0F ^ 0x05));
  EXPECT_EQ(d.get_int("i32"), -1);
  EXPECT_EQ(d.get_int("i16"), -4);
  EXPECT_EQ(d.get_int("i8"), 0);
  EXPECT_EQ(d.get_int("u8"), 1);
}

TEST_P(ExecTest, Comparisons) {
  auto d = run(R"(
    dst.i8 = (1 < 2) + (2 <= 2) + (3 > 2) + (2 >= 3) + (1 == 1) + (1 != 1);
    dst.i16 = (-1 < 1);   // signed comparison
    dst.f64 = 1.5;
    dst.i32 = (dst.f64 > 1.0) + (dst.f64 <= 1.5) + (dst.f64 == 1.5) + (dst.f64 != 2.0);
  )");
  EXPECT_EQ(d.get_int("i8"), 4);
  EXPECT_EQ(d.get_int("i16"), 1);
  EXPECT_EQ(d.get_int("i32"), 4);
}

TEST_P(ExecTest, FloatArithmetic) {
  auto d = run(R"(
    dst.f64 = 1.5 * 4.0 - 2.0 / 8.0;   // 5.75
    dst.f32 = 0.5 + 0.25;
    float neg = -2.5;
    dst.i32 = neg < 0.0;
    dst.i64 = 7 / 2.0 * 2;  // promoted: 7.0
  )");
  EXPECT_DOUBLE_EQ(d.get_float("f64"), 5.75);
  EXPECT_FLOAT_EQ(static_cast<float>(d.get_float("f32")), 0.75f);
  EXPECT_EQ(d.get_int("i32"), 1);
  EXPECT_EQ(d.get_int("i64"), 7);
}

TEST_P(ExecTest, IntFloatConversions) {
  auto d = run(R"(
    dst.f64 = 3;          // int -> float store
    dst.i32 = 3.99;       // float -> int store truncates
    dst.i16 = -3.99;
    float f = 10;
    int i = f / 4;        // 2.5 -> 2
    dst.i8 = i;
  )");
  EXPECT_DOUBLE_EQ(d.get_float("f64"), 3.0);
  EXPECT_EQ(d.get_int("i32"), 3);
  EXPECT_EQ(d.get_int("i16"), -3);
  EXPECT_EQ(d.get_int("i8"), 2);
}

TEST_P(ExecTest, FieldWidthsTruncateAndExtend) {
  auto d = run(R"(
    dst.i8 = 300;        // truncates to 44
    dst.u8 = 300;        // truncates to 44 (same bits)
    dst.i16 = 70000;     // truncates
    dst.u16 = 65535;
    dst.u32 = 4294967295;
    dst.i64 = dst.u32;   // zero-extended reload
    dst.i32 = dst.i8;    // sign-extended reload
  )");
  EXPECT_EQ(d.get_int("i8"), 44);
  EXPECT_EQ(d.get_int("u8"), 44);
  EXPECT_EQ(d.get_int("i16"), static_cast<int16_t>(70000));
  EXPECT_EQ(d.get_int("u16"), 65535);
  EXPECT_EQ(d.get_int("u32"), 4294967295);
  EXPECT_EQ(d.get_int("i64"), 4294967295);
  EXPECT_EQ(d.get_int("i32"), 44);
}

TEST_P(ExecTest, ShortCircuitEvaluation) {
  // The right side of && / || must not execute when short-circuited: here
  // the right side would index items[0] of an empty array... but since
  // reads of unallocated arrays are undefined, we instead prove semantics
  // through division (defined as 0) and counters.
  auto d = run(R"(
    int calls = 0;
    int t = 1;
    int f = 0;
    if (f && (5 / f)) calls = 100;
    dst.i32 = t || (5 / f);
    dst.i16 = f && 1;
    dst.i8 = f || 0;
    dst.i64 = calls;
  )");
  EXPECT_EQ(d.get_int("i32"), 1);
  EXPECT_EQ(d.get_int("i16"), 0);
  EXPECT_EQ(d.get_int("i8"), 0);
  EXPECT_EQ(d.get_int("i64"), 0);
}

TEST_P(ExecTest, ConditionalExpression) {
  auto d = run(R"(
    dst.i32 = 1 ? 10 : 20;
    dst.i16 = 0 ? 10 : 20;
    dst.f64 = 1 ? 2 : 3.5;     // unified to float
    dst.i64 = (5 > 3) ? (1 ? 7 : 8) : 9;
  )");
  EXPECT_EQ(d.get_int("i32"), 10);
  EXPECT_EQ(d.get_int("i16"), 20);
  EXPECT_DOUBLE_EQ(d.get_float("f64"), 2.0);
  EXPECT_EQ(d.get_int("i64"), 7);
}

TEST_P(ExecTest, ControlFlow) {
  auto d = run(R"(
    int sum = 0;
    for (int i = 1; i <= 10; i++) sum += i;
    dst.i32 = sum;

    int n = 0;
    while (n < 5) { n++; }
    dst.i16 = n;

    int k = 0;
    for (int i = 0; i < 10; i++) {
      if (i % 2 == 0) k += i;
      else k -= 1;
    }
    dst.i64 = k;  // 0+2+4+6+8 - 5 = 15
  )");
  EXPECT_EQ(d.get_int("i32"), 55);
  EXPECT_EQ(d.get_int("i16"), 5);
  EXPECT_EQ(d.get_int("i64"), 15);
}

TEST_P(ExecTest, DoWhileLoops) {
  auto d = run(R"(
    int n = 0;
    do { n++; } while (n < 5);
    dst.i32 = n;

    // Body runs at least once even when the condition is false.
    int ran = 0;
    do { ran = 1; } while (0);
    dst.i16 = ran;

    // break / continue inside do/while.
    int sum = 0;
    int i = 0;
    do {
      i++;
      if (i % 2 == 0) continue;
      if (i > 7) break;
      sum += i;          // 1+3+5+7 = 16
    } while (i < 100);
    dst.i64 = sum;
  )");
  EXPECT_EQ(d.get_int("i32"), 5);
  EXPECT_EQ(d.get_int("i16"), 1);
  EXPECT_EQ(d.get_int("i64"), 16);
}

TEST_P(ExecTest, BreakAndContinue) {
  auto d = run(R"(
    int sum = 0;
    for (int i = 0; i < 100; i++) {
      if (i == 10) break;
      if (i % 2 == 1) continue;
      sum += i;             // 0+2+4+6+8 = 20
    }
    dst.i32 = sum;

    int n = 0;
    int hits = 0;
    while (1) {
      n++;
      if (n > 50) break;
      if (n % 10 != 0) continue;
      hits++;               // 10, 20, 30, 40, 50 -> 5
    }
    dst.i16 = hits;

    int outer = 0;
    for (int a = 0; a < 5; a++) {
      for (int b = 0; b < 5; b++) {
        if (b == 2) break;  // inner break only
        outer++;
      }
    }
    dst.i64 = outer;        // 5 * 2 = 10
  )");
  EXPECT_EQ(d.get_int("i32"), 20);
  EXPECT_EQ(d.get_int("i16"), 5);
  EXPECT_EQ(d.get_int("i64"), 10);
}

TEST_P(ExecTest, BreakOutsideLoopRejected) {
  auto fmt = scratch_format();
  EXPECT_THROW(Transform::compile("break;", {{"p", fmt}}), EcodeError);
  EXPECT_THROW(Transform::compile("if (1) continue;", {{"p", fmt}}), EcodeError);
}

TEST_P(ExecTest, ContinueSkipsToForStep) {
  // If continue failed to run the step, this would loop forever.
  auto d = run(R"(
    int count = 0;
    for (int i = 0; i < 10; i++) {
      if (i >= 0) continue;
      count = 999;
    }
    dst.i32 = count;
  )");
  EXPECT_EQ(d.get_int("i32"), 0);
}

TEST_P(ExecTest, ReturnStopsExecution) {
  auto d = run(R"(
    dst.i32 = 1;
    return;
    dst.i32 = 2;
  )");
  EXPECT_EQ(d.get_int("i32"), 1);
}

TEST_P(ExecTest, CompoundAssignOnFields) {
  auto d = run(R"(
    dst.i32 = 10;
    dst.i32 += 5;
    dst.i32 -= 3;
    dst.i32 *= 4;
    dst.i32 /= 6;   // 48/6 = 8
    dst.i32 %= 5;   // 3
    dst.f64 = 2.0;
    dst.f64 *= 3;
    dst.f64 += 0.5;
  )");
  EXPECT_EQ(d.get_int("i32"), 3);
  EXPECT_DOUBLE_EQ(d.get_float("f64"), 6.5);
}

TEST_P(ExecTest, IncDecOnFieldsAndLocals) {
  auto d = run(R"(
    int i = 5;
    i++; i++; --i;
    dst.i32 = i;
    dst.i16 = 0;
    dst.i16++;
    dst.i16++;
  )");
  EXPECT_EQ(d.get_int("i32"), 6);
  EXPECT_EQ(d.get_int("i16"), 2);
}

TEST_P(ExecTest, Builtins) {
  auto d = run(R"(
    dst.i32 = abs(-42) + abs(17);
    dst.i16 = min(3, -5);
    dst.i8 = max(3, -5);
    dst.f64 = abs(-2.5) + min(1.0, 2.0) + max(0.5, 0.25);
    dst.i64 = min(2, 3.5) == 2.0;   // mixed promotes to float
  )");
  EXPECT_EQ(d.get_int("i32"), 59);
  EXPECT_EQ(d.get_int("i16"), -5);
  EXPECT_EQ(d.get_int("i8"), 3);
  EXPECT_DOUBLE_EQ(d.get_float("f64"), 4.0);
  EXPECT_EQ(d.get_int("i64"), 1);
}

TEST_P(ExecTest, MathBuiltins) {
  auto d = run(R"(
    dst.f64 = sqrt(2.25);
    dst.f32 = floor(3.7) + ceil(3.2);   // 3 + 4
    dst.i32 = sqrt(16);                 // int arg promotes, result truncates
    dst.i64 = floor(-1.5);
    dst.i16 = ceil(-1.5);
  )");
  EXPECT_DOUBLE_EQ(d.get_float("f64"), 1.5);
  EXPECT_FLOAT_EQ(static_cast<float>(d.get_float("f32")), 7.0f);
  EXPECT_EQ(d.get_int("i32"), 4);
  EXPECT_EQ(d.get_int("i64"), -2);
  EXPECT_EQ(d.get_int("i16"), -1);
}

TEST_P(ExecTest, MathBuiltinArityChecked) {
  auto fmt = scratch_format();
  EXPECT_THROW(Transform::compile("p.i32 = sqrt(1, 2);", {{"p", fmt}}), EcodeError);
  EXPECT_THROW(Transform::compile("p.i32 = floor(p.s);", {{"p", fmt}}), EcodeError);
}

TEST_P(ExecTest, CharFieldsAndLiterals) {
  auto d = run(R"(
    dst.ch = 'A';
    dst.i32 = 'z' - 'a';
  )");
  EXPECT_EQ(d.get_int("ch"), 'A');
  EXPECT_EQ(d.get_int("i32"), 25);
}

TEST_P(ExecTest, EnumFieldsActAsIntegers) {
  auto fmt = pbio::FormatBuilder("E")
                 .add_enum("mode", {{"OFF", 0}, {"ON", 1}, {"AUTO", 2}})
                 .add_int("out", 4)
                 .build();
  auto t = Transform::compile(R"(
    dst.mode = 2;
    if (src.mode == 1) dst.out = 10; else dst.out = 20;
  )",
                              {{"dst", fmt}, {"src", fmt}}, GetParam());
  RecordArena arena;
  void* dst = pbio::alloc_record(*fmt, arena);
  void* src = pbio::alloc_record(*fmt, arena);
  pbio::RecordRef(src, fmt).set_int("mode", 1);
  t.run2(dst, src, arena);
  pbio::RecordRef d(dst, fmt);
  EXPECT_EQ(d.get_int("mode"), 2);
  EXPECT_EQ(d.get_int("out"), 10);
}

TEST_P(ExecTest, StringOperations) {
  auto fmt = scratch_format();
  auto v = make_dyn(fmt);
  v.field("s") = std::string("hello");
  auto d = run(R"(
    dst.s = src.s;
    dst.i32 = strlen(src.s);
    dst.i16 = streq(src.s, "hello");
    dst.i8 = streq(src.s, "world");
    dst.one.name = "literal";
    dst.i64 = strlen(dst.one.name);
  )",
               &v);
  EXPECT_EQ(d.get_string("s"), "hello");
  EXPECT_EQ(d.get_int("i32"), 5);
  EXPECT_EQ(d.get_int("i16"), 1);
  EXPECT_EQ(d.get_int("i8"), 0);
  EXPECT_EQ(d.get_struct("one").get_string("name"), "literal");
  EXPECT_EQ(d.get_int("i64"), 7);
}

TEST_P(ExecTest, NullStringSemantics) {
  // src.s was never set: reads as null; strlen -> 0; streq(null, "") -> 1.
  auto d = run(R"(
    dst.i32 = strlen(src.s);
    dst.i16 = streq(src.s, "");
    dst.s = src.s;   // copying a null string stays null
  )");
  EXPECT_EQ(d.get_int("i32"), 0);
  EXPECT_EQ(d.get_int("i16"), 1);
  EXPECT_EQ(d.get_string("s"), "");
}

TEST_P(ExecTest, StaticArrayReadWrite) {
  auto fmt = scratch_format();
  auto v = make_dyn(fmt);
  v.field("fixed") = DynList{int64_t{10}, int64_t{20}, int64_t{30}, int64_t{40}};
  auto d = run(R"(
    for (int i = 0; i < 4; i++) dst.fixed[i] = src.fixed[3 - i] * 2;
  )",
               &v);
  RecordArena tmp;
  DynValue out = pbio::to_dyn(*fmt, d.data());
  const auto& fixed = out.field("fixed").as_list();
  EXPECT_EQ(fixed[0].as_int(), 80);
  EXPECT_EQ(fixed[1].as_int(), 60);
  EXPECT_EQ(fixed[2].as_int(), 40);
  EXPECT_EQ(fixed[3].as_int(), 20);
}

TEST_P(ExecTest, DynArrayWriteGrowsAutomatically) {
  auto d = run(R"(
    int n = 100;
    for (int i = 0; i < n; i++) {
      dst.items[i].v = i * i;
    }
    dst.count = n;
  )");
  EXPECT_EQ(d.get_int("count"), 100);
  for (uint64_t i = 0; i < 100; i += 17) {
    EXPECT_EQ(d.element("items", i).get_int("v"), static_cast<int64_t>(i * i));
  }
}

TEST_P(ExecTest, DynArrayElementStrings) {
  auto fmt = scratch_format();
  auto v = make_dyn(fmt);
  auto sub = fmt->find_field("items")->element_format;
  DynList items;
  for (int i = 0; i < 3; ++i) {
    auto e = make_dyn(sub);
    e.field("v") = int64_t{i};
    e.field("name") = std::string("n" + std::to_string(i));
    items.push_back(std::move(e));
  }
  v.field("count") = int64_t{3};
  v.field("items") = std::move(items);

  auto d = run(R"(
    int j = 0;
    for (int i = src.count - 1; i >= 0; i = i - 1) {
      dst.items[j].v = src.items[i].v;
      dst.items[j].name = src.items[i].name;
      j++;
    }
    dst.count = j;
  )",
               &v);
  EXPECT_EQ(d.get_int("count"), 3);
  EXPECT_EQ(d.element("items", 0).get_int("v"), 2);
  EXPECT_EQ(d.element("items", 0).get_string("name"), "n2");
  EXPECT_EQ(d.element("items", 2).get_string("name"), "n0");
}

TEST_P(ExecTest, NestedStructAccess) {
  auto fmt = scratch_format();
  auto v = make_dyn(fmt);
  v.field("one").field("v") = int64_t{33};
  v.field("one").field("name") = std::string("deep");
  auto d = run(R"(
    dst.one.v = src.one.v + 1;
    dst.one.name = src.one.name;
  )",
               &v);
  EXPECT_EQ(d.get_struct("one").get_int("v"), 34);
  EXPECT_EQ(d.get_struct("one").get_string("name"), "deep");
}

TEST_P(ExecTest, StructCopyAssignment) {
  auto fmt = scratch_format();
  auto v = make_dyn(fmt);
  v.field("one").field("v") = int64_t{42};
  v.field("one").field("name") = std::string("deep-copied");
  auto d = run("dst.one = src.one;", &v);
  EXPECT_EQ(d.get_struct("one").get_int("v"), 42);
  EXPECT_EQ(d.get_struct("one").get_string("name"), "deep-copied");
}

TEST_P(ExecTest, WholeRecordCopy) {
  auto fmt = scratch_format();
  auto v = make_dyn(fmt);
  v.field("i32") = int64_t{7};
  v.field("s") = std::string("whole");
  v.field("count") = int64_t{2};
  auto sub = fmt->find_field("items")->element_format;
  DynList items;
  for (int i = 0; i < 2; ++i) {
    auto e = make_dyn(sub);
    e.field("v") = int64_t{i + 10};
    e.field("name") = std::string("it" + std::to_string(i));
    items.push_back(std::move(e));
  }
  v.field("items") = std::move(items);

  auto d = run("dst = src;", &v);
  EXPECT_EQ(d.get_int("i32"), 7);
  EXPECT_EQ(d.get_string("s"), "whole");
  EXPECT_EQ(d.get_int("count"), 2);
  EXPECT_EQ(d.element("items", 1).get_string("name"), "it1");
}

TEST_P(ExecTest, StructCopyIntoDynArrayElements) {
  auto fmt = scratch_format();
  auto v = make_dyn(fmt);
  v.field("one").field("v") = int64_t{5};
  v.field("one").field("name") = std::string("proto");
  auto d = run(R"(
    for (int i = 0; i < 3; i++) {
      dst.items[i] = src.one;
      dst.items[i].v = i;     // then specialize one field
    }
    dst.count = 3;
  )",
               &v);
  EXPECT_EQ(d.get_int("count"), 3);
  EXPECT_EQ(d.element("items", 2).get_int("v"), 2);
  EXPECT_EQ(d.element("items", 2).get_string("name"), "proto");
}

TEST_P(ExecTest, StructCopyRequiresIdenticalFormats) {
  auto fmt = scratch_format();
  auto other = pbio::FormatBuilder("Other").add_int("x", 4).build();
  auto with_other = pbio::FormatBuilder("W").add_struct("o", other).build();
  EXPECT_THROW(Transform::compile("a.one = b.o;", {{"a", fmt}, {"b", with_other}}),
               EcodeError);
  EXPECT_THROW(Transform::compile("a.one += b.one;", {{"a", fmt}, {"b", fmt}}), EcodeError);
  EXPECT_THROW(Transform::compile("a.one = 3;", {{"a", fmt}, {"b", fmt}}), EcodeError);
}

TEST_P(ExecTest, UnsignedFieldZeroExtends) {
  auto fmt = scratch_format();
  auto v = make_dyn(fmt);
  v.field("u8") = int64_t{0xFF};
  v.field("u16") = int64_t{0xFFFF};
  v.field("u32") = int64_t{0xFFFFFFFF};
  auto d = run(R"(
    dst.i64 = src.u8 + src.u16 + src.u32;
  )",
               &v);
  EXPECT_EQ(d.get_int("i64"), 0xFFll + 0xFFFFll + 0xFFFFFFFFll);
}

TEST_P(ExecTest, DeepLoopNesting) {
  auto d = run(R"(
    int total = 0;
    for (int a = 0; a < 3; a++)
      for (int b = 0; b < 4; b++)
        for (int c = 0; c < 5; c++)
          if ((a + b + c) % 2 == 0) total++;
    dst.i32 = total;
  )");
  int expect = 0;
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 4; ++b)
      for (int c = 0; c < 5; ++c)
        if ((a + b + c) % 2 == 0) ++expect;
  EXPECT_EQ(d.get_int("i32"), expect);
}

TEST_P(ExecTest, LargeLocalCount) {
  // Forces the heap-allocated locals path in the JIT wrapper (> 64 slots).
  std::string code;
  for (int i = 0; i < 70; ++i) {
    code += "int v" + std::to_string(i) + " = " + std::to_string(i) + ";\n";
  }
  code += "dst.i64 = ";
  for (int i = 0; i < 70; ++i) {
    if (i > 0) code += " + ";
    code += "v" + std::to_string(i);
  }
  code += ";";
  auto d = run(code);
  EXPECT_EQ(d.get_int("i64"), 69 * 70 / 2);
}

INSTANTIATE_TEST_SUITE_P(Backends, ExecTest,
                         ::testing::Values(ExecBackend::kInterpreter, ExecBackend::kJit),
                         [](const ::testing::TestParamInfo<ExecBackend>& info) {
                           return info.param == ExecBackend::kJit ? "Jit" : "Vm";
                         });

TEST(TransformApi, CompiledTransformIsShareableAcrossThreads) {
  // A compiled Transform is immutable; concurrent run() calls with private
  // arenas must not interfere (the JIT code and chunk are shared).
  auto fmt = scratch_format();
  auto t = Transform::compile(R"(
    int acc = 0;
    for (int i = 0; i < 10000; i++) acc += i % 7;
    dst.i64 = acc + src.i32;
  )",
                              {{"dst", fmt}, {"src", fmt}});
  int64_t expect_base = 0;
  for (int i = 0; i < 10000; ++i) expect_base += i % 7;

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      for (int iter = 0; iter < 50; ++iter) {
        RecordArena arena;
        void* dst = pbio::alloc_record(*fmt, arena);
        void* src = pbio::alloc_record(*fmt, arena);
        pbio::RecordRef(src, fmt).set_int("i32", ti * 1000 + iter);
        t.run2(dst, src, arena);
        if (pbio::RecordRef(dst, fmt).get_int("i64") != expect_base + ti * 1000 + iter) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(TransformApi, Run2RequiresTwoParams) {
  auto fmt = scratch_format();
  auto t = Transform::compile("p.i32 = 1;", {{"p", fmt}});
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  EXPECT_THROW(t.run2(rec, rec, arena), Error);
  void* records[1] = {rec};
  t.run(records, arena);
  EXPECT_EQ(RecordRef(rec, fmt).get_int("i32"), 1);
}

TEST(TransformApi, DisassembleShowsOps) {
  auto fmt = scratch_format();
  auto t = Transform::compile("p.i32 = 1 + 2;", {{"p", fmt}});
  std::string dis = t.disassemble();
  EXPECT_NE(dis.find("const.i"), std::string::npos);
  EXPECT_NE(dis.find("store.i32"), std::string::npos);
}

TEST(TransformApi, ThreeParamTransform) {
  auto fmt = scratch_format();
  auto t = Transform::compile("a.i32 = b.i32 + c.i32;",
                              {{"a", fmt}, {"b", fmt}, {"c", fmt}});
  RecordArena arena;
  void* ra = pbio::alloc_record(*fmt, arena);
  void* rb = pbio::alloc_record(*fmt, arena);
  void* rc = pbio::alloc_record(*fmt, arena);
  RecordRef(rb, fmt).set_int("i32", 30);
  RecordRef(rc, fmt).set_int("i32", 12);
  void* records[3] = {ra, rb, rc};
  t.run(records, arena);
  EXPECT_EQ(RecordRef(ra, fmt).get_int("i32"), 42);
}

// --- element-copy loops (one kCopyLoop op) ------------------------------------

/// Source: readings {ts, v, q, flags, name, tail} sized by n, plus string,
/// float4 and int4 arrays. Destination readings keep ts, v, q, name and tail
/// at other offsets and add `extra`, so a copy leaves gaps the loop never
/// writes.
FormatPtr copy_src_format() {
  static FormatPtr fmt = [] {
    auto elem = FormatBuilder("SrcElem")
                    .add_int("ts", 8)
                    .add_float("v", 8)
                    .add_int("q", 4)
                    .add_int("flags", 4)
                    .add_string("name")
                    .add_int("tail", 2)
                    .build();
    return FormatBuilder("Src")
        .add_int("n", 4)
        .add_dyn_array("rs", elem, "n")
        .add_int("m", 4)
        .add_dyn_array("ss", FieldKind::kString, 0, "m")
        .add_int("k", 4)
        .add_dyn_array("fs", FieldKind::kFloat, 4, "k")
        .add_uint("j", 2)
        .add_dyn_array("xs", FieldKind::kInt, 4, "j")
        .build();
  }();
  return fmt;
}

FormatPtr copy_dst_format() {
  static FormatPtr fmt = [] {
    auto elem = FormatBuilder("DstElem")
                    .add_int("ts", 8)
                    .add_float("v", 8)
                    .add_int("extra", 4)
                    .add_int("q", 4)
                    .add_string("name")
                    .add_int("tail", 2)
                    .build();
    return FormatBuilder("Dst")
        .add_int("n", 4)
        .add_dyn_array("rs", elem, "n")
        .add_int("m", 4)
        .add_dyn_array("ss", FieldKind::kString, 0, "m")
        .add_int("k", 4)
        .add_dyn_array("fs", FieldKind::kFloat, 4, "k")
        .add_int("j", 4)
        .add_dyn_array("xs", FieldKind::kInt, 4, "j")
        .add_int("seen", 8)
        .build();
  }();
  return fmt;
}

/// A random source record with readings, strings, floats and ints; one
/// reading name and one string element are null pointers.
void* copy_src_record(uint64_t seed, RecordArena& arena) {
  Rng rng(seed);
  pbio::RandRecordOptions opt;
  opt.max_array_len = 40;
  void* rec = pbio::from_dyn(pbio::random_dyn(rng, copy_src_format(), opt), arena);
  const auto& fmt = *copy_src_format();
  auto null_first = [&](const char* array, uint32_t off) {
    const auto& fd = *fmt.find_field(array);
    auto* elems = static_cast<uint8_t*>(pbio::read_pointer(rec, fd));
    if (elems && pbio::read_scalar_i64(rec, *fmt.find_field(fd.length_field)) > 0) {
      std::memset(elems + off, 0, sizeof(char*));
    }
  };
  null_first("rs", fmt.find_field("rs")->element_format->find_field("name")->offset);
  null_first("ss", 0);
  return rec;
}

std::vector<ExecBackend> exec_backends() {
  std::vector<ExecBackend> out{ExecBackend::kInterpreter};
  if (jit_supported()) out.push_back(ExecBackend::kJit);
  return out;
}

/// Run `t` (dst "old", src "new") on a fresh destination and the source
/// record of `seed`; return the destination deep-encoded. `prepare` may
/// edit the source first.
std::string run_copy(const Transform& t, uint64_t seed,
                     const std::function<void(void*)>& prepare) {
  RecordArena arena;
  void* src = copy_src_record(seed, arena);
  if (prepare) prepare(src);
  void* dst = pbio::alloc_record(*copy_dst_format(), arena);
  t.run2(dst, src, arena);
  return testing::record_bytes(*copy_dst_format(), dst);
}

/// `lowered` must compile to exactly `copy_loops` kCopyLoop ops, and on
/// every backend give byte-identical records to `oracle`, the same copy
/// written as a `while` loop that stays element by element.
void expect_copy_matches(const std::string& lowered, const std::string& oracle, int copy_loops,
                         const std::function<void(void*)>& prepare = {}) {
  std::vector<RecordParam> params = {{"old", copy_dst_format()}, {"new", copy_src_format()}};
  std::vector<std::string> first_backend;
  for (ExecBackend backend : exec_backends()) {
    SCOPED_TRACE(backend == ExecBackend::kJit ? "jit" : "vm");
    Transform fast = Transform::compile(lowered, params, backend);
    Transform slow = Transform::compile(oracle, params, backend);
    EXPECT_EQ(static_cast<int>(fast.chunk().copy_loops.size()), copy_loops) << fast.disassemble();
    EXPECT_TRUE(slow.chunk().copy_loops.empty()) << slow.disassemble();
    for (uint64_t seed = 1; seed <= 24; ++seed) {
      std::string got = run_copy(fast, seed, prepare);
      ASSERT_EQ(got, run_copy(slow, seed, prepare)) << "seed " << seed << "\n" << lowered;
      if (first_backend.size() < seed) {
        first_backend.push_back(got);
      } else {
        ASSERT_EQ(got, first_backend[seed - 1]) << "backends disagree at seed " << seed;
      }
    }
  }
}

TEST(CopyLoop, PartialStructElementsLeaveGapsZero) {
  // ts and v merge into one 16-byte run; q moves from offset 16 to 20;
  // `extra` and the element padding are never written.
  expect_copy_matches(R"(
    old.n = new.n;
    for (int i = 0; i < new.n; i++) {
      old.rs[i].ts = new.rs[i].ts; old.rs[i].v = new.rs[i].v;
      old.rs[i].q = new.rs[i].q; old.rs[i].name = new.rs[i].name;
      old.rs[i].tail = new.rs[i].tail;
    }
  )",
                      R"(
    old.n = new.n;
    int i = 0;
    while (i < new.n) {
      old.rs[i].ts = new.rs[i].ts; old.rs[i].v = new.rs[i].v;
      old.rs[i].q = new.rs[i].q; old.rs[i].name = new.rs[i].name;
      old.rs[i].tail = new.rs[i].tail;
      i++;
    }
  )",
                      1);
  auto t = Transform::compile(
      "old.n = new.n; for (int i = 0; i < new.n; i++) { old.rs[i].v = new.rs[i].v; "
      "old.rs[i].ts = new.rs[i].ts; old.rs[i].q = new.rs[i].q; }",
      {{"old", copy_dst_format()}, {"new", copy_src_format()}});
  ASSERT_EQ(t.chunk().copy_loops.size(), 1u);
  const CopyLoop& loop = t.chunk().copy_loops[0];
  ASSERT_EQ(loop.runs.size(), 2u) << t.disassemble();
  EXPECT_EQ(loop.runs[0].len, 16u);
  EXPECT_EQ(loop.runs[1].src_off, 16u);
  EXPECT_EQ(loop.runs[1].dst_off, 20u);
  EXPECT_EQ(loop.src_stride, 40u);
  EXPECT_EQ(loop.dst_stride, 40u);
  EXPECT_NE(t.disassemble().find("copy.loop 0"), std::string::npos) << t.disassemble();
}

TEST(CopyLoop, ZeroAndNegativeCounts) {
  const char* lowered =
      "long i = 5; old.n = new.n; for (i = 0; i < new.n; i++) { old.rs[i].ts = new.rs[i].ts; }"
      "old.seen = i;";
  const char* oracle =
      "long i = 5; old.n = new.n; i = 0; while (i < new.n) { old.rs[i].ts = new.rs[i].ts; i++; }"
      "old.seen = i;";
  for (int64_t n : {int64_t{0}, int64_t{-1}, int64_t{-7}, int64_t{INT32_MIN}}) {
    SCOPED_TRACE(n);
    expect_copy_matches(lowered, oracle, 1, [n](void* src) {
      pbio::write_scalar_i64(src, *copy_src_format()->find_field("n"), n);
    });
  }
}

TEST(CopyLoop, LoopVariableReadAfterTheLoop) {
  expect_copy_matches(
      "int i = 0; old.j = new.j; for (i = 0; i < new.j; i += 1) { old.xs[i] = new.xs[i]; }"
      "old.seen = i * 1000 + 7;",
      "int i = 0; old.j = new.j; while (i < new.j) { old.xs[i] = new.xs[i]; i += 1; }"
      "old.seen = i * 1000 + 7;",
      1);
}

TEST(CopyLoop, DestinationPartlyWrittenBeforeTheLoop) {
  // Element 2 forces a first allocation of 8 that the copy outgrows;
  // element 45 one of 64 that it does not. Both keep their `extra`.
  expect_copy_matches(
      "old.rs[2].extra = 7; old.rs[2].ts = -1; old.rs[45].extra = 9;"
      "for (int i = 0; i < new.n; i++) { old.rs[i].ts = new.rs[i].ts; old.rs[i].v = new.rs[i].v; }"
      "old.n = 50;",
      "old.rs[2].extra = 7; old.rs[2].ts = -1; old.rs[45].extra = 9;"
      "int i = 0;"
      "while (i < new.n) { old.rs[i].ts = new.rs[i].ts; old.rs[i].v = new.rs[i].v; i++; }"
      "old.n = 50;",
      1);
  expect_copy_matches(
      "old.rs[1].extra = 3;"
      "for (int i = 0; i < new.n; i++) { old.rs[i].q = new.rs[i].q; }"
      "old.n = new.n > 2 ? new.n : 2;",
      "old.rs[1].extra = 3;"
      "int i = 0; while (i < new.n) { old.rs[i].q = new.rs[i].q; i++; }"
      "old.n = new.n > 2 ? new.n : 2;",
      1);
}

TEST(CopyLoop, StringElementArraysOwnTheirCopies) {
  expect_copy_matches(
      "old.m = new.m; for (int i = 0; i < new.m; i++) { old.ss[i] = new.ss[i]; }",
      "old.m = new.m; int i = 0; while (i < new.m) { old.ss[i] = new.ss[i]; i++; }", 1);
  // Clobbering the source after the run leaves the output intact.
  auto t = Transform::compile(
      "old.m = new.m; for (int i = 0; i < new.m; i++) { old.ss[i] = new.ss[i]; }",
      {{"old", copy_dst_format()}, {"new", copy_src_format()}});
  RecordArena arena;
  void* src = copy_src_record(3, arena);
  const auto& ss = *copy_src_format()->find_field("ss");
  const int64_t m = pbio::read_scalar_i64(src, *copy_src_format()->find_field("m"));
  ASSERT_GT(m, 1);
  void* dst = pbio::alloc_record(*copy_dst_format(), arena);
  t.run2(dst, src, arena);
  std::string before = testing::record_bytes(*copy_dst_format(), dst);
  auto* elems = static_cast<char**>(pbio::read_pointer(src, ss));
  for (int64_t i = 0; i < m; ++i) {
    if (elems[i]) std::memset(elems[i], 'Z', std::strlen(elems[i]));
  }
  EXPECT_EQ(before, testing::record_bytes(*copy_dst_format(), dst));
}

TEST(CopyLoop, Float4ElementsStayElementByElement) {
  // A float4 copy loads to double and stores back, which quiets a
  // signalling NaN; a byte copy would keep it. The loop is not lowered, so
  // both backends deliver the quieted NaN.
  const uint32_t snan = 0x7F800001u;
  for (ExecBackend backend : exec_backends()) {
    SCOPED_TRACE(backend == ExecBackend::kJit ? "jit" : "vm");
    auto t = Transform::compile(
        "old.k = new.k; for (int i = 0; i < new.k; i++) { old.fs[i] = new.fs[i]; }",
        {{"old", copy_dst_format()}, {"new", copy_src_format()}}, backend);
    EXPECT_TRUE(t.chunk().copy_loops.empty()) << t.disassemble();
    RecordArena arena;
    void* src = copy_src_record(5, arena);
    const auto& fs = *copy_src_format()->find_field("fs");
    auto* elems = static_cast<uint8_t*>(pbio::alloc_dyn_array(arena, 4, 2));
    std::memcpy(elems, &snan, 4);
    const float one = 1.5f;
    std::memcpy(elems + 4, &one, 4);
    pbio::write_pointer(src, fs, elems);
    pbio::write_scalar_i64(src, *copy_src_format()->find_field("k"), 2);
    void* dst = pbio::alloc_record(*copy_dst_format(), arena);
    t.run2(dst, src, arena);
    const auto* out =
        static_cast<const uint8_t*>(pbio::read_pointer(dst, *copy_dst_format()->find_field("fs")));
    uint32_t bits;
    std::memcpy(&bits, out, 4);
    EXPECT_EQ(bits, 0x7FC00001u);
    float second;
    std::memcpy(&second, out + 4, 4);
    EXPECT_EQ(second, 1.5f);
  }
}

TEST(CopyLoop, OtherLoopShapesKeepTheGenericCode) {
  auto compile = [](const std::string& code) {
    return Transform::compile(code, {{"old", copy_dst_format()}, {"new", copy_src_format()}});
  };
  // Bound by the destination's count, a computed element, a non-unit step,
  // a body that writes the index, two arrays, and a source-to-source copy.
  for (const char* code : {
           "old.n = new.n; for (int i = 0; i < old.n; i++) { old.rs[i].ts = new.rs[i].ts; }",
           "for (int i = 0; i < new.n; i++) { old.rs[i].ts = new.rs[i].ts + 1; }",
           "for (int i = 0; i < new.n; i += 2) { old.rs[i].ts = new.rs[i].ts; }",
           "for (int i = 0; i < new.n; i++) { old.rs[i].ts = new.rs[i].ts; i = i + 0; }",
           "for (int i = 0; i < new.n; i++) { old.rs[i].ts = new.rs[i].ts; "
           "old.xs[i] = new.xs[i]; }",
           "for (int i = 0; i < new.m; i++) { old.rs[i].ts = new.rs[i].ts; }",
           "for (int i = 0; i < new.n; i++) { new.rs[i].ts = new.rs[i].ts; }",
       }) {
    SCOPED_TRACE(code);
    EXPECT_TRUE(compile(code).chunk().copy_loops.empty());
  }
}

}  // namespace
}  // namespace morph::ecode
