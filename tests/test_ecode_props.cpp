// Property tests for Ecode: randomly generated programs executed on both
// backends must produce bit-identical destination records. This is the
// broad-spectrum differential test behind the hand-written semantic suite —
// several hundred generated programs covering arithmetic, comparisons,
// conversions, control flow, compound assignment, and element-copy loops.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "ecode/ecode.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/randgen.hpp"
#include "pbio/record.hpp"

namespace morph::ecode {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;

FormatPtr fields_format() {
  static FormatPtr fmt = [] {
    auto elem = FormatBuilder("Elem").add_int("v", 4).add_float("w", 8).build();
    return FormatBuilder("F")
        .add_int("i0", 1)
        .add_int("i1", 2)
        .add_int("i2", 4)
        .add_int("i3", 8)
        .add_uint("u0", 1)
        .add_uint("u1", 4)
        .add_float("f0", 4)
        .add_float("f1", 8)
        .add_int("acount", 4)
        .add_dyn_array("arr", elem, "acount")
        .build();
  }();
  return fmt;
}

/// Generates random (terminating, well-typed) Ecode programs.
class ProgramGen {
 public:
  explicit ProgramGen(uint64_t seed) : rng_(seed), loop_rng_(seed ^ 0x5eedC0B1ull) {}

  /// A random program; with `copy_loop`, the same program with one
  /// canonical element-copy loop (drawn from its own stream, so the rest of
  /// the program is the one `generate(false)` gives) before the locals are
  /// observed.
  std::string generate(bool copy_loop = false) {
    code_.clear();
    int_locals_ = 0;
    float_locals_ = 0;
    // A few locals to work with.
    int ints = 1 + static_cast<int>(rng_.next_below(3));
    for (int i = 0; i < ints; ++i) {
      code_ += "int a" + std::to_string(int_locals_++) + " = " + int_expr(1) + ";\n";
    }
    int floats = 1 + static_cast<int>(rng_.next_below(2));
    for (int i = 0; i < floats; ++i) {
      code_ += "float g" + std::to_string(float_locals_++) + " = " + float_expr(1) + ";\n";
    }
    int stmts = 3 + static_cast<int>(rng_.next_below(6));
    for (int i = 0; i < stmts; ++i) statement(0);
    if (copy_loop) element_copy_loop();
    // Make every local observable.
    code_ += "dst.i3 = ";
    for (int i = 0; i < int_locals_; ++i) {
      if (i > 0) code_ += " + ";
      code_ += "a" + std::to_string(i);
    }
    code_ += ";\n";
    code_ += "dst.f1 = ";
    for (int i = 0; i < float_locals_; ++i) {
      if (i > 0) code_ += " + ";
      code_ += "g" + std::to_string(i);
    }
    code_ += ";\n";
    return code_;
  }

 private:
  static const char* int_field(Rng& rng) {
    static const char* kFields[] = {"i0", "i1", "i2", "i3", "u0", "u1"};
    return kFields[rng.next_below(6)];
  }  // NOTE: never "acount" — stores to it would desync the arr list length
  static const char* float_field(Rng& rng) {
    return rng.next_bool() ? "f0" : "f1";
  }

  std::string int_atom() {
    if (!cur_idx_.empty() && rng_.next_below(4) == 0) {
      return "src.arr[" + cur_idx_ + "].v";
    }
    switch (rng_.next_below(4)) {
      case 0:
        return std::to_string(rng_.next_range(-1000, 1000));
      case 1:
        if (int_locals_ > 0) return "a" + std::to_string(rng_.next_below(int_locals_));
        return std::to_string(rng_.next_range(0, 9));
      case 2:
        return std::string("src.") + int_field(rng_);
      default:
        return std::string("dst.") + int_field(rng_);
    }
  }

  std::string float_atom() {
    if (!cur_idx_.empty() && rng_.next_below(4) == 0) {
      return "src.arr[" + cur_idx_ + "].w";
    }
    switch (rng_.next_below(4)) {
      case 0: {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f", rng_.next_double() * 100 - 50);
        return buf;
      }
      case 1:
        if (float_locals_ > 0) return "g" + std::to_string(rng_.next_below(float_locals_));
        return "1.5";
      case 2:
        return std::string("src.") + float_field(rng_);
      default:
        return std::string("dst.") + float_field(rng_);
    }
  }

  std::string int_expr(int depth) {
    if (depth >= 4 || rng_.next_below(3) == 0) return int_atom();
    switch (rng_.next_below(10)) {
      case 0:
        return "(" + int_expr(depth + 1) + " + " + int_expr(depth + 1) + ")";
      case 1:
        return "(" + int_expr(depth + 1) + " - " + int_expr(depth + 1) + ")";
      case 2:
        return "(" + int_expr(depth + 1) + " * " + int_expr(depth + 1) + ")";
      case 3:
        return "(" + int_expr(depth + 1) + " / " + int_expr(depth + 1) + ")";
      case 4:
        return "(" + int_expr(depth + 1) + " % " + int_expr(depth + 1) + ")";
      case 5: {
        static const char* kCmp[] = {"<", "<=", ">", ">=", "==", "!="};
        if (rng_.next_bool()) {
          return "(" + float_expr(depth + 1) + " " + kCmp[rng_.next_below(6)] + " " +
                 float_expr(depth + 1) + ")";
        }
        return "(" + int_expr(depth + 1) + " " + kCmp[rng_.next_below(6)] + " " +
               int_expr(depth + 1) + ")";
      }
      case 6: {
        static const char* kBit[] = {"&", "|", "^"};
        return "(" + int_expr(depth + 1) + " " + kBit[rng_.next_below(3)] + " " +
               int_expr(depth + 1) + ")";
      }
      case 7:
        // Bounded shift counts keep semantics obvious; both backends mask
        // to 63 anyway.
        return "(" + int_expr(depth + 1) + (rng_.next_bool() ? " << " : " >> ") +
               std::to_string(rng_.next_below(8)) + ")";
      case 8: {
        const char* fn[] = {"abs", "min", "max"};
        int pick = static_cast<int>(rng_.next_below(3));
        if (pick == 0) return "abs(" + int_expr(depth + 1) + ")";
        return std::string(fn[pick]) + "(" + int_expr(depth + 1) + ", " + int_expr(depth + 1) +
               ")";
      }
      default:
        return "(" + int_expr(depth + 1) + " ? " + int_expr(depth + 1) + " : " +
               int_expr(depth + 1) + ")";
    }
  }

  std::string float_expr(int depth) {
    if (depth >= 4 || rng_.next_below(3) == 0) return float_atom();
    switch (rng_.next_below(6)) {
      case 0:
        return "(" + float_expr(depth + 1) + " + " + float_expr(depth + 1) + ")";
      case 1:
        return "(" + float_expr(depth + 1) + " - " + float_expr(depth + 1) + ")";
      case 2:
        return "(" + float_expr(depth + 1) + " * " + float_expr(depth + 1) + ")";
      case 3:
        // Mixed int/float arithmetic exercises the promotion paths.
        return "(" + int_expr(depth + 1) + " * " + float_expr(depth + 1) + ")";
      case 4: {
        const char* fn[] = {"abs", "min", "max"};
        int pick = static_cast<int>(rng_.next_below(3));
        if (pick == 0) return "abs(" + float_expr(depth + 1) + ")";
        return std::string(fn[pick]) + "(" + float_expr(depth + 1) + ", " +
               float_expr(depth + 1) + ")";
      }
      default:
        return "(" + int_expr(depth + 1) + " ? " + float_expr(depth + 1) + " : " +
               float_expr(depth + 1) + ")";
    }
  }

  void statement(int depth) {
    switch (rng_.next_below(depth >= 2 ? 4 : 7)) {
      case 0: {  // int field assignment
        code_ += std::string("dst.") + int_field(rng_) + " = " + int_expr(0) + ";\n";
        return;
      }
      case 1: {  // float field assignment
        code_ += std::string("dst.") + float_field(rng_) + " = " + float_expr(0) + ";\n";
        return;
      }
      case 2: {  // local compound assignment
        if (int_locals_ == 0) {
          code_ += std::string("dst.i2 = ") + int_expr(0) + ";\n";
          return;
        }
        static const char* kOps[] = {"+=", "-=", "*=", "="};
        code_ += "a" + std::to_string(rng_.next_below(int_locals_)) + " " +
                 kOps[rng_.next_below(4)] + " " + int_expr(0) + ";\n";
        return;
      }
      case 3: {  // float local assignment
        if (float_locals_ == 0) return;
        code_ += "g" + std::to_string(rng_.next_below(float_locals_)) + " = " + float_expr(0) +
                 ";\n";
        return;
      }
      case 4: {  // if/else
        code_ += "if (" + int_expr(0) + ") {\n";
        statement(depth + 1);
        code_ += "} else {\n";
        statement(depth + 1);
        code_ += "}\n";
        return;
      }
      case 5: {  // bounded for loop
        std::string v = "L" + std::to_string(var_counter_++);
        code_ += "for (int " + v + " = 0; " + v + " < " +
                 std::to_string(1 + rng_.next_below(6)) + "; " + v + "++) {\n";
        statement(depth + 1);
        code_ += "}\n";
        return;
      }
      default: {  // array-processing loop over the source dyn array
        if (!cur_idx_.empty()) {  // no nested array loops
          statement(depth + 1);
          return;
        }
        std::string v = "A" + std::to_string(var_counter_++);
        cur_idx_ = v;
        code_ += "for (int " + v + " = 0; " + v + " < src.acount; " + v + "++) {\n";
        code_ += "  dst.arr[" + v + "].v = " + int_expr(1) + ";\n";
        code_ += "  dst.arr[" + v + "].w = " + float_expr(1) + ";\n";
        if (rng_.next_bool()) {
          code_ += "  if (" + int_expr(1) + ") continue;\n";
          code_ += "  dst.arr[" + v + "].v = dst.arr[" + v + "].v + 1;\n";
        }
        code_ += "}\n";
        code_ += "dst.acount = src.acount;\n";
        cur_idx_.clear();
        return;
      }
    }
  }

  /// A canonical element-copy loop: one kCopyLoop op. Half of the loops
  /// count in an existing local, which the program then observes.
  void element_copy_loop() {
    bool reuse = int_locals_ > 0 && loop_rng_.next_bool();
    std::string v = reuse ? "a" + std::to_string(loop_rng_.next_below(int_locals_))
                          : "C" + std::to_string(var_counter_++);
    code_ += "for (" + (reuse ? v : "int " + v) + " = 0; " + v + " < src.acount; " + v +
             "++) {\n";
    const char* fields[] = {"v", "w"};
    if (loop_rng_.next_bool()) std::swap(fields[0], fields[1]);
    int copies = 1 + static_cast<int>(loop_rng_.next_below(2));
    for (int k = 0; k < copies; ++k) {
      code_ += "  dst.arr[" + v + "]." + fields[k] + " = src.arr[" + v + "]." + fields[k] + ";\n";
    }
    code_ += "}\n";
    code_ += "dst.acount = src.acount;\n";
  }

  Rng rng_;
  Rng loop_rng_;  // element_copy_loop() only
  std::string code_;
  std::string cur_idx_;  // loop variable when inside an array loop
  int int_locals_ = 0;
  int float_locals_ = 0;
  int var_counter_ = 0;
};

class EcodeDifferential : public ::testing::TestWithParam<int> {};

TEST_P(EcodeDifferential, VmAndJitAgree) {
  if (!jit_supported()) GTEST_SKIP() << "no JIT on this platform";
  uint64_t base_seed = static_cast<uint64_t>(GetParam()) * 7919;
  auto fmt = fields_format();

  size_t copy_loops = 0;
  for (int iter = 0; iter < 25; ++iter) {
    for (bool with_loop : {false, true}) {
      ProgramGen gen(base_seed + static_cast<uint64_t>(iter));
      std::string code = gen.generate(with_loop);

      std::optional<Transform> vm, jit;
      try {
        vm.emplace(
            Transform::compile(code, {{"dst", fmt}, {"src", fmt}}, ExecBackend::kInterpreter));
        jit.emplace(Transform::compile(code, {{"dst", fmt}, {"src", fmt}}, ExecBackend::kJit));
      } catch (const EcodeError& e) {
        FAIL() << "generator produced invalid program: " << e.what() << "\n" << code;
      }

      // Random but identical inputs for both runs (arrays included).
      Rng data_rng(base_seed ^ 0xABCDEF ^ static_cast<uint64_t>(iter));
      RecordArena arena;
      void* src = pbio::from_dyn(pbio::random_dyn(data_rng, fmt), arena);
      void* dst_vm = pbio::alloc_record(*fmt, arena);
      void* dst_jit = pbio::alloc_record(*fmt, arena);

      if (with_loop) copy_loops += jit->chunk().copy_loops.size();
      vm->run2(dst_vm, src, arena);
      jit->run2(dst_jit, src, arena);

      auto a = pbio::to_dyn(*fmt, dst_vm);
      auto b = pbio::to_dyn(*fmt, dst_jit);
      ASSERT_EQ(a, b) << "divergence at iter " << iter << " seed " << base_seed
                      << (with_loop ? " with a copy loop" : "") << "\n--- program ---\n"
                      << code << "\n--- vm ---\n"
                      << pbio::to_debug_string(a) << "\n--- jit ---\n"
                      << pbio::to_debug_string(b);
    }
  }
  EXPECT_GT(copy_loops, 0u) << "no generated program ran a lowered element-copy loop";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcodeDifferential, ::testing::Range(0, 12));

}  // namespace
}  // namespace morph::ecode
