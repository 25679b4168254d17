// Static verifier (verify.hpp): table-driven negative suite over source
// programs, accepted near-misses, hand-crafted structural chunks, fuel
// instrumentation semantics on both backends, and the verifying
// compile gate.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "ecode/ecode.hpp"
#include "ecode/fuse.hpp"
#include "ecode/verify.hpp"
#include "eco_corpus.hpp"
#include "pbio/format.hpp"
#include "pbio/record.hpp"

namespace morph::ecode {
namespace {

using pbio::FieldKind;
using pbio::FormatBuilder;
using pbio::FormatPtr;

/// Shared fixture format: scalars, a string, a guarded dynamic array, and a
/// 4-element static array.
FormatPtr scratch_format() {
  static FormatPtr fmt = [] {
    auto sub = FormatBuilder("Sub").add_int("v", 4).add_string("name").build();
    return FormatBuilder("Scratch")
        .add_int("i16", 2)
        .add_int("i32", 4)
        .add_string("s")
        .add_int("count", 4)
        .add_dyn_array("items", sub, "count")
        .add_static_array("fixed", FieldKind::kInt, 4, 4)
        .build();
  }();
  return fmt;
}

/// Compile `code` (dst, src over the scratch format) under verification and
/// return the verifier's findings, whether or not it rejected the program.
std::vector<VerifyFinding> findings_for(const std::string& code) {
  CompileOptions o;
  o.backend = ExecBackend::kInterpreter;
  o.verify = true;
  o.fuel_limit = 0;  // report unbounded loops instead of repairing them
  try {
    auto t = Transform::compile(code, {{"dst", scratch_format()}, {"src", scratch_format()}}, o);
    return t.verify_findings();
  } catch (const VerifyError& e) {
    return e.result().findings;
  }
}

/// First error-severity finding, or nullptr.
const VerifyFinding* first_error(const std::vector<VerifyFinding>& fs) {
  for (const auto& f : fs) {
    if (f.severity == VerifySeverity::kError) return &f;
  }
  return nullptr;
}

// --- table-driven negative suite -------------------------------------------

struct NegativeCase {
  const char* name;
  const char* code;
  VerifyCheck check;       // expected check of the first error finding
  int line;                // expected 1-based source line of that finding
  const char* diagnostic;  // substring expected in its field or message
};

// Print a case by name, as PositiveCase does below: stable test ids.
void PrintTo(const NegativeCase& c, std::ostream* os) { *os << c.name; }

class VerifyNegative : public ::testing::TestWithParam<NegativeCase> {};

/// The first error finding for `c.code` is `c.check` at `c.line`, and its
/// field or message names `c.diagnostic`.
void expect_rejected(const NegativeCase& c) {
  auto fs = findings_for(c.code);
  const VerifyFinding* err = first_error(fs);
  ASSERT_NE(err, nullptr) << "program unexpectedly verified clean:\n" << c.code;
  EXPECT_EQ(err->check, c.check) << err->to_string();
  EXPECT_EQ(err->line, c.line) << err->to_string();
  EXPECT_TRUE(err->message.find(c.diagnostic) != std::string::npos ||
              err->field.find(c.diagnostic) != std::string::npos)
      << "diagnostic '" << err->to_string() << "' does not mention '" << c.diagnostic << "'";
}

TEST_P(VerifyNegative, RejectedWithLocatedDiagnostic) { expect_rejected(GetParam()); }

INSTANTIATE_TEST_SUITE_P(
    Table, VerifyNegative,
    ::testing::Values(
        NegativeCase{"StaticArrayOob",
                     "int i = 5;\n"
                     "dst.fixed[i] = 1;",
                     VerifyCheck::kOobAccess, 2, "dst.fixed"},
        NegativeCase{"StaticArrayOffByOne",
                     "int i = 4;\n"
                     "dst.fixed[i] = 1;",
                     VerifyCheck::kOobAccess, 2, "[4, 4]"},
        NegativeCase{"UnguardedDynArrayRead",
                     "dst.i32 = src.items[0].v;",
                     VerifyCheck::kOobAccess, 1, "src.items"},
        NegativeCase{"DynArrayGuardOffByOne",
                     // <= admits index == count: one past the end.
                     "for (int i = 0; i <= src.count; i++) { dst.i32 = src.items[i].v; }",
                     VerifyCheck::kOobAccess, 1, "src.items"},
        NegativeCase{"DynArrayGuardOnWrongField",
                     // Guarded against src.i32, but the array's declared
                     // length field is src.count.
                     "for (int i = 0; i < src.i32; i++) { dst.i32 = src.items[i].v; }",
                     VerifyCheck::kOobAccess, 1, "src.items"},
        NegativeCase{"ReadBeforeAssign",
                     "dst.i32 = dst.i16;",
                     VerifyCheck::kReadBeforeAssign, 1, "dst.i16"}),
    [](const ::testing::TestParamInfo<NegativeCase>& info) { return info.param.name; });

// Outside the table: the table's test ids carry the raw bytes of its
// parameter, which differ from run to run.
TEST(VerifyTermination, UnboundedLoopRejected) {
  expect_rejected(NegativeCase{"UnboundedLoop",
                               "int i = 0;\n"
                               "while (src.i32 < 10) { i = i + 1; }",
                               VerifyCheck::kUnboundedLoop, 2, "termination certificate"});
}

// --- accepted near-misses ---------------------------------------------------

struct PositiveCase {
  const char* name;
  const char* code;
};

// Print a case by name. gtest otherwise prints the raw struct bytes, and
// pointer bytes differ from run to run, which makes the listed test ids
// unstable.
void PrintTo(const PositiveCase& c, std::ostream* os) { *os << c.name; }

class VerifyPositive : public ::testing::TestWithParam<PositiveCase> {};

TEST_P(VerifyPositive, VerifiesClean) {
  auto fs = findings_for(GetParam().code);
  const VerifyFinding* err = first_error(fs);
  EXPECT_EQ(err, nullptr) << "unexpected rejection: " << err->to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Table, VerifyPositive,
    ::testing::Values(
        // The boundary the off-by-one cases miss by one.
        PositiveCase{"StaticArrayLastElement", "dst.fixed[3] = 1;"},
        PositiveCase{"GuardedDynArrayLoop",
                     "dst.count = src.count;\n"
                     "for (int i = 0; i < src.count; i++) {\n"
                     "  dst.items[i].v = src.items[i].v;\n"
                     "  dst.items[i].name = src.items[i].name;\n"
                     "}"},
        PositiveCase{"BoundedStaticArrayLoop",
                     "for (int j = 0; j < 4; j++) { dst.fixed[j] = j; }"},
        PositiveCase{"ReadAfterAssign", "dst.i32 = 5;\ndst.i16 = dst.i32;"},
        PositiveCase{"GuardedSingleElementRead",
                     "int i = 0;\n"
                     "if (i < src.count) { dst.i32 = src.items[i].v; }"}),
    [](const ::testing::TestParamInfo<PositiveCase>& info) { return info.param.name; });

// --- definite assignment ----------------------------------------------------

TEST(VerifyAssignment, UnassignedFieldsAreWarningsByDefault) {
  auto fs = findings_for("dst.i32 = 1;");
  EXPECT_EQ(first_error(fs), nullptr);
  bool saw_i16 = false;
  for (const auto& f : fs) {
    if (f.check == VerifyCheck::kUninitField && f.field == "dst.i16") saw_i16 = true;
  }
  EXPECT_TRUE(saw_i16);
}

TEST(VerifyAssignment, RequireFullAssignmentEscalatesToError) {
  CompileOptions o;
  o.backend = ExecBackend::kInterpreter;
  o.verify = true;
  o.require_full_assignment = true;
  EXPECT_THROW(Transform::compile("dst.i32 = 1;",
                                  {{"dst", scratch_format()}, {"src", scratch_format()}}, o),
               VerifyError);
}

TEST(VerifyAssignment, FullAssignmentSatisfiesStrictMode) {
  CompileOptions o;
  o.backend = ExecBackend::kInterpreter;
  o.verify = true;
  o.require_full_assignment = true;
  auto t = Transform::compile(
      "dst.i16 = 0; dst.i32 = src.i32; dst.s = src.s; dst.count = src.count;\n"
      "for (int i = 0; i < src.count; i++) {\n"
      "  dst.items[i].v = src.items[i].v;\n"
      "  dst.items[i].name = src.items[i].name;\n"
      "}\n"
      "for (int j = 0; j < 4; j++) { dst.fixed[j] = src.fixed[j]; }",
      {{"dst", scratch_format()}, {"src", scratch_format()}}, o);
  EXPECT_EQ(first_error(t.verify_findings()), nullptr);
}

// --- hand-crafted structural chunks ----------------------------------------
// Programs the Ecode compiler can never emit: the verifier is the only line
// of defense before the JIT translates them blindly.

std::vector<RecordParam> two_params() {
  return {{"dst", scratch_format()}, {"src", scratch_format()}};
}

Chunk chunk_of(std::vector<Instr> code, int locals = 0) {
  Chunk c;
  c.code = std::move(code);
  c.local_slots = locals;
  c.param_count = 2;
  c.max_stack = 8;
  return c;
}

bool has_error(const VerifyResult& r, VerifyCheck check) {
  for (const auto& f : r.findings) {
    if (f.severity == VerifySeverity::kError && f.check == check) return true;
  }
  return false;
}

TEST(VerifyStructure, JumpTargetOutOfRange) {
  auto r = verify(chunk_of({{Op::kJmp, 99, 0, 0}, {Op::kRet, 0, 0, 0}}), two_params());
  EXPECT_TRUE(has_error(r, VerifyCheck::kStructure)) << r.to_string();
}

TEST(VerifyStructure, StackUnderflow) {
  auto r = verify(chunk_of({{Op::kAddI, 0, 0, 0}, {Op::kRet, 0, 0, 0}}), two_params());
  EXPECT_TRUE(has_error(r, VerifyCheck::kStackShape)) << r.to_string();
}

TEST(VerifyStructure, LocalIndexOutOfRange) {
  auto r = verify(
      chunk_of({{Op::kLoadLocal, 5, 0, 0}, {Op::kPop, 0, 0, 0}, {Op::kRet, 0, 0, 0}},
               /*locals=*/1),
      two_params());
  EXPECT_TRUE(has_error(r, VerifyCheck::kStructure)) << r.to_string();
}

TEST(VerifyStructure, FloatOpOnIntOperands) {
  auto r = verify(chunk_of({{Op::kConstI, 0, 1, 0},
                            {Op::kConstI, 0, 2, 0},
                            {Op::kAddF, 0, 0, 0},
                            {Op::kPop, 0, 0, 0},
                            {Op::kRet, 0, 0, 0}}),
                  two_params());
  EXPECT_TRUE(has_error(r, VerifyCheck::kTypeConfusion)) << r.to_string();
}

TEST(VerifyStructure, InconsistentStackDepthAtMerge) {
  // Two paths reach pc 4 with depths 1 and 2 — the invariant the JIT's
  // hardware-stack mapping relies on is violated.
  auto r = verify(chunk_of({{Op::kConstI, 0, 1, 0},
                            {Op::kJz, 3, 0, 0},
                            {Op::kConstI, 0, 7, 0},
                            {Op::kConstI, 0, 8, 0},  // depth 1 from pc 1, 2 from pc 2
                            {Op::kPop, 0, 0, 0},
                            {Op::kRet, 0, 0, 0}}),
                  two_params());
  EXPECT_TRUE(has_error(r, VerifyCheck::kStackShape)) << r.to_string();
}

// --- element-copy loops (kCopyLoop) -----------------------------------------

/// A copy loop over the scratch format: one kCopyLoop op whose count is
/// loaded from src.count right before it.
Chunk copy_loop_chunk() {
  auto t = Transform::compile(
      "for (int i = 0; i < src.count; i++) { dst.items[i].v = src.items[i].v; }", two_params(),
      ExecBackend::kInterpreter);
  EXPECT_EQ(t.chunk().copy_loops.size(), 1u) << t.disassemble();
  return t.chunk();
}

int pc_of(const Chunk& c, Op op) {
  for (size_t pc = 0; pc < c.code.size(); ++pc) {
    if (c.code[pc].op == op) return static_cast<int>(pc);
  }
  return -1;
}

TEST(VerifyCopyLoop, LoweredLoopVerifies) {
  auto r = verify(copy_loop_chunk(), two_params());
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(VerifyCopyLoop, CountOtherThanTheLengthFieldIsRejected) {
  const int32_t i32_off = static_cast<int32_t>(scratch_format()->find_field("i32")->offset);
  // The count load is [param.addr src, field.addr count, load.i32] right
  // before the op: aim it at another int4 field, then replace it with a
  // constant.
  Chunk c = copy_loop_chunk();
  const int op = pc_of(c, Op::kCopyLoop);
  ASSERT_GE(op, 3);
  ASSERT_EQ(c.code[static_cast<size_t>(op - 2)].op, Op::kFieldAddr);
  c.code[static_cast<size_t>(op - 2)].imm = i32_off;
  auto r = verify(c, two_params());
  EXPECT_TRUE(has_error(r, VerifyCheck::kOobAccess)) << r.to_string();
  EXPECT_NE(r.to_string().find("not bounded by its length field"), std::string::npos)
      << r.to_string();

  c = copy_loop_chunk();
  c.code[static_cast<size_t>(op - 3)] = {Op::kConstI, 0, 1000, 0};
  c.code[static_cast<size_t>(op - 2)] = {Op::kNop, 0, 0, 0};
  c.code[static_cast<size_t>(op - 1)] = {Op::kNop, 0, 0, 0};
  r = verify(c, two_params());
  EXPECT_TRUE(has_error(r, VerifyCheck::kOobAccess)) << r.to_string();
}

TEST(VerifyCopyLoop, DescriptorMustPairWholeFields) {
  // Sub is {v int4, name string}: a 16-byte run would copy the string
  // pointer, a run past the element reads the next one, and a string copy
  // must pair string fields.
  auto rejects = [](const std::function<void(CopyLoop&)>& edit, VerifyCheck check) {
    Chunk c = copy_loop_chunk();
    edit(c.copy_loops[0]);
    auto r = verify(c, two_params());
    EXPECT_TRUE(has_error(r, check)) << r.to_string();
  };
  rejects([](CopyLoop& l) { l.runs = {{0, 0, 16}}; }, VerifyCheck::kWidthMismatch);
  rejects([](CopyLoop& l) { l.runs = {{0, 0, 2}}; }, VerifyCheck::kWidthMismatch);
  rejects([](CopyLoop& l) { l.runs = {{12, 0, 4}}; }, VerifyCheck::kWidthMismatch);
  rejects([](CopyLoop& l) { l.strings = {{0, 8, 8}}; }, VerifyCheck::kWidthMismatch);
  rejects([](CopyLoop& l) { l.src_stride = 8; }, VerifyCheck::kWidthMismatch);
  Chunk c = copy_loop_chunk();
  c.code[static_cast<size_t>(pc_of(c, Op::kCopyLoop))].a = 3;
  EXPECT_TRUE(has_error(verify(c, two_params()), VerifyCheck::kStructure));
}

/// The large_morph ladder (perfbench/workload.cpp): a scan whose readings
/// gain one element field per revision, copied down four revisions.
TEST(VerifyCopyLoop, LargeMorphFusedChainVerifiesUnderEnforce) {
  auto reading = [](int rev) {
    FormatBuilder b("Reading");
    b.add_int("ts", 8).add_float("v", 8);
    if (rev >= 1) b.add_int("q", 4);
    if (rev >= 2) b.add_int("flags", 4);
    if (rev >= 3) b.add_float("err", 8);
    if (rev >= 4) b.add_int("src", 4);
    return b.build();
  };
  std::vector<FormatPtr> revs;
  for (int rev = 0; rev <= 4; ++rev) {
    FormatBuilder b("Scan");
    b.add_int("seq", 8).add_string("name").add_int("site", 4).add_string("notes");
    b.add_int("nreadings", 4).add_dyn_array("readings", reading(rev), "nreadings");
    if (rev >= 1) b.add_float("gain", 8);
    if (rev >= 2) b.add_int("zone", 4);
    if (rev >= 3) b.add_string("label");
    if (rev >= 4) b.add_int("epoch", 8);
    revs.push_back(pbio::relayout(*b.build()));
  }
  std::vector<FuseHop> hops;
  for (int k = 4; k >= 1; --k) {
    std::string code;
    for (const auto& fd : revs[static_cast<size_t>(k - 1)]->fields()) {
      if (fd.kind != FieldKind::kDynArray) {
        code += "old." + fd.name + " = new." + fd.name + ";\n";
        continue;
      }
      code += "for (int i = 0; i < new." + fd.length_field + "; i++) {\n";
      for (const auto& ef : fd.element_format->fields()) {
        code += "  old." + fd.name + "[i]." + ef.name + " = new." + fd.name + "[i]." + ef.name +
                ";\n";
      }
      code += "}\n";
    }
    hops.push_back(FuseHop{code, "old", "new", revs[static_cast<size_t>(k - 1)]});
  }
  FuseResult fused = fuse_chain(hops, *revs[4]);
  ASSERT_TRUE(fused.ok) << fused.bailout;
  CompileOptions o;
  o.verify = true;
  o.require_full_assignment = true;
  auto t = Transform::compile(fused.source, {{"old", revs[0]}, {"new", revs[4]}}, o);
  EXPECT_FALSE(t.fuel_instrumented());
  ASSERT_EQ(t.chunk().copy_loops.size(), 1u) << t.disassemble();
  // ts and v: one 16-byte run per element, stride 40 -> 16.
  const CopyLoop& loop = t.chunk().copy_loops[0];
  ASSERT_EQ(loop.runs.size(), 1u);
  EXPECT_EQ(loop.runs[0].len, 16u);
  EXPECT_EQ(loop.src_stride, 40u);
  EXPECT_EQ(loop.dst_stride, 16u);
  EXPECT_EQ(first_error(t.verify_findings()), nullptr);
}

TEST(VerifyCopyLoop, CorpusVerifiesUnderEnforceAsBefore) {
  // Per bundle, which hops compile under verification ("+copy": with a
  // kCopyLoop op): every hop did before element-copy loops ran as one op.
  // None is a pure copy loop; each loop computes or branches per element.
  const std::map<std::string, std::string> expected = {
      {"b2b_supplier_a.eco", "ok "},
      {"echo_response_v2_v1.eco", "ok "},
      {"quickstart_retro.eco", "ok "},
      {"sensor_fusion_chain.eco", "ok ok ok "},
      {"telemetry_chain.eco", "ok ok "},
  };
  std::map<std::string, std::string> seen;
  for (const auto& entry : std::filesystem::directory_iterator(MORPH_TRANSFORMS_DIR)) {
    if (entry.path().extension() != ".eco") continue;
    std::string verdicts;
    for (const auto& spec : tools::read_bundle(entry.path().string())) {
      CompileOptions o;
      o.verify = true;
      try {
        auto t = Transform::compile(spec.code, {{spec.dst_param, pbio::relayout(*spec.dst)},
                                                {spec.src_param, pbio::relayout(*spec.src)}},
                                    o);
        verdicts += "ok";
        if (!t.chunk().copy_loops.empty()) verdicts += "+copy";
        verdicts += " ";
      } catch (const VerifyError&) {
        verdicts += "rejected ";
      }
    }
    seen[entry.path().filename().string()] = verdicts;
  }
  EXPECT_EQ(seen, expected);
}

// --- fuel instrumentation ---------------------------------------------------

class VerifyFuel : public ::testing::TestWithParam<ExecBackend> {};

TEST_P(VerifyFuel, UncertifiableLoopIsRepairedAndTerminates) {
  if (GetParam() == ExecBackend::kJit && !jit_supported()) GTEST_SKIP();
  CompileOptions o;
  o.backend = GetParam();
  o.verify = true;
  o.fuel_limit = 1000;
  // The condition never mentions a loop local: no termination certificate,
  // and with src.i32 == 0 the loop really is infinite. Verification must
  // repair it with a fuel guard instead of rejecting it.
  auto t = Transform::compile(
      "dst.i16 = 0; dst.i32 = 0; dst.s = src.s; dst.count = 0;\n"
      "while (src.i32 == 0) { dst.i32 = dst.i32 + 1; }",
      two_params(), o);
  EXPECT_TRUE(t.fuel_instrumented());

  RecordArena arena;
  void* dst = pbio::alloc_record(*scratch_format(), arena);
  void* src = pbio::alloc_record(*scratch_format(), arena);
  t.run2(dst, src, arena);  // must return, not spin
  auto made = pbio::RecordRef(dst, scratch_format()).get_int("i32");
  EXPECT_GT(made, 0);
  EXPECT_LE(made, 1000);
}

TEST_P(VerifyFuel, FuelGuardLeavesTerminatingLoopsAlone) {
  if (GetParam() == ExecBackend::kJit && !jit_supported()) GTEST_SKIP();
  CompileOptions o;
  o.backend = GetParam();
  o.verify = true;
  o.fuel_limit = 1000;
  auto t = Transform::compile("dst.i32 = 0;\nfor (int i = 0; i < 10; i++) { dst.i32 = dst.i32 + i; }",
                              two_params(), o);
  EXPECT_FALSE(t.fuel_instrumented());
  RecordArena arena;
  void* dst = pbio::alloc_record(*scratch_format(), arena);
  void* src = pbio::alloc_record(*scratch_format(), arena);
  t.run2(dst, src, arena);
  EXPECT_EQ(pbio::RecordRef(dst, scratch_format()).get_int("i32"), 45);
}

INSTANTIATE_TEST_SUITE_P(Backends, VerifyFuel,
                         ::testing::Values(ExecBackend::kInterpreter, ExecBackend::kJit),
                         [](const ::testing::TestParamInfo<ExecBackend>& info) {
                           return info.param == ExecBackend::kJit ? "Jit" : "Vm";
                         });

// --- enforce gate -----------------------------------------------------------

TEST(VerifyEnforce, RejectsBeforeAnyExecutableExists) {
  CompileOptions o;
  o.verify = true;
  try {
    Transform::compile("dst.i32 = src.items[0].v;", two_params(), o);
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_FALSE(e.result().ok());
    const VerifyFinding* err = first_error(e.result().findings);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(err->check, VerifyCheck::kOobAccess);
    EXPECT_EQ(e.line(), err->line);
  }
}

}  // namespace
}  // namespace morph::ecode
