// Chain fusion (ecode/fuse.hpp + MorphChain): the fused single-pass
// execution must be byte-for-byte identical to the hop-wise oracle, and
// every construct the rewriter cannot prove equivalent must bail back to
// hop-wise execution instead of fusing wrong code.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/transform.hpp"
#include "ecode/fuse.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/randgen.hpp"
#include "pbio/record.hpp"
#include "record_bytes.hpp"

#ifndef MORPH_TRANSFORMS_DIR
#define MORPH_TRANSFORMS_DIR "examples/transforms"
#endif

namespace morph::core {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;

TransformSpec spec_of(FormatPtr src, FormatPtr dst, std::string code) {
  TransformSpec s;
  s.src = std::move(src);
  s.dst = std::move(dst);
  s.code = std::move(code);
  return s;
}

MorphChain make_chain(const std::vector<TransformSpec>& specs, bool verify = false,
                      ecode::ExecBackend backend = ecode::ExecBackend::kAuto) {
  std::vector<const TransformSpec*> ptrs;
  for (const auto& s : specs) ptrs.push_back(&s);
  ecode::CompileOptions opts;
  opts.verify = verify;
  opts.backend = backend;
  return MorphChain(ptrs, opts);
}

/// The backends every fused program must agree on: the bytecode VM always,
/// native code when this process may emit it (not under MORPH_DISABLE_JIT).
std::vector<ecode::ExecBackend> backends() {
  std::vector<ecode::ExecBackend> out{ecode::ExecBackend::kInterpreter};
  if (ecode::jit_supported()) out.push_back(ecode::ExecBackend::kJit);
  return out;
}

size_t count_of(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

/// Run `chain` fused and hop-wise over `iters` random records of its source
/// format and require identical boxed results.
void expect_differential(const MorphChain& chain, int iters, uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < iters; ++i) {
    RecordArena arena;
    // Box the input once and materialize it twice so a hop that writes into
    // its own source record cannot couple the two executions.
    pbio::DynValue input = pbio::random_dyn(rng, chain.src_format());
    void* src_fused = pbio::from_dyn(input, arena);
    void* src_hopwise = pbio::from_dyn(input, arena);
    pbio::DynValue fused = pbio::to_dyn(*chain.dst_format(), chain.apply(src_fused, arena));
    pbio::DynValue hopwise =
        pbio::to_dyn(*chain.dst_format(), chain.apply_hopwise(src_hopwise, arena));
    ASSERT_EQ(fused, hopwise) << "iteration " << i << "\ninput:\n"
                              << pbio::to_debug_string(input) << "\nfused:\n"
                              << pbio::to_debug_string(fused) << "\nhop-wise:\n"
                              << pbio::to_debug_string(hopwise) << "\nfused source:\n"
                              << chain.fused_source();
  }
}

// --- bail-out conditions ----------------------------------------------------

TEST(Fusion, SingleHopDoesNotFuse) {
  auto fmt = FormatBuilder("M").add_int("x", 8).build();
  auto chain = make_chain({spec_of(fmt, fmt, "old.x = new.x;")});
  EXPECT_FALSE(chain.fused());
  EXPECT_EQ(chain.fusion_bailout(), "single-hop chain");
}

TEST(Fusion, StringIntermediateBails) {
  // A string stamped from a literal has no source field to forward from;
  // once a later hop reads it, fusion must give up.
  auto a = FormatBuilder("M").add_int("x", 8).build();
  auto mid = FormatBuilder("Mid").add_int("x", 8).add_string("s").build();
  auto c = FormatBuilder("O").add_int("x", 8).build();
  auto chain = make_chain({spec_of(a, mid, "old.x = new.x; old.s = \"hi\";"),
                           spec_of(mid, c, "old.x = new.x + strlen(new.s);")});
  EXPECT_FALSE(chain.fused());
  EXPECT_NE(chain.fusion_bailout().find("'Mid.s' is read but cannot be forwarded: not a verbatim "
                                        "copy of a source field"),
            std::string::npos)
      << chain.fusion_bailout();
  // The chain still runs, hop-wise.
  RecordArena arena;
  auto* src = static_cast<int64_t*>(pbio::alloc_record(*chain.src_format(), arena));
  *src = 7;
  auto* out = static_cast<int64_t*>(chain.apply(src, arena));
  EXPECT_EQ(*out, 9);
}

TEST(Fusion, UnreadStringIntermediateGetsNoCode) {
  // The same literal string, never read downstream: the field is dead, so
  // its write disappears and the chain fuses.
  auto a = FormatBuilder("M").add_int("x", 8).build();
  auto mid = FormatBuilder("Mid").add_int("x", 8).add_string("s").build();
  auto c = FormatBuilder("O").add_int("x", 8).build();
  auto chain = make_chain({spec_of(a, mid, "old.x = new.x; old.s = \"hi\";"),
                           spec_of(mid, c, "old.x = new.x;")});
  ASSERT_TRUE(chain.fused()) << chain.fusion_bailout();
  EXPECT_EQ(chain.fused_source().find("hi"), std::string::npos) << chain.fused_source();
  expect_differential(chain, 16, 12);
}

TEST(Fusion, Float32IntermediateBails) {
  auto a = FormatBuilder("M").add_float("v", 8).build();
  auto mid = FormatBuilder("Mid").add_float("v", 4).build();
  auto c = FormatBuilder("O").add_float("v", 8).build();
  auto chain =
      make_chain({spec_of(a, mid, "old.v = new.v;"), spec_of(mid, c, "old.v = new.v;")});
  EXPECT_FALSE(chain.fused());
  EXPECT_NE(chain.fusion_bailout().find("narrower than f64"), std::string::npos)
      << chain.fusion_bailout();
}

TEST(Fusion, ReturnInNonFinalHopBails) {
  auto a = FormatBuilder("M").add_int("x", 8).build();
  auto b = FormatBuilder("N").add_int("x", 8).build();
  auto c = FormatBuilder("O").add_int("x", 8).build();
  auto chain = make_chain({spec_of(a, b, "old.x = new.x; if (new.x < 0) { return; } old.x = 1;"),
                           spec_of(b, c, "old.x = new.x;")});
  EXPECT_FALSE(chain.fused());
  EXPECT_NE(chain.fusion_bailout().find("return"), std::string::npos) << chain.fusion_bailout();
}

TEST(Fusion, ForStepTruncatingWriteBails) {
  auto a = FormatBuilder("M").add_int("x", 8).build();
  auto mid = FormatBuilder("Mid").add_int("n", 4).build();
  auto c = FormatBuilder("O").add_int("x", 8).build();
  auto chain =
      make_chain({spec_of(a, mid, "for (old.n = 0; old.n < new.x % 10; old.n++) { }"),
                  spec_of(mid, c, "old.x = new.n;")});
  EXPECT_FALSE(chain.fused());
  EXPECT_NE(chain.fusion_bailout().find("for-step"), std::string::npos)
      << chain.fusion_bailout();
  expect_differential(chain, 16, 11);
}

// --- fused execution vs the hop-wise oracle ---------------------------------

TEST(Fusion, ScalarChainFusesAndMatches) {
  auto a = FormatBuilder("M").add_int("x", 8).add_float("f", 8).build();
  auto b = FormatBuilder("N").add_int("x", 8).add_float("f", 8).build();
  auto c = FormatBuilder("O").add_int("x", 8).add_float("f", 8).build();
  auto chain = make_chain({spec_of(a, b, "old.x = new.x * 3; old.f = new.f + 1.5;"),
                           spec_of(b, c, "old.x = new.x - 1; old.f = new.f * new.f;")});
  ASSERT_TRUE(chain.fused()) << chain.fusion_bailout();
  EXPECT_EQ(chain.hops(), 2u);
  expect_differential(chain, 64, 1);
}

TEST(Fusion, TruncatingIntermediatesMatchRecordSemantics) {
  // Every narrow scalar flavor: stores through real record fields truncate
  // and reads re-extend; the fused locals must reproduce that exactly.
  auto wide = FormatBuilder("W")
                  .add_int("i1", 8)
                  .add_int("i2", 8)
                  .add_int("i4", 8)
                  .add_int("u1", 8)
                  .add_int("u2", 8)
                  .add_int("ch", 8)
                  .add_int("en", 8)
                  .build();
  auto mid = FormatBuilder("Mid")
                 .add_int("i1", 1)
                 .add_int("i2", 2)
                 .add_int("i4", 4)
                 .add_uint("u1", 1)
                 .add_uint("u2", 2)
                 .add_char("ch")
                 .add_enum("en", {{"a", 0}, {"b", 1}})
                 .build();
  auto out = FormatBuilder("Out")
                 .add_int("i1", 8)
                 .add_int("i2", 8)
                 .add_int("i4", 8)
                 .add_int("u1", 8)
                 .add_int("u2", 8)
                 .add_int("ch", 8)
                 .add_int("en", 8)
                 .build();
  auto chain = make_chain(
      {spec_of(wide, mid,
               "old.i1 = new.i1; old.i2 = new.i2; old.i4 = new.i4;"
               "old.u1 = new.u1; old.u2 = new.u2; old.ch = new.ch; old.en = new.en;"),
       spec_of(mid, out,
               "old.i1 = new.i1; old.i2 = new.i2; old.i4 = new.i4;"
               "old.u1 = new.u1; old.u2 = new.u2; old.ch = new.ch; old.en = new.en;")});
  ASSERT_TRUE(chain.fused()) << chain.fusion_bailout();
  expect_differential(chain, 128, 2);
}

TEST(Fusion, CompoundAssignAndIncDecOnIntermediates) {
  auto a = FormatBuilder("M").add_int("x", 8).build();
  auto mid = FormatBuilder("Mid").add_int("acc", 2).build();
  auto c = FormatBuilder("O").add_int("x", 8).build();
  auto chain = make_chain(
      {spec_of(a, mid,
               "old.acc = new.x;"
               "old.acc += new.x * 7; old.acc -= 3; old.acc *= 5;"
               "old.acc++; old.acc--; old.acc++;"),
       spec_of(mid, c, "old.x = new.acc;")});
  ASSERT_TRUE(chain.fused()) << chain.fusion_bailout();
  expect_differential(chain, 128, 3);
}

TEST(Fusion, ControlFlowAndLocalRenaming) {
  // Both hops declare locals with the same names to exercise the per-hop
  // renaming; loops, conditionals, and ?: ride along.
  auto a = FormatBuilder("M").add_int("n", 8).add_int("x", 8).build();
  auto mid = FormatBuilder("Mid").add_int("sum", 4).add_int("n", 4).build();
  auto c = FormatBuilder("O").add_int("sum", 8).add_int("parity", 8).build();
  auto chain = make_chain(
      {spec_of(a, mid,
               "long tmp = new.x; long acc = 0;"
               "for (int i = 0; i < (new.n % 8 + 8) % 8; i++) { acc += tmp + i; }"
               "old.sum = acc; old.n = new.n;"),
       spec_of(mid, c,
               "long acc = new.sum > 0 ? new.sum : -new.sum;"
               "while (acc > 1000) { acc /= 2; }"
               "do { acc++; } while (acc < 0);"
               "old.sum = acc; old.parity = new.n % 2 == 0;")});
  ASSERT_TRUE(chain.fused()) << chain.fusion_bailout();
  expect_differential(chain, 64, 4);
}

TEST(Fusion, FinalHopWritesStringsAndDynArrays) {
  // The intermediate is scalar, but the real destination keeps its full
  // shape: the final hop fans a scalar count out into a dynamic array and
  // stamps a string literal.
  auto a = FormatBuilder("M").add_int("n", 8).build();
  auto mid = FormatBuilder("Mid").add_int("n", 4).build();
  auto c = FormatBuilder("O")
               .add_string("unit")
               .add_int("count", 4)
               .add_dyn_array("xs", pbio::FieldKind::kInt, 8, "count")
               .build();
  auto chain = make_chain(
      {spec_of(a, mid, "old.n = (new.n % 5 + 5) % 5;"),
       spec_of(mid, c,
               "old.unit = \"widgets\"; old.count = new.n;"
               "for (int i = 0; i < new.n; i++) { old.xs[i] = i * i; }")});
  ASSERT_TRUE(chain.fused()) << chain.fusion_bailout();
  expect_differential(chain, 64, 5);
}

TEST(Fusion, ThreeHopsWithEnforcedVerification) {
  auto a = FormatBuilder("M").add_int("x", 8).build();
  auto b = FormatBuilder("N").add_int("x", 4).build();
  auto c = FormatBuilder("O").add_int("x", 2).build();
  auto d = FormatBuilder("P").add_int("x", 8).build();
  auto chain = make_chain({spec_of(a, b, "old.x = new.x + 1;"),
                           spec_of(b, c, "old.x = new.x * 3;"),
                           spec_of(c, d, "old.x = new.x - 7;")},
                          /*verify=*/true);
  ASSERT_TRUE(chain.fused()) << chain.fusion_bailout();
  EXPECT_EQ(chain.hops(), 3u);
  expect_differential(chain, 64, 6);
}

TEST(Fusion, VerifyFindingsReturnsStableReference) {
  auto a = FormatBuilder("M").add_int("x", 8).build();
  auto b = FormatBuilder("N").add_int("x", 8).add_int("y", 8).build();
  auto chain = make_chain({spec_of(a, b, "old.x = new.x;")}, /*verify=*/true);
  const auto& first = chain.verify_findings();
  const auto& second = chain.verify_findings();
  EXPECT_EQ(&first, &second);
}

// --- copy-forwarding through strings and dynamic arrays ----------------------

/// Retro-transform copying every field of `dst` from the same-named field
/// of its source: scalars and strings by assignment, dynamic arrays
/// element-wise (struct elements field by field, except fields named
/// "keep") in a canonical loop over the source's count. The shape a
/// schema-evolution tool emits for a revision that only adds fields.
/// `as_while` writes each loop as the equivalent `while` loop, which
/// neither fuses nor runs as one copy op: the element-by-element oracle.
std::string copy_code(const pbio::FormatDescriptor& dst, bool as_while = false) {
  std::string code;
  for (const auto& fd : dst.fields()) {
    if (fd.kind != pbio::FieldKind::kDynArray) {
      code += "old." + fd.name + " = new." + fd.name + ";\n";
      continue;
    }
    if (as_while) {
      code += "{ int i = 0; while (i < new." + fd.length_field + ") {\n";
    } else {
      code += "for (int i = 0; i < new." + fd.length_field + "; i++) {\n";
    }
    if (fd.element_format == nullptr) {
      code += "  old." + fd.name + "[i] = new." + fd.name + "[i];\n";
    } else {
      for (const auto& ef : fd.element_format->fields()) {
        if (ef.name == "keep") continue;
        code += "  old." + fd.name + "[i]." + ef.name + " = new." + fd.name + "[i]." + ef.name +
                ";\n";
      }
    }
    code += as_while ? "  i++;\n} }\n" : "}\n";
  }
  return code;
}

/// Specs from the newest revision down to rev 0, one copy hop per step.
std::vector<TransformSpec> ladder(const std::vector<FormatPtr>& revs, bool as_while = false) {
  std::vector<TransformSpec> specs;
  for (size_t k = revs.size() - 1; k >= 1; --k) {
    specs.push_back(spec_of(revs[k], revs[k - 1], copy_code(*revs[k - 1], as_while)));
  }
  return specs;
}

/// A scan of sensor readings in 5 revisions: every revision adds a record
/// field and one element field to the readings array of structs.
std::vector<TransformSpec> scan_ladder(bool as_while = false) {
  std::vector<FormatPtr> revs;
  for (int rev = 0; rev <= 4; ++rev) {
    FormatBuilder r("Reading");
    r.add_int("ts", 8).add_float("v", 8);
    if (rev >= 1) r.add_int("q", 4);
    if (rev >= 2) r.add_int("flags", 4);
    if (rev >= 3) r.add_float("err", 8);
    if (rev >= 4) r.add_int("src", 4);
    FormatBuilder b("Scan");
    b.add_int("seq", 8).add_string("name").add_int("site", 4).add_string("notes");
    b.add_int("nreadings", 4).add_dyn_array("readings", r.build(), "nreadings");
    if (rev >= 1) b.add_float("gain", 8);
    if (rev >= 2) b.add_int("zone", 4);
    if (rev >= 3) b.add_string("label");
    if (rev >= 4) b.add_int("epoch", 8);
    revs.push_back(b.build());
  }
  return ladder(revs, as_while);
}

/// A small tick in 3 revisions: strings, an int array, and a station id
/// that narrows from int8 to int4 on the way down.
std::vector<TransformSpec> tick_ladder(bool as_while = false) {
  std::vector<FormatPtr> revs;
  for (int rev = 0; rev <= 2; ++rev) {
    FormatBuilder b("Tick");
    b.add_int("seq", 8).add_int("station", rev >= 2 ? 8 : 4).add_int("kind", 4);
    b.add_float("value", 8).add_string("tag").add_int("nsamples", 4);
    b.add_dyn_array("samples", pbio::FieldKind::kInt, 4, "nsamples");
    if (rev >= 1) b.add_int("flags", 4).add_string("unit");
    if (rev >= 2) b.add_float("quality", 8);
    revs.push_back(b.build());
  }
  return ladder(revs, as_while);
}

/// A notebook in 3 revisions: an array of strings, and notes whose oldest
/// revision carries a `keep` field no hop writes, so the final copy leaves
/// a gap inside every element.
std::vector<TransformSpec> notes_ladder(bool as_while = false) {
  std::vector<FormatPtr> revs;
  for (int rev = 0; rev <= 2; ++rev) {
    FormatBuilder n("Note");
    n.add_int("id", 4);
    if (rev == 0) n.add_int("keep", 2);
    n.add_string("text").add_float("w", 8);
    if (rev >= 2) n.add_int("lvl", 4);
    FormatBuilder b("Book");
    b.add_int("ntags", 4).add_dyn_array("tags", pbio::FieldKind::kString, 0, "ntags");
    b.add_int("nnotes", 2).add_dyn_array("notes", n.build(), "nnotes");
    if (rev >= 1) b.add_string("owner");
    revs.push_back(b.build());
  }
  return ladder(revs, as_while);
}

TEST(FusionWorkload, ScanLadderFusesIntoOneCopyPass) {
  auto specs = scan_ladder();
  for (bool verify : {false, true}) {
    for (auto backend : backends()) {
      SCOPED_TRACE(::testing::Message() << "verify " << verify << " backend "
                                        << static_cast<int>(backend));
      auto chain = make_chain(specs, verify, backend);
      ASSERT_TRUE(chain.fused()) << chain.fusion_bailout();
      EXPECT_EQ(chain.hops(), 4u);
      // Three intermediate copy loops forward; only the final hop's loop,
      // bounded by the original count, is left.
      EXPECT_EQ(count_of(chain.fused_source(), "for ("), 1u) << chain.fused_source();
      EXPECT_NE(chain.fused_source().find("< new.nreadings"), std::string::npos)
          << chain.fused_source();
      expect_differential(chain, 64, 21);
    }
  }
}

TEST(FusionWorkload, TickLadderFusesWithNarrowedStation) {
  auto specs = tick_ladder();
  for (bool verify : {false, true}) {
    for (auto backend : backends()) {
      SCOPED_TRACE(::testing::Message() << "verify " << verify << " backend "
                                        << static_cast<int>(backend));
      auto chain = make_chain(specs, verify, backend);
      ASSERT_TRUE(chain.fused()) << chain.fusion_bailout();
      EXPECT_EQ(chain.hops(), 2u);
      // int8 -> int4 is not a verbatim copy: the station keeps a truncated
      // local, which the next hop's int4 -> int4 copy forwards.
      EXPECT_NE(chain.fused_source().find("long __m0_station"), std::string::npos)
          << chain.fused_source();
      EXPECT_EQ(count_of(chain.fused_source(), "for ("), 1u) << chain.fused_source();
      expect_differential(chain, 64, 22);
    }
  }
}

/// Number of kCopyLoop ops `chain`'s fused program compiles to.
size_t fused_copy_loops(const MorphChain& chain, const std::vector<TransformSpec>& specs) {
  auto t = ecode::Transform::compile(chain.fused_source(),
                                     {{specs.back().dst_param, chain.dst_format()},
                                      {specs.front().src_param, chain.src_format()}});
  return t.chunk().copy_loops.size();
}

TEST(FusionCopyLoop, FusedHopwiseAndElementwiseAreByteIdentical) {
  // Every execution of the same ladder must leave identical bytes, padding
  // and the never-written `keep` included: the fused program and the hops,
  // whose copy loops each run as one copy op, and the same copies written
  // as `while` loops, which run element by element. Counts of zero and
  // below, written into the source, ride along.
  struct Ladder {
    const char* name;
    std::vector<TransformSpec> (*make)(bool);
    size_t copy_loops;  // arrays in the final destination
  };
  for (const Ladder& l : {Ladder{"scan", scan_ladder, 1}, Ladder{"tick", tick_ladder, 1},
                          Ladder{"notes", notes_ladder, 2}}) {
    auto specs = l.make(false);
    auto oracle_specs = l.make(true);
    for (auto backend : backends()) {
      SCOPED_TRACE(::testing::Message() << l.name << " backend " << static_cast<int>(backend));
      auto chain = make_chain(specs, /*verify=*/true, backend);
      auto oracle = make_chain(oracle_specs, /*verify=*/false, backend);
      ASSERT_TRUE(chain.fused()) << chain.fusion_bailout();
      EXPECT_FALSE(oracle.fused());
      EXPECT_EQ(fused_copy_loops(chain, specs), l.copy_loops) << chain.fused_source();
      const pbio::FormatDescriptor& src_fmt = *chain.src_format();
      Rng rng(41);
      pbio::RandRecordOptions opt;
      opt.max_array_len = 40;
      for (int i = 0; i < 48; ++i) {
        RecordArena arena;
        pbio::DynValue input = pbio::random_dyn(rng, chain.src_format(), opt);
        void* srcs[3];
        for (void*& src : srcs) {
          src = pbio::from_dyn(input, arena);
          if (i % 8 == 7) {  // a count of zero or below with the array still present
            for (const auto& fd : src_fmt.fields()) {
              if (fd.kind != pbio::FieldKind::kDynArray) continue;
              pbio::write_scalar_i64(src, *src_fmt.find_field(fd.length_field), -(i % 3));
            }
          }
        }
        std::string fused = testing::record_bytes(*chain.dst_format(), chain.apply(srcs[0], arena));
        ASSERT_EQ(fused, testing::record_bytes(*chain.dst_format(),
                                               chain.apply_hopwise(srcs[1], arena)))
            << "iteration " << i << "\n" << chain.fused_source();
        ASSERT_EQ(fused, testing::record_bytes(*oracle.dst_format(), oracle.apply(srcs[2], arena)))
            << "iteration " << i;
      }
    }
  }
}

void clobber_string(uint8_t* slot) {
  char* str = nullptr;
  std::memcpy(&str, slot, sizeof str);
  if (str) std::memset(str, 'Z', std::strlen(str));
}

/// Overwrite every string and array element `rec` points at, in place.
void scribble(const pbio::FormatDescriptor& fmt, void* rec) {
  auto* base = static_cast<uint8_t*>(rec);
  for (const auto& fd : fmt.fields()) {
    if (fd.kind == pbio::FieldKind::kString) {
      clobber_string(base + fd.offset);
    } else if (fd.kind == pbio::FieldKind::kDynArray) {
      auto* elems = static_cast<uint8_t*>(pbio::read_pointer(rec, fd));
      const int64_t n = pbio::read_scalar_i64(rec, *fmt.find_field(fd.length_field));
      for (int64_t i = 0; elems && i < n; ++i) {
        uint8_t* e = elems + static_cast<size_t>(i) * fd.element_stride();
        if (fd.element_format) scribble(*fd.element_format, e);
        if (!fd.element_format && fd.element_kind == pbio::FieldKind::kString) clobber_string(e);
        std::memset(e, 0xA5, fd.element_stride());
      }
    }
  }
}

TEST(FusionWorkload, ForwardedOutputOwnsItsStringsAndElements) {
  // Forwarded reads go straight to the source record; the final hop must
  // still copy, so clobbering the source after apply() leaves the output
  // as the hop-wise run saw it.
  for (const auto& specs : {scan_ladder(), tick_ladder()}) {
    auto chain = make_chain(specs);
    ASSERT_TRUE(chain.fused()) << chain.fusion_bailout();
    Rng rng(23);
    for (int i = 0; i < 16; ++i) {
      RecordArena src_arena;
      RecordArena out_arena;
      void* src = pbio::from_dyn(pbio::random_dyn(rng, chain.src_format()), src_arena);
      pbio::DynValue expected =
          pbio::to_dyn(*chain.dst_format(), chain.apply_hopwise(src, out_arena));
      void* out = chain.apply(src, out_arena);
      scribble(*chain.src_format(), src);
      ASSERT_EQ(pbio::to_dyn(*chain.dst_format(), out), expected)
          << "iteration " << i << "\nfused source:\n"
          << chain.fused_source();
    }
  }
}

/// Expect `chain` to run hop-wise because of `reason`, and to still agree
/// with itself hop-wise.
void expect_bail(const MorphChain& chain, const std::string& reason, uint64_t seed) {
  EXPECT_FALSE(chain.fused()) << chain.fused_source();
  EXPECT_NE(chain.fusion_bailout().find(reason), std::string::npos) << chain.fusion_bailout();
  expect_differential(chain, 32, seed);
}

TEST(FusionForwarding, ConditionalStringWriteBails) {
  auto a = FormatBuilder("M").add_int("x", 8).add_string("s").build();
  auto mid = FormatBuilder("Mid").add_int("x", 8).add_string("s").build();
  auto chain = make_chain({spec_of(a, mid, "old.x = new.x; if (new.x > 0) { old.s = new.s; }"),
                           spec_of(mid, a, "old.x = new.x; old.s = new.s;")});
  expect_bail(chain, "'Mid.s' is read but cannot be forwarded: conditional write", 31);
}

/// Count n, an int array xs sized by n; `wide` makes the elements int8.
FormatPtr ints(const std::string& name, bool wide = false) {
  return FormatBuilder(name)
      .add_int("n", 4)
      .add_dyn_array("xs", pbio::FieldKind::kInt, wide ? 8 : 4, "n")
      .build();
}

constexpr const char* kCopyInts =
    "old.n = new.n; for (int i = 0; i < new.n; i++) { old.xs[i] = new.xs[i]; }";

TEST(FusionForwarding, ArrayLoopNotBoundedByLengthFieldBails) {
  // old.n holds the same value as new.n, but the proof is syntactic.
  auto chain = make_chain(
      {spec_of(ints("M"), ints("Mid"),
               "old.n = new.n; for (int i = 0; i < old.n; i++) { old.xs[i] = new.xs[i]; }"),
       spec_of(ints("Mid"), ints("O"), kCopyInts)});
  expect_bail(chain, "'Mid.xs' is read but cannot be forwarded: loop not bounded by the length "
              "field 'M.n'", 32);
}

TEST(FusionForwarding, ReadIndexedByNonLoopVariableBails) {
  auto out = FormatBuilder("O").add_int("first", 8).build();
  auto chain = make_chain({spec_of(ints("M"), ints("Mid"), kCopyInts),
                           spec_of(ints("Mid"), out,
                                   "long j = 0; if (new.n > 0) { old.first = new.xs[j]; }")});
  expect_bail(chain, "read of 'Mid.xs' is not indexed by the variable of a canonical loop", 33);
}

TEST(FusionForwarding, ReadInLoopNotBoundedByCountBails) {
  // Element n lies past what the copy wrote: hop-wise it reads the
  // intermediate's zeroed spare capacity, forwarded it would read past the
  // source array.
  auto out = FormatBuilder("O").add_int("sum", 8).build();
  auto chain = make_chain(
      {spec_of(ints("M"), ints("Mid"), kCopyInts),
       spec_of(ints("Mid"), out,
               "long s = 0;"
               "for (int i = 0; i < new.n + 1; i++) { if (new.n > 0) { s += new.xs[i]; } }"
               "old.sum = s;")});
  expect_bail(chain, "read of 'Mid.xs' is not indexed by the variable of a canonical loop "
              "bounded by 'new.n'", 40);
}

/// A readings array of {ts int8, v f64} structs sized by n.
FormatPtr readings(const std::string& name) {
  auto r = FormatBuilder("R").add_int("ts", 8).add_float("v", 8).build();
  return FormatBuilder(name).add_int("n", 4).add_dyn_array("rs", r, "n").build();
}

constexpr const char* kCopyReadings =
    "old.n = new.n;"
    "for (int i = 0; i < new.n; i++) { old.rs[i].ts = new.rs[i].ts; old.rs[i].v = new.rs[i].v; }";

TEST(FusionForwarding, ComputedElementFieldBails) {
  auto chain = make_chain(
      {spec_of(readings("M"), readings("Mid"),
               "old.n = new.n;"
               "for (int i = 0; i < new.n; i++) {"
               "  old.rs[i].ts = new.rs[i].ts; old.rs[i].v = new.rs[i].v * 2.0;"
               "}"),
       spec_of(readings("Mid"), readings("O"), kCopyReadings)});
  expect_bail(chain, "cannot be forwarded: computed element field 'Mid.rs'[].v", 34);
}

TEST(FusionForwarding, ElementKindOrSizeMismatchBails) {
  auto chain = make_chain({spec_of(ints("M", true), ints("Mid"), kCopyInts),
                           spec_of(ints("Mid"), ints("O", true), kCopyInts)});
  expect_bail(chain, "'Mid.xs' is read but cannot be forwarded: element kind or size mismatch",
              35);
}

TEST(FusionForwarding, HopWritingItsSourceBails) {
  auto a = FormatBuilder("M").add_int("x", 8).add_string("s").build();
  auto mid = FormatBuilder("Mid").add_int("x", 8).add_string("s").build();
  auto chain = make_chain({spec_of(a, mid, "old.x = new.x; old.s = new.s;"),
                           spec_of(mid, a, "new.x = new.x + 1; old.x = new.x; old.s = new.s;")});
  expect_bail(chain, "'Mid.s' is read but cannot be forwarded: hop 1 writes its source parameter "
              "'new'", 36);
}

TEST(FusionForwarding, ElementFieldNeverWrittenBails) {
  auto chain = make_chain(
      {spec_of(readings("M"), readings("Mid"),
               "old.n = new.n; for (int i = 0; i < new.n; i++) { old.rs[i].ts = new.rs[i].ts; }"),
       spec_of(readings("Mid"), readings("O"), kCopyReadings)});
  expect_bail(chain, "reads element field 'Mid.rs'[].v that its producing loop never wrote", 37);
}

TEST(FusionForwarding, ScalarCopiesForwardWithoutLocals) {
  // Same-kind, same-size copies need no storage at all; the fused program
  // reads the original source directly.
  auto a = FormatBuilder("M").add_int("x", 4).add_float("f", 4).add_string("s").build();
  auto b = FormatBuilder("N").add_int("x", 4).add_float("f", 4).add_string("s").build();
  auto c = FormatBuilder("O").add_int("x", 8).add_float("f", 8).add_string("s").build();
  auto chain = make_chain({spec_of(a, b, "old.x = new.x; old.f = new.f; old.s = new.s;"),
                           spec_of(b, c, "old.x = new.x * 2; old.f = new.f; old.s = new.s;")});
  ASSERT_TRUE(chain.fused()) << chain.fusion_bailout();
  EXPECT_EQ(chain.fused_source().find("__m0_"), std::string::npos) << chain.fused_source();
  expect_differential(chain, 64, 38);
}

TEST(FusionForwarding, ReadBeforeWriteKeepsALocal) {
  // A field read before its copy is not a verbatim copy at that read; it
  // keeps today's local (and its initial zero).
  auto a = FormatBuilder("M").add_int("x", 8).build();
  auto mid = FormatBuilder("Mid").add_int("x", 8).add_int("y", 8).build();
  auto c = FormatBuilder("O").add_int("x", 8).add_int("y", 8).build();
  auto chain = make_chain({spec_of(a, mid, "old.y = old.x + 1; old.x = new.x;"),
                           spec_of(mid, c, "old.x = new.x; old.y = new.y;")});
  ASSERT_TRUE(chain.fused()) << chain.fusion_bailout();
  EXPECT_NE(chain.fused_source().find("long __m0_x"), std::string::npos) << chain.fused_source();
  expect_differential(chain, 32, 39);
}

// --- the committed corpus, differentially -----------------------------------

std::vector<TransformSpec> read_bundle(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open '" + path.string() + "'");
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ByteReader r(bytes.data(), bytes.size());
  if (r.read_u32() != 0x314F4345u) throw DecodeError("not an ECO1 bundle");
  uint32_t count = r.read_u32();
  std::vector<TransformSpec> specs;
  for (uint32_t i = 0; i < count; ++i) specs.push_back(TransformSpec::deserialize(r));
  return specs;
}

bool specs_chain(const std::vector<TransformSpec>& specs) {
  for (size_t i = 1; i < specs.size(); ++i) {
    if (specs[i].src->fingerprint() != specs[i - 1].dst->fingerprint()) return false;
  }
  return !specs.empty();
}

TEST(FusionCorpus, EveryBundleRunsFusedAgainstHopwise) {
  // The expected outcome of every bundle, pinned so a silent fall-back to
  // hop-wise execution fails loudly: "" means fused, anything else is the
  // bail-out reason. telemetry_chain.eco carries a string intermediate
  // that forwards; sensor_fusion_chain.eco is all scalar.
  const std::map<std::string, std::string> expected = {
      {"b2b_supplier_a.eco", "single-hop chain"},
      {"echo_response_v2_v1.eco", "single-hop chain"},
      {"quickstart_retro.eco", "single-hop chain"},
      {"sensor_fusion_chain.eco", ""},
      {"telemetry_chain.eco", ""},
  };
  std::map<std::string, std::string> seen;
  for (const auto& entry : std::filesystem::directory_iterator(MORPH_TRANSFORMS_DIR)) {
    if (entry.path().extension() != ".eco") continue;
    SCOPED_TRACE(entry.path().string());
    auto specs = read_bundle(entry.path());
    ASSERT_TRUE(specs_chain(specs));
    auto chain = make_chain(specs);
    seen[entry.path().filename().string()] = chain.fusion_bailout();
    expect_differential(chain, 48, 0xC0FFEE + seen.size());
  }
  EXPECT_EQ(seen, expected) << "corpus in " << MORPH_TRANSFORMS_DIR;
}

TEST(FusionCorpus, SensorChainFusesUnderEnforcedVerification) {
  auto specs = read_bundle(std::filesystem::path(MORPH_TRANSFORMS_DIR) / "sensor_fusion_chain.eco");
  auto chain = make_chain(specs, /*verify=*/true);
  ASSERT_TRUE(chain.fused()) << chain.fusion_bailout();
  EXPECT_EQ(chain.hops(), 3u);
  expect_differential(chain, 96, 7);
}

}  // namespace
}  // namespace morph::core
