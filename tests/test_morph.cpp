// Transform specs, catalogs, retro-transformation chains (Figure 1), the
// Figure 5 ECho transform against its handwritten oracle, and the
// Reconciler for imperfect matches.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/reconcile.hpp"
#include "core/transform.hpp"
#include "echo/messages.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/record.hpp"

namespace morph::core {
namespace {

using pbio::FormatBuilder;
using pbio::FormatPtr;

TEST(TransformSpec, SerializationRoundTrip) {
  auto spec = echo::response_v2_to_v1_spec();
  ByteBuffer buf;
  spec.serialize(buf);
  ByteReader r(buf.data(), buf.size());
  TransformSpec back = TransformSpec::deserialize(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_TRUE(back.src->identical_to(*spec.src));
  EXPECT_TRUE(back.dst->identical_to(*spec.dst));
  EXPECT_EQ(back.code, spec.code);
  EXPECT_EQ(back.dst_param, "old");
  EXPECT_EQ(back.src_param, "new");
}

FormatPtr rev(int n) {
  FormatBuilder b("Msg");
  for (int i = 0; i <= n; ++i) b.add_int("f" + std::to_string(i), 4);
  return b.build();
}

/// rev(n) -> rev(n-1): drop the highest field.
TransformSpec down_spec(int n) {
  TransformSpec s;
  s.src = rev(n);
  s.dst = rev(n - 1);
  std::string code;
  for (int i = 0; i <= n - 1; ++i) {
    code += "old.f" + std::to_string(i) + " = new.f" + std::to_string(i) + ";\n";
  }
  s.code = code;
  return s;
}

TEST(TransformCatalog, ClosureWalksChains) {
  TransformCatalog cat;
  cat.add(down_spec(3));
  cat.add(down_spec(2));
  cat.add(down_spec(1));
  auto ft = cat.closure(rev(3));
  ASSERT_EQ(ft.size(), 4u);  // rev3, rev2, rev1, rev0
  EXPECT_EQ(ft[0]->fingerprint(), rev(3)->fingerprint());
  EXPECT_EQ(ft[3]->fingerprint(), rev(0)->fingerprint());

  // A format with no transforms closes over itself only.
  EXPECT_EQ(cat.closure(rev(7)).size(), 1u);
}

TEST(TransformCatalog, ChainFindsShortestPath) {
  TransformCatalog cat;
  cat.add(down_spec(3));
  cat.add(down_spec(2));
  cat.add(down_spec(1));
  // Also a direct shortcut 3 -> 1.
  TransformSpec shortcut;
  shortcut.src = rev(3);
  shortcut.dst = rev(1);
  shortcut.code = "old.f0 = new.f0; old.f1 = new.f1;";
  cat.add(shortcut);

  auto path = cat.chain(rev(3)->fingerprint(), rev(1)->fingerprint());
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 1u);  // the shortcut wins over 3->2->1

  auto path0 = cat.chain(rev(3)->fingerprint(), rev(0)->fingerprint());
  ASSERT_TRUE(path0.has_value());
  EXPECT_EQ(path0->size(), 2u);  // 3 -> 1 -> 0

  EXPECT_TRUE(cat.chain(rev(2)->fingerprint(), rev(2)->fingerprint())->empty());
  EXPECT_FALSE(cat.chain(rev(0)->fingerprint(), rev(3)->fingerprint()).has_value());
}

TEST(MorphChain, SingleHopAppliesTransform) {
  TransformCatalog cat;
  cat.add(down_spec(2));
  auto path = cat.chain(rev(2)->fingerprint(), rev(1)->fingerprint());
  ASSERT_TRUE(path.has_value());
  MorphChain chain(*path);
  EXPECT_EQ(chain.hops(), 1u);

  RecordArena arena;
  auto src_fmt = chain.src_format();
  void* src = pbio::alloc_record(*src_fmt, arena);
  pbio::RecordRef sref(src, src_fmt);
  sref.set_int("f0", 10);
  sref.set_int("f1", 20);
  sref.set_int("f2", 30);

  void* dst = chain.apply(src, arena);
  pbio::RecordRef dref(dst, chain.dst_format());
  EXPECT_EQ(dref.get_int("f0"), 10);
  EXPECT_EQ(dref.get_int("f1"), 20);
  EXPECT_EQ(chain.dst_format()->field_index("f2"), pbio::FormatDescriptor::npos);
}

TEST(MorphChain, MultiHopComposes) {
  TransformCatalog cat;
  cat.add(down_spec(3));
  cat.add(down_spec(2));
  cat.add(down_spec(1));
  auto path = cat.chain(rev(3)->fingerprint(), rev(0)->fingerprint());
  ASSERT_TRUE(path.has_value());
  MorphChain chain(*path);
  EXPECT_EQ(chain.hops(), 3u);

  RecordArena arena;
  void* src = pbio::alloc_record(*chain.src_format(), arena);
  pbio::RecordRef(src, chain.src_format()).set_int("f0", 42);
  void* dst = chain.apply(src, arena);
  EXPECT_EQ(pbio::RecordRef(dst, chain.dst_format()).get_int("f0"), 42);
}

TEST(MorphChain, RejectsNonChainingSpecs) {
  std::vector<const TransformSpec*> bad;
  auto s1 = down_spec(3);
  auto s2 = down_spec(1);  // src rev1 does not match s1.dst rev2
  bad.push_back(&s1);
  bad.push_back(&s2);
  EXPECT_THROW(MorphChain{bad}, Error);
  EXPECT_THROW(MorphChain{{}}, Error);
}

// --- The paper's Figure 5 transform, checked against the oracle -----------

class Figure5Test : public ::testing::TestWithParam<ecode::ExecBackend> {};

TEST_P(Figure5Test, MatchesHandwrittenReference) {
  Rng rng(42);
  for (uint32_t members : {0u, 1u, 5u, 64u}) {
    for (double frac : {0.0, 0.5, 1.0}) {
      echo::ResponseWorkload w;
      w.members = members;
      w.source_fraction = frac;
      w.sink_fraction = 1.0 - frac / 2;
      RecordArena arena;
      auto* v2 = echo::make_response_v2(w, rng, arena);
      auto* expect = echo::transform_v2_to_v1_reference(*v2, arena);

      auto spec = echo::response_v2_to_v1_spec();
      MorphChain chain({&spec}, {.backend = GetParam()});
      // The chain's source format is a relayout of v2 with identical
      // natural layout (the structs are already naturally laid out).
      ASSERT_EQ(chain.src_format()->struct_size(),
                echo::channel_open_response_v2_format()->struct_size());
      void* got = chain.apply(v2, arena);

      auto expected_dyn = pbio::to_dyn(*echo::channel_open_response_v1_format(), expect);
      auto got_dyn = pbio::to_dyn(*chain.dst_format(), got);
      EXPECT_EQ(expected_dyn, got_dyn) << "members=" << members << " frac=" << frac;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, Figure5Test,
                         ::testing::Values(ecode::ExecBackend::kInterpreter,
                                           ecode::ExecBackend::kJit),
                         [](const ::testing::TestParamInfo<ecode::ExecBackend>& info) {
                           return info.param == ecode::ExecBackend::kJit ? "Jit" : "Vm";
                         });

// --- Reconciler -------------------------------------------------------------

TEST(Reconciler, FillsDefaultsAndDrops) {
  auto src = FormatBuilder("T").add_int("keep", 4).add_int("dropme", 4).build();
  auto dst = FormatBuilder("T")
                 .add_int("keep", 8)
                 .add_int("fresh", 4)
                 .with_default(int64_t{-7})
                 .add_string("note")
                 .with_default(std::string("dflt"))
                 .build();
  Reconciler rec(src, dst);
  EXPECT_FALSE(rec.identity());
  EXPECT_EQ(rec.defaulted_fields(), 2u);

  RecordArena arena;
  void* s = pbio::alloc_record(*src, arena);
  pbio::RecordRef(s, src).set_int("keep", 123);
  pbio::RecordRef(s, src).set_int("dropme", 5);
  void* d = rec.apply(s, arena);
  pbio::RecordRef dref(d, dst);
  EXPECT_EQ(dref.get_int("keep"), 123);
  EXPECT_EQ(dref.get_int("fresh"), -7);
  EXPECT_EQ(dref.get_string("note"), "dflt");
}

TEST(Reconciler, IdentityDetected) {
  auto a = FormatBuilder("T").add_int("x", 4).build();
  auto b = FormatBuilder("T").add_int("x", 4).build();
  EXPECT_TRUE(Reconciler(a, b).identity());
}

TEST(Reconciler, ArraysAndNesting) {
  auto e_src = FormatBuilder("E").add_int("v", 4).add_string("tag").build();
  auto e_dst = FormatBuilder("E")
                   .add_string("tag")
                   .add_int("v", 8)
                   .add_int("w", 4)
                   .with_default(int64_t{9})
                   .build();
  auto src = FormatBuilder("T").add_int("n", 4).add_dyn_array("es", e_src, "n").build();
  auto dst = FormatBuilder("T").add_int("n", 4).add_dyn_array("es", e_dst, "n").build();

  RecordArena arena;
  void* s = pbio::alloc_record(*src, arena);
  pbio::RecordRef sref(s, src);
  sref.set_int("n", 2);
  auto* elems = static_cast<uint8_t*>(pbio::alloc_dyn_array(
      arena, src->find_field("es")->element_stride(), 2));
  pbio::write_pointer(s, *src->find_field("es"), elems);
  for (int i = 0; i < 2; ++i) {
    pbio::RecordRef el(elems + i * src->find_field("es")->element_stride(), e_src);
    el.set_int("v", i + 1);
    el.set_string("tag", "t" + std::to_string(i), arena);
  }

  Reconciler rec(src, dst);
  void* d = rec.apply(s, arena);
  pbio::RecordRef dref(d, dst);
  EXPECT_EQ(dref.get_int("n"), 2);
  EXPECT_EQ(dref.element("es", 0).get_int("v"), 1);
  EXPECT_EQ(dref.element("es", 1).get_string("tag"), "t1");
  EXPECT_EQ(dref.element("es", 1).get_int("w"), 9);
}

TEST(Reconciler, NullStringStaysNull) {
  auto src = FormatBuilder("T").add_string("s").build();
  auto dst = FormatBuilder("T").add_string("s").add_int("pad", 4).build();
  RecordArena arena;
  void* s = pbio::alloc_record(*src, arena);
  void* d = Reconciler(src, dst).apply(s, arena);
  EXPECT_EQ(pbio::read_pointer(d, *dst->find_field("s")), nullptr);
}

}  // namespace
}  // namespace morph::core
