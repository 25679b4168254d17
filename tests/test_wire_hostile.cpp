// Hostile meta-data, data frames and JIT stress tests.
//
// Format descriptors arrive from the network; a corrupted or malicious
// descriptor must never crash the receiver, drive huge allocations, or
// produce a descriptor that later makes the decoder read out of bounds.
// Data frames arrive from the network too: the in-place receive path must
// never accept a mutated frame the copying path rejects, and must deliver
// the same record whenever both accept one.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "ecode/ecode.hpp"
#include "pbio/decode.hpp"
#include "pbio/dynrecord.hpp"
#include "pbio/encode.hpp"
#include "pbio/randgen.hpp"
#include "pbio/record.hpp"

namespace morph::pbio {
namespace {

TEST(DescriptorFuzz, CorruptedDescriptorsNeverCrash) {
  Rng rng(606);
  size_t parsed = 0, rejected = 0;
  for (int iter = 0; iter < 400; ++iter) {
    auto fmt = random_format(rng, "F" + std::to_string(iter % 7));
    ByteBuffer buf;
    fmt->serialize(buf);
    std::vector<uint8_t> fuzzed(buf.data(), buf.data() + buf.size());
    int flips = 1 + static_cast<int>(rng.next_below(6));
    for (int f = 0; f < flips; ++f) {
      fuzzed[rng.next_below(fuzzed.size())] ^= static_cast<uint8_t>(1 + rng.next_below(255));
    }
    try {
      ByteReader r(fuzzed.data(), fuzzed.size());
      FormatPtr back = FormatDescriptor::deserialize(r);
      ASSERT_NE(back, nullptr);
      // A descriptor that parsed must be safe to USE: build a conversion
      // plan against a compatible host layout and decode a message with it.
      ++parsed;
      try {
        FormatPtr host = relayout(*back);
        Decoder dec(host);
        (void)dec.plan_for(back);
      } catch (const Error&) {
        // Structurally valid but semantically unusable is fine.
      }
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, 400u);
  EXPECT_GT(rejected, 0u);
}

TEST(DescriptorFuzz, TruncatedDescriptorsAlwaysThrow) {
  Rng rng(19);
  auto fmt = random_format(rng, "T");
  ByteBuffer buf;
  fmt->serialize(buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ByteReader r(buf.data(), cut);
    EXPECT_THROW(FormatDescriptor::deserialize(r), DecodeError) << "cut=" << cut;
  }
}

TEST(DescriptorFuzz, ReorderTwiceIsIdentity) {
  Rng rng(3);
  for (int iter = 0; iter < 20; ++iter) {
    auto fmt = random_format(rng, "R" + std::to_string(iter));
    RecordArena arena;
    void* rec = random_record(rng, fmt, arena);
    ByteBuffer wire;
    Encoder(fmt).encode(rec, wire);
    std::vector<uint8_t> original(wire.data(), wire.data() + wire.size());
    reorder_encoded(wire, *fmt);
    reorder_encoded(wire, *fmt);
    EXPECT_EQ(std::vector<uint8_t>(wire.data(), wire.data() + wire.size()), original)
        << "iter " << iter;
  }
}

}  // namespace
}  // namespace morph::pbio

namespace morph::core {
namespace {

using pbio::DynValue;
using pbio::FormatBuilder;
using pbio::FormatPtr;

/// Mutate a data frame's body the way a hostile peer could: aim 8-byte
/// words (offset slots among them) at arbitrary body positions, rewrite
/// 4-byte words as small or huge counts, flip bytes. The header stays
/// intact so both receive paths reach the body.
void mutate_body(Rng& rng, std::vector<uint8_t>& frame) {
  uint8_t* body = frame.data() + pbio::kWireHeaderSize;
  const size_t size = frame.size() - pbio::kWireHeaderSize;
  const int edits = 1 + static_cast<int>(rng.next_below(3));
  for (int e = 0; e < edits; ++e) {
    const uint64_t kind = rng.next_below(3);
    if (kind == 0 && size >= 8) {
      const uint64_t to = rng.next_below(size + 8);
      std::memcpy(body + rng.next_below(size / 8) * 8, &to, 8);
    } else if (kind == 1 && size >= 4) {
      const uint32_t count = rng.next_bool() ? static_cast<uint32_t>(rng.next_below(12))
                                             : 0xFFFFFFFFu - static_cast<uint32_t>(rng.next_below(4));
      std::memcpy(body + rng.next_below(size / 4) * 4, &count, 4);
    } else {
      body[rng.next_below(size)] ^= static_cast<uint8_t>(1 + rng.next_below(255));
    }
  }
}

/// Data equality with floats compared bit for bit, so a mutation that
/// produced a NaN still compares equal to itself.
bool same_data(const DynValue& a, const DynValue& b) {
  if (a.is_float() && b.is_float()) {
    const double x = a.as_float();
    const double y = b.as_float();
    return std::memcmp(&x, &y, sizeof x) == 0;
  }
  if (a.is_list() && b.is_list()) {
    if (a.as_list().size() != b.as_list().size()) return false;
    for (size_t i = 0; i < a.as_list().size(); ++i) {
      if (!same_data(a.as_list()[i], b.as_list()[i])) return false;
    }
    return true;
  }
  if (a.is_struct() && b.is_struct()) {
    const auto& fa = a.as_struct().fields;
    const auto& fb = b.as_struct().fields;
    if (fa.size() != fb.size()) return false;
    for (size_t i = 0; i < fa.size(); ++i) {
      if (!same_data(fa[i], fb[i])) return false;
    }
    return true;
  }
  return a == b;
}

ReceiverOptions perfect_only() {
  ReceiverOptions opt;
  opt.thresholds = {0, 0.0};
  return opt;
}

/// Feeds one frame through process() and a separate copy through
/// process_in_place(), recording what each delivered.
struct Differential {
  Receiver rx{perfect_only()};
  size_t both = 0;       // frames both paths delivered
  size_t copy_only = 0;  // frames only the copying path delivered

  explicit Differential(const FormatPtr& reader) {
    rx.register_handler(reader, [this](const Delivery& d) {
      delivered_ = true;
      value_ = pbio::to_dyn(*d.format, d.record);
    });
  }

  void check(const std::vector<uint8_t>& frame, const std::string& what) {
    std::vector<uint8_t> a = frame;
    std::vector<uint8_t> b = frame;
    const auto [copied, copy_value] = run([&](RecordArena& arena) {
      rx.process(a.data(), a.size(), arena);
    });
    const auto [placed, place_value] = run([&](RecordArena& arena) {
      rx.process_in_place(b.data(), b.size(), arena);
    });
    if (placed) {
      ASSERT_TRUE(copied) << what << ": in place accepted a frame copying rejects";
      EXPECT_TRUE(same_data(copy_value, place_value)) << what << ": the two paths disagree";
      ++both;
    } else if (copied) {
      ++copy_only;
    }
  }

 private:
  template <typename Fn>
  std::pair<bool, DynValue> run(Fn&& fn) {
    delivered_ = false;
    value_ = DynValue();
    RecordArena arena;
    try {
      fn(arena);
    } catch (const Error&) {
      return {false, DynValue()};
    }
    return {delivered_, value_};
  }

  bool delivered_ = false;
  DynValue value_;
};

TEST(WireFuzz, InPlaceExactNeverAcceptsWhatCopyingRejects) {
  Rng rng(4242);
  size_t both = 0, copy_only = 0, zero_copy = 0;
  for (int iter = 0; iter < 400; ++iter) {
    auto fmt = pbio::random_format(rng, "Wire" + std::to_string(iter));
    RecordArena arena;
    void* rec = pbio::random_record(rng, fmt, arena);
    ByteBuffer wire;
    pbio::Encoder(fmt).encode(rec, wire);
    std::vector<uint8_t> frame(wire.data(), wire.data() + wire.size());
    mutate_body(rng, frame);

    Differential diff(fmt);
    diff.rx.learn_format(fmt);
    diff.check(frame, "iter " + std::to_string(iter) + "\n" + fmt->to_string());
    both += diff.both;
    copy_only += diff.copy_only;
    zero_copy += diff.rx.stats().zero_copy;
  }
  // Both outcomes occur, and deliveries really took the zero-copy path.
  EXPECT_GT(both, 0u);
  EXPECT_GT(copy_only, 0u);
  EXPECT_EQ(zero_copy, both);
}

TEST(WireFuzz, InPlaceMorphNeverAcceptsWhatCopyingRejects) {
  // Decode-into-morph: the wire layout is the chain's source layout, so
  // the in-place path feeds the chain straight from the frame.
  auto v2 = FormatBuilder("Wire")
                .add_int("n", 4)
                .add_dyn_array("xs", pbio::FieldKind::kFloat, 8, "n")
                .add_string("name")
                .add_dyn_array("tags", pbio::FieldKind::kString, 0, "n")
                .add_string("note")
                .build();
  auto v1 = FormatBuilder("Wire")
                .add_int("n", 4)
                .add_dyn_array("xs", pbio::FieldKind::kFloat, 8, "n")
                .add_string("name")
                .build();
  TransformSpec spec;
  spec.src = v2;
  spec.dst = v1;
  spec.code =
      "old.n = new.n;\n"
      "for (int i = 0; i < new.n; i++) { old.xs[i] = new.xs[i]; }\n"
      "old.name = new.name;\n";

  Differential diff(v1);
  diff.rx.learn_format(v2);
  diff.rx.learn_transform(spec);
  Rng rng(77);
  for (int iter = 0; iter < 300; ++iter) {
    RecordArena arena;
    void* rec = pbio::random_record(rng, v2, arena);
    ByteBuffer wire;
    pbio::Encoder(v2).encode(rec, wire);
    std::vector<uint8_t> frame(wire.data(), wire.data() + wire.size());
    mutate_body(rng, frame);
    diff.check(frame, "iter " + std::to_string(iter));
  }
  EXPECT_GT(diff.both, 0u);
  EXPECT_GT(diff.copy_only, 0u);
  EXPECT_EQ(diff.rx.stats().morph_inplace, diff.both);
}

}  // namespace
}  // namespace morph::core

namespace morph::ecode {
namespace {

using pbio::FormatBuilder;

class JitStress : public ::testing::TestWithParam<ExecBackend> {};

TEST_P(JitStress, DeepExpressionNesting) {
  // 200-deep parenthesized expression: exercises evaluation-stack depth on
  // both backends (hardware stack in the JIT, sized vector in the VM).
  auto fmt = FormatBuilder("T").add_int("out", 8).build();
  std::string expr = "1";
  for (int i = 0; i < 200; ++i) expr = "(" + expr + " + 1)";
  auto t = Transform::compile("p.out = " + expr + ";", {{"p", fmt}}, GetParam());
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  void* params[1] = {rec};
  t.run(params, arena);
  EXPECT_EQ(pbio::RecordRef(rec, fmt).get_int("out"), 201);
}

TEST_P(JitStress, LongStraightLineProgram) {
  // Thousands of instructions force rel32 jump distances and large code
  // buffers in the JIT.
  auto fmt = FormatBuilder("T").add_int("out", 8).build();
  std::string code = "int acc = 0;\n";
  for (int i = 0; i < 2000; ++i) {
    code += "acc += " + std::to_string(i % 17) + ";\n";
  }
  code += "if (acc > 0) { p.out = acc; } else { p.out = -1; }\n";
  auto t = Transform::compile(code, {{"p", fmt}}, GetParam());
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  void* params[1] = {rec};
  t.run(params, arena);
  int64_t expect = 0;
  for (int i = 0; i < 2000; ++i) expect += i % 17;
  EXPECT_EQ(pbio::RecordRef(rec, fmt).get_int("out"), expect);
  if (GetParam() == ExecBackend::kJit) {
    EXPECT_GT(t.native_code_size(), 10000u);
  }
}

TEST_P(JitStress, ManyIterationsLoop) {
  auto fmt = FormatBuilder("T").add_int("out", 8).build();
  auto t = Transform::compile(R"(
    int acc = 0;
    for (int i = 0; i < 1000000; i++) acc += i & 7;
    p.out = acc;
  )",
                              {{"p", fmt}}, GetParam());
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  void* params[1] = {rec};
  t.run(params, arena);
  int64_t expect = 0;
  for (int i = 0; i < 1000000; ++i) expect += i & 7;
  EXPECT_EQ(pbio::RecordRef(rec, fmt).get_int("out"), expect);
}

TEST_P(JitStress, HugeDynArrayGrowth) {
  auto fmt = FormatBuilder("T")
                 .add_int("n", 4)
                 .add_dyn_array("xs", pbio::FieldKind::kInt, 8, "n")
                 .build();
  auto t = Transform::compile(R"(
    for (int i = 0; i < 50000; i++) dst.xs[i] = i;
    dst.n = 50000;
  )",
                              {{"dst", fmt}}, GetParam());
  RecordArena arena;
  void* rec = pbio::alloc_record(*fmt, arena);
  void* params[1] = {rec};
  t.run(params, arena);
  pbio::RecordRef r(rec, fmt);
  EXPECT_EQ(r.get_int("n"), 50000);
  auto dynv = pbio::to_dyn(*fmt, rec);
  EXPECT_EQ(dynv.field("xs").as_list()[49999].as_int(), 49999);
}

INSTANTIATE_TEST_SUITE_P(Backends, JitStress,
                         ::testing::Values(ExecBackend::kInterpreter, ExecBackend::kJit),
                         [](const ::testing::TestParamInfo<ExecBackend>& info) {
                           return info.param == ExecBackend::kJit ? "Jit" : "Vm";
                         });

}  // namespace
}  // namespace morph::ecode

// Format-service payloads are parsed from network frames too: a truncated,
// bit-flipped, or count-inflated request/reply must throw DecodeError (or
// parse to something structurally valid) — never crash or over-allocate.
#include "fmtsvc/protocol.hpp"

namespace morph::fmtsvc {
namespace {

FormatEntry sample_entry() {
  auto v1 = pbio::FormatBuilder("Svc").add_int("a", 4).build();
  auto v2 = pbio::FormatBuilder("Svc").add_int("a", 4).add_int("b", 4).build();
  core::TransformSpec spec;
  spec.src = v2;
  spec.dst = v1;
  spec.code = "old.a = new.a;";
  return FormatEntry{v2, {spec}};
}

TEST(FmtsvcFuzz, TruncatedRepliesAlwaysThrow) {
  Reply rep;
  rep.op = Op::kFetch;
  rep.request_id = 99;
  rep.status = Status::kOk;
  ReplyItem item;
  item.fingerprint = 0xabc;
  item.found = true;
  item.entry = sample_entry();
  rep.items.push_back(std::move(item));

  ByteBuffer buf;
  rep.serialize(buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ByteReader r(buf.data(), cut);
    EXPECT_THROW(Reply::deserialize(r), DecodeError) << "cut at " << cut;
  }
}

TEST(FmtsvcFuzz, TruncatedRequestsAlwaysThrow) {
  Request req;
  req.op = Op::kRegister;
  req.request_id = 5;
  req.entries.push_back(sample_entry());

  ByteBuffer buf;
  req.serialize(buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ByteReader r(buf.data(), cut);
    EXPECT_THROW(Request::deserialize(r), DecodeError) << "cut at " << cut;
  }
}

TEST(FmtsvcFuzz, HostileCountsAreRejectedBeforeAllocating) {
  // A kFetchMulti request whose u16 count says "maximum" but whose body is
  // empty: the parser must bounds-check per element, not pre-reserve.
  ByteBuffer buf;
  buf.append_u8(static_cast<uint8_t>(Op::kFetchMulti));
  buf.append_u64(1);
  buf.append_u16(0xffff);  // 65535 fingerprints promised, zero present
  ByteReader r(buf.data(), buf.size());
  EXPECT_THROW(Request::deserialize(r), DecodeError);

  // Same for a reply claiming more items than could fit in any frame.
  ByteBuffer rbuf;
  rbuf.append_u8(static_cast<uint8_t>(Op::kList));
  rbuf.append_u64(1);
  rbuf.append_u8(static_cast<uint8_t>(Status::kOk));
  rbuf.append_u16(0xffff);
  ByteReader rr(rbuf.data(), rbuf.size());
  EXPECT_THROW(Reply::deserialize(rr), DecodeError);
}

TEST(FmtsvcFuzz, BitFlippedPayloadsNeverCrash) {
  Reply rep;
  rep.op = Op::kFetchMulti;
  rep.request_id = 7;
  rep.status = Status::kOk;
  for (int i = 0; i < 3; ++i) {
    ReplyItem item;
    item.fingerprint = 0x100 + i;
    item.found = true;
    item.entry = sample_entry();
    rep.items.push_back(std::move(item));
  }
  ByteBuffer buf;
  rep.serialize(buf);

  Rng rng(1234);
  size_t parsed = 0, rejected = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<uint8_t> fuzzed(buf.data(), buf.data() + buf.size());
    int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      fuzzed[rng.next_below(fuzzed.size())] ^= static_cast<uint8_t>(1 + rng.next_below(255));
    }
    try {
      ByteReader r(fuzzed.data(), fuzzed.size());
      Reply back = Reply::deserialize(r);
      EXPECT_LE(back.items.size(), kMaxEntriesPerRequest);
      ++parsed;
    } catch (const DecodeError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, 400u);
  EXPECT_GT(rejected, 0u);
}

TEST(FmtsvcFuzz, TrailingGarbageAfterEntryIsDetectable) {
  // The frame layer hands the parser an exact payload; leftover bytes mean
  // a corrupt or mismatched frame. ByteReader exposes the position so the
  // server/client can reject. Verify a clean parse consumes everything.
  Request req;
  req.op = Op::kFetch;
  req.request_id = 3;
  req.fingerprints = {0x42};
  ByteBuffer buf;
  req.serialize(buf);
  ByteReader r(buf.data(), buf.size());
  (void)Request::deserialize(r);
  EXPECT_EQ(r.remaining(), 0u);
}

}  // namespace
}  // namespace morph::fmtsvc
