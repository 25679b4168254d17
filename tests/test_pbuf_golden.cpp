// Pinned protobuf wire bytes.
//
// Every record built here has its encoding committed under
// tests/golden/pbuf_*.hex. The encoder must emit exactly those bytes, and
// the decoder must read the committed bytes back as records equal to the
// ones they were encoded from. Round trips of the codec through itself
// cannot catch a bug that encoder and decoder share; fixed bytes can.
//
// File format: `#` lines are comments; every other line is one record,
// `<label> <hex>` in build order (a label alone is an empty encoding). On a
// mismatch the actual file is written to golden_actual/<file> in the test's
// working directory: after a deliberate wire change, review it and copy it
// over the committed file (tests/golden/README.md).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "echo/messages.hpp"
#include "pbio/record.hpp"
#include "pbuf/bridge.hpp"
#include "pbuf/schema.hpp"
#include "pbuf_records.hpp"

namespace morph::pbuf {
namespace {

using pbio::FieldKind;
using pbio::FormatBuilder;
using pbio::FormatPtr;
using pbio::RecordRef;
using testing::expect_records_equal;

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<uint8_t> from_hex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

struct Golden {
  std::string label;
  FormatPtr fmt;
  const void* record;
};

/// Point dyn array `name` of `rec` at `values` (copied into `arena`) and
/// set its count field.
template <typename T>
void set_array(void* rec, const FormatPtr& fmt, const std::string& name,
               const std::vector<T>& values, RecordArena& arena) {
  const auto* fd = fmt->find_field(name);
  void* elems = pbio::alloc_dyn_array(arena, fd->element_stride(), values.size());
  if (!values.empty()) std::memcpy(elems, values.data(), values.size() * sizeof(T));
  pbio::write_pointer(rec, *fd, elems);
  pbio::write_scalar_i64(rec, *fmt->find_field(fd->length_field),
                         static_cast<int64_t>(values.size()));
}

void set_strings(void* rec, const FormatPtr& fmt, const std::string& name,
                 const std::vector<std::string>& values, RecordArena& arena) {
  std::vector<const char*> ptrs;
  for (const auto& v : values) ptrs.push_back(arena.copy_string(v));
  set_array(rec, fmt, name, ptrs, arena);
}

/// Compare the encodings of `records` with the committed `file`, then
/// decode the committed bytes and compare them with the records.
void check_golden(const std::string& file, const std::vector<Golden>& records) {
  std::string actual = "# " + file + ": protobuf bytes of the records built in " +
                       "tests/test_pbuf_golden.cpp, one per line: label, then hex\n";
  std::vector<std::string> hexes;
  for (const auto& g : records) {
    ByteBuffer wire;
    EncodePlan(g.fmt).encode(g.record, wire);
    hexes.push_back(to_hex(wire.data(), wire.size()));
    actual += g.label + (hexes.back().empty() ? "" : " " + hexes.back()) + "\n";
  }

  std::vector<std::pair<std::string, std::string>> expected;  // (label, hex)
  std::istringstream lines(read_text(std::string(MORPH_GOLDEN_DIR) + "/" + file));
  for (std::string line; std::getline(lines, line);) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.find(' ');
    expected.emplace_back(line.substr(0, space),
                          space == std::string::npos ? "" : line.substr(space + 1));
  }

  bool same = expected.size() == records.size();
  EXPECT_EQ(expected.size(), records.size()) << file << ": record count";
  for (size_t i = 0; i < records.size() && i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].first, records[i].label) << file << " line " << i;
    EXPECT_EQ(expected[i].second, hexes[i]) << file << ": " << records[i].label;
    same = same && expected[i].first == records[i].label && expected[i].second == hexes[i];
  }
  if (!same) {
    std::filesystem::create_directories("golden_actual");
    std::ofstream("golden_actual/" + file, std::ios::binary) << actual;
    ADD_FAILURE() << "actual bytes written to golden_actual/" << file;
  }

  for (size_t i = 0; i < records.size() && i < expected.size(); ++i) {
    std::vector<uint8_t> wire = from_hex(expected[i].second);
    RecordArena arena;
    void* back = DecodePlan(records[i].fmt).decode(wire.data(), wire.size(), arena);
    expect_records_equal(*records[i].fmt, records[i].record, back, records[i].label);
  }
}

std::string corpus(const std::string& name) {
  return read_text(std::string(MORPH_PROTO_DIR) + "/" + name);
}

TEST(PbufGolden, ProtoCorpus) {
  RecordArena arena;
  std::vector<Golden> records;

  FormatPtr sensor = parse_proto_message(corpus("sensor.proto"), "SensorReading");
  void* s1 = pbio::alloc_record(*sensor, arena);
  RecordRef(s1, sensor).set_int("station", 42);
  RecordRef(s1, sensor).set_string("label", "rooftop-a", arena);
  RecordRef(s1, sensor).set_float("value", 21.75);
  RecordRef(s1, sensor).set_int("flags", 0x13);
  set_array<float>(s1, sensor, "samples", {-1.0f, -0.5f, 0.0f, 0.5f, 1.0f}, arena);
  records.push_back({"sensor", sensor, s1});
  void* s2 = pbio::alloc_record(*sensor, arena);
  RecordRef(s2, sensor).set_int("station", -7);
  RecordRef(s2, sensor).set_float("value", -0.125);
  RecordRef(s2, sensor).set_int("flags", 0xFFFFFFFF);
  records.push_back({"sensor_negative", sensor, s2});

  FormatPtr roster = parse_proto_message(corpus("roster.proto"), "Roster");
  const auto* members = roster->find_field("members");
  void* r = pbio::alloc_record(*roster, arena);
  RecordRef(r, roster).set_string("channel", "alerts", arena);
  RecordRef(r, roster).set_int("epoch", 7710954);
  auto* mbase = static_cast<uint8_t*>(pbio::alloc_dyn_array(arena, members->element_stride(), 3));
  pbio::write_pointer(r, *members, mbase);
  for (int i = 0; i < 3; ++i) {
    RecordRef m(mbase + i * members->element_stride(), members->element_format);
    m.set_string("name", "member-" + std::to_string(i), arena);
    m.set_string("host", i == 1 ? "" : "host" + std::to_string(i), arena);
    m.set_int("port", 9000 + i);
  }
  RecordRef(r, roster).set_int("members_count", 3);
  set_array<int32_t>(r, roster, "shard_ids", {-150, -50, 0, 50, 150}, arena);
  records.push_back({"roster", roster, r});

  FormatPtr member = parse_proto_message(corpus("roster.proto"), "Member");
  void* m = pbio::alloc_record(*member, arena);
  RecordRef(m, member).set_string("name", "solo", arena);
  RecordRef(m, member).set_int("port", 65535);
  records.push_back({"member", member, m});

  FormatPtr probe = parse_proto_message(corpus("telemetry.proto"), "Probe");
  void* p = pbio::alloc_record(*probe, arena);
  RecordRef pr(p, probe);
  pr.set_int("delta", -12345);
  pr.set_int("wide_delta", -3000000000LL);
  pr.set_int("crc", 0xDEADBEEF);
  pr.set_int("stamp", static_cast<int64_t>(0xFEEDFACECAFEBEEFULL));
  pr.set_int("bias", -7);
  pr.set_int("drift", -1234567890123LL);
  pr.set_int("armed", 1);
  pr.set_string("payload", "abc", arena);
  pr.set_float("ratio", 0.25);
  pr.get_struct("origin").set_string("node", "n1", arena);
  pr.get_struct("origin").set_int("boot_id", 99);
  records.push_back({"probe", probe, p});
  records.push_back({"probe_zero", probe, pbio::alloc_record(*probe, arena)});

  check_golden("pbuf_corpus.hex", records);
}

/// The Quote record of the pbuf_churn pipeline workload, at revision 0 or 1.
FormatPtr quote_rev(int rev) {
  FormatBuilder b("Quote");
  b.add_int("seq", 8);
  b.add_string("symbol");
  b.add_int("venue", 4);
  b.add_int("npx", 4);
  b.add_dyn_array("px", FieldKind::kFloat, 8, "npx");
  b.add_string("note");
  if (rev >= 1) {
    b.add_int("ts", 8);
    b.add_int("flags", 4);
    b.add_string("trader");
  }
  return annotate_field_numbers(*b.build());
}

TEST(PbufGolden, QuoteRevisions) {
  RecordArena arena;
  std::vector<Golden> records;
  for (int rev = 0; rev <= 1; ++rev) {
    FormatPtr fmt = quote_rev(rev);
    for (size_t n : {0, 1, 110}) {
      void* rec = pbio::alloc_record(*fmt, arena);
      RecordRef q(rec, fmt);
      q.set_int("seq", 1000 + static_cast<int64_t>(n));
      q.set_string("symbol", "ACME", arena);
      q.set_int("venue", 17);
      std::vector<double> px;
      for (size_t i = 0; i < n; ++i) px.push_back(100.0 + 0.25 * static_cast<double>(i));
      set_array(rec, fmt, "px", px, arena);
      q.set_string("note", "opening auction, indicative only", arena);
      if (rev >= 1) {
        q.set_int("ts", (int64_t{1} << 40) + 12345);
        q.set_int("flags", 0x5a);
        q.set_string("trader", "trader-07", arena);
      }
      records.push_back({"rev" + std::to_string(rev) + "_px" + std::to_string(n), fmt, rec});
    }
  }
  check_golden("pbuf_quote.hex", records);
}

TEST(PbufGolden, ChannelOpenResponseStructArrays) {
  FormatPtr fmt = annotate_field_numbers(*echo::channel_open_response_v2_format());
  const auto* list = fmt->find_field("member_list");
  RecordArena arena;
  std::vector<Golden> records;

  void* empty = pbio::alloc_record(*fmt, arena);
  RecordRef(empty, fmt).set_string("channel", "c0", arena);
  records.push_back({"no_members", fmt, empty});

  struct Member {
    const char* info;
    int64_t id, is_source, is_sink;
  };
  // The last member is all zero: it still goes out, as an empty occurrence.
  const std::vector<Member> members = {{"tcp://10.0.0.1:4000", 1, 1, 0},
                                       {"", -2, 0, 1},
                                       {"x", 300, 1, 1},
                                       {"", 0, 0, 0}};
  void* rec = pbio::alloc_record(*fmt, arena);
  RecordRef(rec, fmt).set_string("channel", "sensors/north", arena);
  auto* base =
      static_cast<uint8_t*>(pbio::alloc_dyn_array(arena, list->element_stride(), members.size()));
  pbio::write_pointer(rec, *list, base);
  for (size_t i = 0; i < members.size(); ++i) {
    RecordRef e(base + i * list->element_stride(), list->element_format);
    if (*members[i].info != '\0') e.set_string("info", members[i].info, arena);
    e.set_int("ID", members[i].id);
    e.set_int("is_source", members[i].is_source);
    e.set_int("is_sink", members[i].is_sink);
  }
  RecordRef(rec, fmt).set_int("member_count", static_cast<int64_t>(members.size()));
  records.push_back({"four_members", fmt, rec});

  check_golden("pbuf_channel_open_response.hex", records);
}

TEST(PbufGolden, NegativeZigzagAndFixedScalars) {
  constexpr uint32_t kFixed = pbio::kPbFixed;
  constexpr uint32_t kZigzag = pbio::kPbZigzag;
  FormatPtr fmt = FormatBuilder("Scalars")
                      .add_int("i8", 1).with_pb_field(1)
                      .add_int("i16", 2).with_pb_field(2)
                      .add_int("i32", 4).with_pb_field(3)
                      .add_int("i64", 8).with_pb_field(4)
                      .add_uint("u8", 1).with_pb_field(5)
                      .add_uint("u16", 2).with_pb_field(6)
                      .add_uint("u32", 4).with_pb_field(7)
                      .add_uint("u64", 8).with_pb_field(8)
                      .add_int("z32", 4).with_pb_field(9 | kZigzag)
                      .add_int("z64", 8).with_pb_field(10 | kZigzag)
                      .add_uint("fx32", 4).with_pb_field(11 | kFixed)
                      .add_uint("fx64", 8).with_pb_field(12 | kFixed)
                      .add_int("sfx32", 4).with_pb_field(13 | kFixed)
                      .add_int("sfx64", 8).with_pb_field(14 | kFixed)
                      .add_int("sfx16", 2).with_pb_field(15 | kFixed)
                      .add_float("f32", 4).with_pb_field(16)
                      .add_float("f64", 8).with_pb_field(300000)
                      .add_char("ch").with_pb_field(17)
                      .add_enum("color", {{"red", -1}, {"blue", 2}}).with_pb_field(18)
                      .add_uint("n", 4)
                      .add_dyn_array("xs_i32", FieldKind::kInt, 4, "n").with_pb_field(20)
                      .add_uint("nz", 4)
                      .add_dyn_array("xs_z64", FieldKind::kInt, 8, "nz").with_pb_field(21 | kZigzag)
                      .add_uint("nfx", 4)
                      .add_dyn_array("xs_fx32", FieldKind::kUInt, 4, "nfx")
                      .with_pb_field(22 | kFixed)
                      .add_uint("nsfx", 4)
                      .add_dyn_array("xs_sfx64", FieldKind::kInt, 8, "nsfx")
                      .with_pb_field(23 | kFixed)
                      .add_uint("nsfx16", 4)
                      .add_dyn_array("xs_sfx16", FieldKind::kInt, 2, "nsfx16")
                      .with_pb_field(24 | kFixed)
                      .add_uint("nf32", 4)
                      .add_dyn_array("xs_f32", FieldKind::kFloat, 4, "nf32").with_pb_field(25)
                      .add_uint("nf64", 4)
                      .add_dyn_array("xs_f64", FieldKind::kFloat, 8, "nf64").with_pb_field(26)
                      .add_uint("nu16", 4)
                      .add_dyn_array("xs_u16", FieldKind::kUInt, 2, "nu16").with_pb_field(27)
                      .add_uint("ns", 4)
                      .add_dyn_array("xs_s", FieldKind::kString, 8, "ns").with_pb_field(28)
                      .build();
  ASSERT_TRUE(pbuf_encodable(*fmt));
  RecordArena arena;
  std::vector<Golden> records;

  void* rec = pbio::alloc_record(*fmt, arena);
  RecordRef s(rec, fmt);
  s.set_int("i8", -5);
  s.set_int("i16", -300);
  s.set_int("i32", -70000);
  s.set_int("i64", std::numeric_limits<int64_t>::min());
  s.set_int("u8", 255);
  s.set_int("u16", 65535);
  s.set_int("u32", 0xFFFFFFFF);
  s.set_int("u64", -1);
  s.set_int("z32", -1);
  s.set_int("z64", std::numeric_limits<int64_t>::min());
  s.set_int("fx32", 0xDEADBEEF);
  s.set_int("fx64", 0x0123456789ABCDEFLL);
  s.set_int("sfx32", -2);
  s.set_int("sfx64", -3);
  s.set_int("sfx16", -4);
  s.set_float("f32", -1.5);
  s.set_float("f64", -2.25);
  s.set_int("ch", 'Z');
  s.set_int("color", -1);
  set_array<int32_t>(rec, fmt, "xs_i32", {-1, 0, 1, 300}, arena);
  set_array<int64_t>(rec, fmt, "xs_z64", {-1, 1, std::numeric_limits<int64_t>::min()}, arena);
  set_array<uint32_t>(rec, fmt, "xs_fx32", {1, 0xFFFFFFFF, 0}, arena);
  set_array<int64_t>(rec, fmt, "xs_sfx64", {-1, 2}, arena);
  set_array<int16_t>(rec, fmt, "xs_sfx16", {-1, 7}, arena);
  set_array<float>(rec, fmt, "xs_f32", {1.5f, -0.0f, -3.0e38f}, arena);
  set_array<double>(rec, fmt, "xs_f64", {-0.0, 1e300, -2.5}, arena);
  set_array<uint16_t>(rec, fmt, "xs_u16", {65535, 1}, arena);
  set_strings(rec, fmt, "xs_s", {"a", "", "ccc"}, arena);
  records.push_back({"extremes", fmt, rec});

  // Proto3 omits zero scalars, -0.0 included: this record encodes empty.
  void* zeros = pbio::alloc_record(*fmt, arena);
  RecordRef(zeros, fmt).set_float("f32", -0.0);
  RecordRef(zeros, fmt).set_float("f64", -0.0);
  records.push_back({"zeros", fmt, zeros});

  check_golden("pbuf_scalars.hex", records);
}

}  // namespace
}  // namespace morph::pbuf
