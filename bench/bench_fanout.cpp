// Broker-scale fan-out: morph once per format revision vs once per
// subscriber.
//
// A channel with N subscribers spread over K format revisions receives one
// event. The per-subscriber baseline does what a broker without grouping
// must: resolve the plan, run the morph chain, and encode a fresh frame for
// every single subscriber (N morphs, N encodes). The grouped path is the
// GroupPublisher engine EchoProcess uses: subscribers grouped by target
// fingerprint, one morph + one shared encode per revision, the same
// refcounted frame handed to every port in the group (K morphs, K encodes,
// N zero-copy sends). Both paths run over real MessagePorts on in-process
// links; the timed window is the broker's publish work (plan, morph,
// encode, frame, enqueue) — the sink-side drain runs between windows, is
// identical per path, and is frame-counted to prove no delivery was lost.
// The ratio therefore isolates exactly the claim: broker morph cost O(K),
// not O(N).
//
// The grouped rows are counter-verified against the obs registry: per-event
// echo_fanout morphs must equal K and deliveries must equal N, or the bench
// exits non-zero. MORPH_BENCH_MAX_SUBS caps the subscriber sweep (e.g. 2000
// keeps the 1k rows) for brief CI smoke runs; the smallest row always
// survives.
#include "bench_support.hpp"

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/fanout.hpp"
#include "echo/fanout.hpp"
#include "obs/metrics.hpp"
#include "pbio/encode.hpp"
#include "pbio/record.hpp"
#include "transport/framing.hpp"
#include "transport/link.hpp"
#include "transport/port.hpp"

namespace {

using namespace morph;
using namespace morph::bench;
using pbio::FormatBuilder;
using pbio::FormatPtr;

/// Revision ladder, shaped like the fan-out tests' but with a realistic
/// body: every revision carries kPadFields shared payload fields the
/// retro-transforms must copy, rev 0 is narrowest, each later revision
/// widens seq and appends a field.
constexpr int kPadFields = 48;

FormatPtr rev_format(int rev) {
  FormatBuilder b("FanTick");
  b.add_int("seq", rev == 0 ? 4 : 8);
  b.add_float("v", 8);
  for (int p = 1; p <= kPadFields; ++p) b.add_int("pad" + std::to_string(p), 8);
  for (int i = 1; i <= rev; ++i) b.add_int("extra" + std::to_string(i), 4);
  return b.build();
}

core::TransformSpec rev_spec(int rev) {
  core::TransformSpec s;
  s.src = rev_format(rev);
  s.dst = rev_format(rev - 1);
  std::string code = "old.seq = new.seq; old.v = new.v;";
  for (int p = 1; p <= kPadFields; ++p) {
    code += " old.pad" + std::to_string(p) + " = new.pad" + std::to_string(p) + ";";
  }
  for (int i = 1; i < rev; ++i) {
    code += " old.extra" + std::to_string(i) + " = new.extra" + std::to_string(i) + ";";
  }
  s.code = code;
  return s;
}

/// One broker + N subscriber ports. Every subscriber registered revision
/// (i % revs) — all strictly older than the published revision, so every
/// group needs a morph chain and grouped morphs per event == revs exactly.
struct Fleet {
  core::FanoutPlanner planner;
  echo::FanoutRegistry registry;
  echo::GroupPublisher publisher{planner};
  FormatPtr src;
  std::string key;
  int revs;
  std::vector<uint64_t> member_fp;  // subscriber index -> target fingerprint
  std::vector<std::unique_ptr<transport::InprocPair>> pairs;
  std::vector<std::unique_ptr<transport::MessagePort>> ports;
  std::vector<transport::FrameAssembler> assemblers;
  uint64_t received = 0;  // kData frames counted at the sinks

  Fleet(size_t subs, int revs_in) : revs(revs_in) {
    src = rev_format(revs);
    key = echo::FanoutRegistry::key("fan", src->name());
    for (int r = revs; r >= 1; --r) planner.learn_transform(rev_spec(r));
    member_fp.reserve(subs);
    pairs.reserve(subs);
    ports.reserve(subs);
    assemblers.resize(subs);
    for (size_t i = 0; i < subs; ++i) {
      uint64_t fp = rev_format(static_cast<int>(i) % revs)->fingerprint();
      member_fp.push_back(fp);
      registry.subscribe(key, i, fp);
      pairs.push_back(std::make_unique<transport::InprocPair>());
      ports.push_back(std::make_unique<transport::MessagePort>(pairs.back()->a(), nullptr));
      pairs.back()->b().set_on_data([this, i](const uint8_t* data, size_t size) {
        assemblers[i].feed(data, size, [this](transport::Frame& f) {
          if (f.type == transport::FrameType::kData) ++received;
        });
      });
    }
  }

  void pump() {
    for (auto& p : pairs) p->pump();
  }

  /// The grouped engine: one morph + one shared encode per revision. The
  /// caller pumps; frames queue zero-copy until then.
  echo::PublisherStats publish_grouped(const void* record) {
    auto snap = registry.snapshot(key);
    return publisher.publish(
        src, record, *snap, [this](echo::SinkId s) { return ports[s].get(); },
        [](echo::SinkId) {});
  }

  /// The baseline a broker without grouping pays: plan/morph/encode/frame
  /// per subscriber (the planner cache makes plan() a lookup, as it would
  /// be in any real broker — the N morphs and N encodes are the cost).
  void publish_per_subscriber(const void* record, pbio::Encoder& enc, RecordArena& arena,
                              ByteBuffer& wire, ByteBuffer& scratch) {
    wire.clear();
    enc.encode(record, wire);
    arena.reset();
    for (size_t i = 0; i < ports.size(); ++i) {
      auto plan = planner.plan(src, member_fp[i]);
      void* morphed = plan->morph(wire.data(), wire.size(), arena);
      scratch.clear();
      plan->encode(morphed, scratch);
      auto frame = transport::make_shared_frame(scratch.data(), scratch.size());
      ports[i]->send_shared(plan->target(), frame);
    }
  }
};

void* make_event(const FormatPtr& fmt, int revs, int seq, RecordArena& arena) {
  void* rec = pbio::alloc_record(*fmt, arena);
  pbio::RecordRef r(rec, fmt);
  r.set_int("seq", seq);
  r.set_float("v", 0.25 * seq);
  for (int p = 1; p <= kPadFields; ++p) r.set_int("pad" + std::to_string(p), seq * 31 + p);
  for (int i = 1; i <= revs; ++i) r.set_int("extra" + std::to_string(i), seq + i);
  return rec;
}

struct Row {
  size_t subs;
  int revs;
  const char* label;
};

std::vector<Row> sweep_rows() {
  std::vector<Row> rows = {{1000, 2, "1k x 2"},
                           {1000, 4, "1k x 4"},
                           {10000, 4, "10k x 4"},
                           {10000, 8, "10k x 8"},
                           {100000, 4, "100k x 4"}};
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once before threads start
  const char* cap_env = std::getenv("MORPH_BENCH_MAX_SUBS");
  if (cap_env != nullptr && cap_env[0] != '\0') {
    size_t cap = std::strtoull(cap_env, nullptr, 10);
    std::erase_if(rows, [&](const Row& r) { return r.subs > cap && r.subs != 1000; });
  }
  return rows;
}

int events_for(size_t subs) { return subs >= 100000 ? 3 : subs >= 10000 ? 8 : 24; }

void paper_table() {
  std::printf("Broker fan-out: N subscribers over K format revisions, one event\n"
              "(us per event; morphs_evt is counter-verified == K on the grouped path)\n\n");
  print_header("N x K", {"persub_us", "grouped_us", "persub/grouped", "morphs_evt"});

  auto& metrics = obs::metrics();
  bool violated = false;
  for (const Row& row : sweep_rows()) {
    const int events = events_for(row.subs);
    RecordArena event_arena;

    // Per-subscriber baseline: fresh fleet, warm plans, N morphs per event.
    double persub_us;
    {
      Fleet fleet(row.subs, row.revs);
      pbio::Encoder enc(fleet.src);
      RecordArena morph_arena;
      ByteBuffer wire;
      ByteBuffer scratch;
      void* warm = make_event(fleet.src, row.revs, -1, event_arena);
      fleet.publish_per_subscriber(warm, enc, morph_arena, wire, scratch);  // compile plans
      fleet.pump();
      fleet.received = 0;
      double total_us = 0;
      for (int e = 0; e < events; ++e) {
        event_arena.reset();
        void* rec = make_event(fleet.src, row.revs, e, event_arena);
        Stopwatch sw;
        fleet.publish_per_subscriber(rec, enc, morph_arena, wire, scratch);
        total_us += sw.elapsed_micros();
        fleet.pump();  // sink drain between timed windows, identical per path
      }
      persub_us = total_us / events;
      if (fleet.received != static_cast<uint64_t>(events) * row.subs) {
        std::fprintf(stderr, "FAIL %s: per-subscriber deliveries %llu != %llu\n", row.label,
                     static_cast<unsigned long long>(fleet.received),
                     static_cast<unsigned long long>(events) * row.subs);
        violated = true;
      }
    }

    // Grouped engine: K morphs per event, counter-verified.
    double grouped_us;
    double morphs_per_event;
    {
      Fleet fleet(row.subs, row.revs);
      void* warm = make_event(fleet.src, row.revs, -1, event_arena);
      fleet.publish_grouped(warm);  // compile plans outside timing
      fleet.pump();
      fleet.received = 0;
      uint64_t morphs0 = metrics.counter("echo_fanout_morphs_total").value();
      uint64_t deliveries0 = metrics.counter("echo_fanout_deliveries_total").value();
      double total_us = 0;
      for (int e = 0; e < events; ++e) {
        event_arena.reset();
        void* rec = make_event(fleet.src, row.revs, e, event_arena);
        Stopwatch sw;
        fleet.publish_grouped(rec);
        total_us += sw.elapsed_micros();
        fleet.pump();
      }
      grouped_us = total_us / events;
      uint64_t morphs = metrics.counter("echo_fanout_morphs_total").value() - morphs0;
      uint64_t deliveries = metrics.counter("echo_fanout_deliveries_total").value() - deliveries0;
      morphs_per_event = static_cast<double>(morphs) / events;
      if (morphs != static_cast<uint64_t>(events) * row.revs) {
        std::fprintf(stderr, "FAIL %s: grouped morphs %llu != events(%d) x revisions(%d)\n",
                     row.label, static_cast<unsigned long long>(morphs), events, row.revs);
        violated = true;
      }
      if (deliveries != static_cast<uint64_t>(events) * row.subs ||
          fleet.received != deliveries) {
        std::fprintf(stderr, "FAIL %s: grouped deliveries %llu (received %llu) != %llu\n",
                     row.label, static_cast<unsigned long long>(deliveries),
                     static_cast<unsigned long long>(fleet.received),
                     static_cast<unsigned long long>(events) * row.subs);
        violated = true;
      }
    }

    print_row(row.label, {persub_us, grouped_us, persub_us / grouped_us, morphs_per_event});
  }
  std::printf("\nboth paths deliver through identical MessagePort/Inproc plumbing (drained\n"
              "and frame-counted outside the timed window); the ratio is the\n"
              "morph-once-per-format win, the last column proves broker morph work\n"
              "stayed O(revisions) while subscribers scaled\n");
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — workers joined before this point
  if (violated) std::exit(1);
}

void bm_fanout_grouped(benchmark::State& state) {
  Fleet fleet(static_cast<size_t>(state.range(0)), static_cast<int>(state.range(1)));
  RecordArena arena;
  void* rec = make_event(fleet.src, fleet.revs, 7, arena);
  fleet.publish_grouped(rec);  // compile plans
  fleet.pump();
  for (auto _ : state) {
    benchmark::DoNotOptimize(fleet.publish_grouped(rec).fanout_deliveries);
    fleet.pump();
  }
}
BENCHMARK(bm_fanout_grouped)->Args({1000, 2})->Args({1000, 4});

void bm_fanout_per_subscriber(benchmark::State& state) {
  Fleet fleet(static_cast<size_t>(state.range(0)), static_cast<int>(state.range(1)));
  pbio::Encoder enc(fleet.src);
  RecordArena arena;
  RecordArena morph_arena;
  ByteBuffer wire;
  ByteBuffer scratch;
  void* rec = make_event(fleet.src, fleet.revs, 7, arena);
  fleet.publish_per_subscriber(rec, enc, morph_arena, wire, scratch);
  fleet.pump();
  for (auto _ : state) {
    fleet.publish_per_subscriber(rec, enc, morph_arena, wire, scratch);
    fleet.pump();
    benchmark::DoNotOptimize(fleet.received);
  }
}
BENCHMARK(bm_fanout_per_subscriber)->Args({1000, 2})->Args({1000, 4});

}  // namespace

MORPH_BENCH_MAIN(paper_table)
