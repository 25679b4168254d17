// In-process probes: each layer's public entry point timed on the
// workload's own seeded records, in the driver process after the pipeline
// has been torn down. A probe is the mean over repeated passes of the pool.
//
//   pbio.encode_us        pbio::Encoder on the publisher's format, per event
//   pbio.decode_us        pbio::ConversionPlan, publisher wire -> native
//   receiver.process_us   core::Receiver::process of the publisher's wire
//                         into the broker's format: the broker's ingress
//   ecode.chain_morph_us  FanoutPlanner::plan(...)->morph() per event, summed
//                         over every non-identity hop the broker runs: the
//                         ingress morph and each morphing egress group
//   pbuf.encode_us        pbuf::EncodePlan per event, summed over the
//                         broker's protobuf groups (0: no protobuf sink)
//   pbuf.decode_us        pbuf::DecodePlan per protobuf delivery
#include <set>

#include "bench.hpp"
#include "core/fanout.hpp"
#include "core/receiver.hpp"
#include "pbio/decode.hpp"
#include "pbio/encode.hpp"
#include "pbuf/bridge.hpp"

namespace perfbench {

namespace {

constexpr uint64_t kProbeNs = 40000000;  // time each probe for at least 40 ms

/// Mean microseconds per call of fn(i) over passes of i in [0, n).
template <typename Fn>
double us_per_call(size_t n, Fn&& fn) {
  for (size_t i = 0; i < n; ++i) fn(i);  // warm caches and lazy state
  uint64_t calls = 0;
  const uint64_t start = now_ns();
  uint64_t elapsed = 0;
  do {
    for (size_t i = 0; i < n; ++i) fn(i);
    calls += n;
    elapsed = now_ns() - start;
  } while (elapsed < kProbeNs);
  return static_cast<double>(elapsed) / 1e3 / static_cast<double>(calls);
}

std::vector<morph::ByteBuffer> encode_all(const FormatPtr& fmt, const std::vector<void*>& recs) {
  morph::pbio::Encoder enc(fmt);
  std::vector<morph::ByteBuffer> out(recs.size());
  for (size_t i = 0; i < recs.size(); ++i) enc.encode(recs[i], out[i]);
  return out;
}

}  // namespace

ProbeResult run_probes(const Workload& w, const std::vector<void*>& pool) {
  ProbeResult r;
  const size_t n = pool.size();
  for (size_t i = 0; i < n; ++i) write_seq(pool[i], static_cast<int64_t>(i));
  const std::vector<morph::ByteBuffer> wire = encode_all(w.publish_fmt(), pool);
  morph::RecordArena arena;

  morph::pbio::Encoder enc(w.publish_fmt());
  morph::ByteBuffer buf;
  r.pbio_encode_us = us_per_call(n, [&](size_t i) {
    buf.clear();
    enc.encode(pool[i], buf);
  });

  morph::pbio::ConversionPlan plan(w.publish_fmt(), w.publish_fmt());
  r.pbio_decode_us = us_per_call(n, [&](size_t i) {
    arena.reset();
    plan.execute(wire[i].data(), wire[i].size(), arena);
  });

  // The broker's ingress receiver; its deliveries double as the broker-format
  // records the egress probes start from.
  morph::core::Receiver rx;
  void* got = nullptr;
  rx.register_handler(w.broker_fmt(), [&](const morph::core::Delivery& d) { got = d.record; });
  for (const auto& f : w.revs) rx.learn_format(f);
  for (const auto& spec : w.transforms) rx.learn_transform(spec);
  morph::RecordArena broker_arena;
  std::vector<void*> broker_recs;
  for (size_t i = 0; i < n; ++i) {
    rx.process(wire[i].data(), wire[i].size(), broker_arena);
    broker_recs.push_back(got);
  }
  r.receiver_process_us = us_per_call(n, [&](size_t i) {
    arena.reset();
    rx.process(wire[i].data(), wire[i].size(), arena);
  });
  const std::vector<morph::ByteBuffer> broker_wire = encode_all(w.broker_fmt(), broker_recs);

  morph::core::FanoutPlanner planner;
  for (const auto& spec : w.transforms) planner.learn_transform(spec);
  auto chain_us = [&](const FormatPtr& src, const std::vector<morph::ByteBuffer>& src_wire,
                      const FormatPtr& dst) {
    auto p = planner.plan(src, dst->fingerprint());
    return us_per_call(n, [&](size_t i) {
      arena.reset();
      p->morph(src_wire[i].data(), src_wire[i].size(), arena);
    });
  };
  if (w.broker_rev != w.publish_rev) {
    r.chain_morph_us += chain_us(w.publish_fmt(), wire, w.broker_fmt());
  }
  std::set<int> morphed, pbuf_revs;
  size_t pbuf_sinks = 0;
  for (const auto& s : w.subs) {
    if (s.rev != w.broker_rev) morphed.insert(s.rev);
    if (s.encoding == morph::echo::SinkEncoding::kPbuf) {
      pbuf_revs.insert(s.rev);
      ++pbuf_sinks;
    }
  }
  for (int rev : morphed) {
    r.chain_morph_us += chain_us(w.broker_fmt(), broker_wire, w.revs[static_cast<size_t>(rev)]);
  }

  for (int rev : pbuf_revs) {
    const FormatPtr& fmt = w.revs[static_cast<size_t>(rev)];
    auto p = planner.plan(w.broker_fmt(), fmt->fingerprint());
    morph::RecordArena target_arena;
    std::vector<void*> target;
    for (size_t i = 0; i < n; ++i) {
      target.push_back(p->morph(broker_wire[i].data(), broker_wire[i].size(), target_arena));
    }
    morph::pbuf::EncodePlan penc(fmt);
    std::vector<morph::ByteBuffer> pwire(n);
    for (size_t i = 0; i < n; ++i) penc.encode(target[i], pwire[i]);
    r.pbuf_encode_us += us_per_call(n, [&](size_t i) {
      buf.clear();
      penc.encode(target[i], buf);
    });
    morph::pbuf::DecodePlan pdec(fmt);
    size_t sinks_on_rev = 0;
    for (const auto& s : w.subs) {
      if (s.rev == rev && s.encoding == morph::echo::SinkEncoding::kPbuf) ++sinks_on_rev;
    }
    r.pbuf_decode_us += us_per_call(n, [&](size_t i) {
                          arena.reset();
                          pdec.decode(pwire[i].data(), pwire[i].size(), arena);
                        }) *
                        static_cast<double>(sinks_on_rev) / static_cast<double>(pbuf_sinks);
  }
  return r;
}

}  // namespace perfbench
