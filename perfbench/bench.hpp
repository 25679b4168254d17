// Shared declarations of the end-to-end pipeline benchmark.
//
// One binary, two roles. The driver (main role) plays the publisher and the
// subscribers; it forks and execs itself with `--role broker` to run the
// system under test, an echo::EchoTcpNode on the reactor that relays every
// ingress event to the egress channel. The two processes talk over the
// broker's stdin/stdout with the line protocol documented in broker.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "core/transform.hpp"
#include "echo/fanout.hpp"
#include "pbio/format.hpp"

namespace perfbench {

using morph::pbio::FormatPtr;

/// CLOCK_MONOTONIC nanoseconds; comparable across the two processes.
uint64_t now_ns();

/// One subscriber of the egress channel.
struct SubscriberSpec {
  int rev = 0;  // index into Workload::revs
  morph::echo::SinkEncoding encoding = morph::echo::SinkEncoding::kPbio;
  bool churns = false;  // leaves and rejoins the channel for the whole run
};

/// A workload: the format family, who speaks which revision, and the load.
/// Everything here is a pure function of the workload name; only the
/// records (make_record) depend on the seed.
struct Workload {
  std::string name;
  std::vector<FormatPtr> revs;  // revs[0] is the oldest revision
  /// Retro-transforms rev k -> rev k-1 for every k >= 1, newest first.
  std::vector<morph::core::TransformSpec> transforms;
  int publish_rev = 0;  // format the publisher sends
  int broker_rev = 0;   // format the broker registers and republishes
  std::vector<SubscriberSpec> subs;
  double fixed_rate = 0;  // open-loop offered rate, events/s
  double churn_period_s = 0;  // 0 = membership never changes after setup
  size_t pool_size = 0;       // distinct seeded records per run
  /// A fresh seeded record of revs[publish_rev], allocated from `arena`.
  void* (*make_record)(const Workload&, morph::Rng&, morph::RecordArena&) = nullptr;

  const FormatPtr& publish_fmt() const { return revs[static_cast<size_t>(publish_rev)]; }
  const FormatPtr& broker_fmt() const { return revs[static_cast<size_t>(broker_rev)]; }
};

/// The workload named `name`; throws std::runtime_error for unknown names.
Workload make_workload(const std::string& name);
std::vector<std::string> workload_names();

/// Every format in this benchmark carries its sequence number in the
/// leading int64 field "seq" (offset 0).
int64_t read_seq(const void* record);
void write_seq(void* record, int64_t seq);

/// Field-by-field comparison of two records of `fmt`, ignoring the
/// top-level "seq". Returns "" when equal, else the path of the first
/// differing field.
std::string first_difference(const morph::pbio::FormatDescriptor& fmt, const void* a,
                             const void* b);

/// One relayed event as the broker's SPANS command reports it: handler
/// entry and the end of publish(), CLOCK_MONOTONIC.
struct RelaySpan {
  int64_t seq = 0;
  uint64_t entry_ns = 0;
  uint64_t end_ns = 0;
};

// --- roles ---------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

int run_broker(const std::string& workload);
int run_driver(const Options& options, const std::string& self_exe);

// --- probes ----------------------------------------------------------------

/// In-process timings of each layer's public entry point on the workload's
/// own seeded records (microseconds per call or per event; see probe.cpp).
struct ProbeResult {
  double pbio_encode_us = 0;
  double pbio_decode_us = 0;
  double receiver_process_us = 0;
  double chain_morph_us = 0;
  double pbuf_encode_us = 0;
  double pbuf_decode_us = 0;
};
ProbeResult run_probes(const Workload& w, const std::vector<void*>& pool);

}  // namespace perfbench
