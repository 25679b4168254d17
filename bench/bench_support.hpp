// Shared benchmark plumbing.
//
// Every bench binary has two modes:
//   (default)        print the paper-shaped table for its figure/table —
//                    deterministic median-of-N timing, one row per payload
//                    size, with the ratio column the paper's claims hinge on;
//   --gbench [...]   run the same workloads under google-benchmark for
//                    statistically careful measurements.
//
// Observability hooks (paper-table mode):
//   --json PATH            after the table, dump the global metrics registry
//                          as JSON (obs::to_json) — every printed cell is
//                          also recorded as a bench_ms{bench,row,col} gauge,
//                          so the dump is machine-readable table + pipeline
//                          internals in one file (morph-stat reads it).
//   MORPH_STATS_PORT=N     serve live /metrics + JSON on 127.0.0.1:N for the
//                          duration of the run (0 picks an ephemeral port,
//                          printed to stderr).
//   MORPH_BENCH_MAX_BYTES  cap the payload sweep (e.g. 10240 keeps 100B..10KB)
//                          for brief CI smoke runs.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "echo/messages.hpp"

namespace morph::bench {

/// The paper's payload sweep: 100 B, 1 KB, 10 KB, 100 KB, 1 MB.
/// MORPH_BENCH_MAX_BYTES caps the sweep (smoke runs keep only the sizes at
/// or below the cap; the 100 B point always survives).
const std::vector<size_t>& paper_sizes();

inline const char* size_label(size_t bytes) {
  switch (bytes) {
    case 100: return "100B";
    case 1 << 10: return "1KB";
    case 10 << 10: return "10KB";
    case 100 << 10: return "100KB";
    case 1 << 20: return "1MB";
    default: return "?";
  }
}

/// Build a v2.0 ChannelOpenResponse whose unencoded size is ~target_bytes.
inline echo::ChannelOpenResponseV2* make_payload(size_t target_bytes, RecordArena& arena,
                                                 uint64_t seed = 42) {
  Rng rng(seed);
  echo::ResponseWorkload w;
  w.members = echo::members_for_target_size(target_bytes, w);
  return echo::make_response_v2(w, rng, arena);
}

/// Median-of-runs timing of `fn`, in milliseconds. Picks the repetition
/// count from the payload size so small payloads get enough samples.
inline double time_median_ms(size_t payload_bytes, const std::function<void()>& fn) {
  int reps = payload_bytes >= (1 << 20) ? 9 : payload_bytes >= (100 << 10) ? 21 : 51;
  int inner = payload_bytes <= (1 << 10) ? 100 : payload_bytes <= (10 << 10) ? 10 : 1;
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  fn();  // warm-up (compile caches, page in)
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    for (int i = 0; i < inner; ++i) fn();
    samples.push_back(sw.elapsed_millis() / inner);
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Print one table row: label + columns of milliseconds + trailing ratio.
/// Each cell is also recorded as a `bench_ms{bench=...,row=...,col=...}`
/// gauge in the global metrics registry (column names come from the last
/// print_header call), so a --json dump carries the whole table.
void print_row(const char* label, const std::vector<double>& ms);

void print_header(const char* first, const std::vector<std::string>& cols);

/// Record a bytes-on-wire data point as a `bench_wire_bytes{bench,row,col}`
/// gauge. Not printed in the table; shows up in --json dumps so
/// bench_compare.py can gate encoded-size regressions (sizes are
/// deterministic, unlike timings, so these cells are safe to compare
/// across machines).
void record_wire_bytes(const char* row, const char* col, size_t bytes);

/// Standard main: paper table by default, google-benchmark with --gbench.
int bench_main(int argc, char** argv, const std::function<void()>& paper_table);

}  // namespace morph::bench

#define MORPH_BENCH_MAIN(paper_table_fn)                                \
  int main(int argc, char** argv) {                                    \
    return ::morph::bench::bench_main(argc, argv, (paper_table_fn));   \
  }
