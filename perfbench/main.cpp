// pipeline_bench: end-to-end benchmark of publisher -> reactor broker ->
// mixed-revision subscribers.
//
//   pipeline_bench --workload small_events|large_morph|pbuf_churn
//                  [--seed N] [--seconds S] [--trace 0|1]
//
// Prints one JSON line {"correct", "attempted", "failed", "metrics"} on
// stdout (end-to-end metrics untraced, per-layer metrics with --trace 1)
// and a readable summary on stderr. Exits 1 on any correctness or
// conservation failure, 2 on bad arguments or a run that could not finish.
// `--role broker` is the forked system under test (see broker.cpp).
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <unistd.h>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "workloads:");
  for (const auto& name : perfbench::workload_names()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

std::string self_exe() {
  char buf[PATH_MAX];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string role = "driver";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--role") {
      role = value;
    } else if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else {
      return usage();
    }
  }
  bool known = false;
  for (const auto& name : perfbench::workload_names()) known = known || name == opts.workload;
  if (!known || opts.seconds < 1 || opts.seconds > 60) return usage();

  try {
    if (role == "broker") return perfbench::run_broker(opts.workload);
    if (role != "driver") return usage();
    return perfbench::run_driver(opts, self_exe());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench (%s): %s\n", role.c_str(), e.what());
    return 2;
  }
}
