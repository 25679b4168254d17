#include "bench_support.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "transport/stats_endpoint.hpp"

namespace morph::bench {

namespace {
bool g_fused = true;
std::string g_bench_name = "bench";          // argv[0] basename
std::vector<std::string> g_cols;             // from the last print_header
}  // namespace

const std::vector<size_t>& paper_sizes() {
  static const std::vector<size_t> kSizes = [] {
    std::vector<size_t> sizes = {100, 1 << 10, 10 << 10, 100 << 10, 1 << 20};
    // NOLINTNEXTLINE(concurrency-mt-unsafe) — read once before threads start
    const char* cap_env = std::getenv("MORPH_BENCH_MAX_BYTES");
    if (cap_env != nullptr && cap_env[0] != '\0') {
      size_t cap = std::strtoull(cap_env, nullptr, 10);
      std::erase_if(sizes, [&](size_t s) { return s > cap && s != 100; });
    }
    return sizes;
  }();
  return kSizes;
}

bool bench_fused() { return g_fused; }

void print_header(const char* first, const std::vector<std::string>& cols) {
  g_cols = cols;
  std::printf("%-10s", first);
  for (const auto& c : cols) std::printf("  %12s", c.c_str());
  std::printf("\n");
  std::printf("%s\n", std::string(10 + cols.size() * 14, '-').c_str());
}

void print_row(const char* label, const std::vector<double>& ms) {
  std::printf("%-10s", label);
  for (double v : ms) std::printf("  %12.4f", v);
  std::printf("\n");
  for (size_t i = 0; i < ms.size(); ++i) {
    std::string col = i < g_cols.size() ? g_cols[i] : "col" + std::to_string(i);
    // Label values go in raw; obs::to_prometheus escapes at render time.
    obs::metrics()
        .gauge("bench_ms{bench=\"" + g_bench_name + "\",row=\"" + std::string(label) +
               "\",col=\"" + col + "\"}")
        .set(ms[i]);
  }
}

void record_wire_bytes(const char* row, const char* col, size_t bytes) {
  obs::metrics()
      .gauge("bench_wire_bytes{bench=\"" + g_bench_name + "\",row=\"" + std::string(row) +
             "\",col=\"" + std::string(col) + "\"}")
      .set(static_cast<double>(bytes));
}

int bench_main(int argc, char** argv, const std::function<void()>& paper_table) {
  bool gbench = false;
  const char* json_path = nullptr;
  std::vector<char*> args;
  args.push_back(argv[0]);
  if (argv[0] != nullptr) {
    const char* slash = std::strrchr(argv[0], '/');
    g_bench_name = slash != nullptr ? slash + 1 : argv[0];
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gbench") == 0) {
      gbench = true;
    } else if (std::strcmp(argv[i], "--fused") == 0 && i + 1 < argc) {
      g_fused = std::strcmp(argv[++i], "off") != 0;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }

  // MORPH_STATS_PORT: serve live metrics while the benchmark runs, so
  // morph-stat --scrape (or curl) can watch percentiles move.
  std::unique_ptr<transport::StatsServer> stats;
  // NOLINTNEXTLINE(concurrency-mt-unsafe) — read before worker threads start
  if (const char* port_env = std::getenv("MORPH_STATS_PORT");
      port_env != nullptr && port_env[0] != '\0') {
    stats = std::make_unique<transport::StatsServer>(
        static_cast<uint16_t>(std::strtoul(port_env, nullptr, 10)));
    std::fprintf(stderr, "stats endpoint on 127.0.0.1:%u\n", stats->port());
  }

  if (!gbench) {
    paper_table();
    if (json_path != nullptr) {
      std::ofstream out(json_path);
      out << obs::to_json(obs::MetricsRegistry::global().snapshot(), obs::recent_spans());
      out << "\n";
      if (!out) {
        std::fprintf(stderr, "failed to write %s\n", json_path);
        return 1;
      }
      std::fprintf(stderr, "metrics JSON written to %s\n", json_path);
    }
    return 0;
  }
  int gargc = static_cast<int>(args.size());
  benchmark::Initialize(&gargc, args.data());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace morph::bench
