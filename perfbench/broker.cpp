// Broker role: the system under test.
//
// An echo::EchoTcpNode on the reactor hosts one EchoProcess that owns the
// "egress" channel. Its on_event handler for the workload's broker format
// (registered for "ingress") republishes every delivered event on "egress"
// with EchoProcess::publish, so each event crosses the reactor read path,
// the ingress core::Receiver, the GroupPublisher and the subscriber links.
//
// The driver talks to it over stdin/stdout, one line per command:
//
//   (startup)   -> PORT <tcp port>
//   GROUPS      -> GROUPS <sinks grouped on egress> <groups>
//   MARK        -> MARK key=value ...   counters, CPU and RSS of this
//                  process, and the p50 of the timing histograms since the
//                  previous MARK; all read through the public obs API
//   TRACE 0|1   -> OK                   stop/start recording relay spans
//   SPANS       -> SPANS <n>, then n lines "<seq> <entry_ns> <end_ns>":
//                  handler entry and publish() end per relayed event
//   QUIT / EOF  -> exit
#include <sys/resource.h>

#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "echo/node.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

namespace {

using morph::obs::HistogramSnapshot;
using morph::obs::MetricsSnapshot;

/// Sum of every counter whose base name (labels stripped) is `base`.
uint64_t counter_sum(const MetricsSnapshot& s, const std::string& base) {
  uint64_t total = 0;
  for (const auto& [name, v] : s.counters) {
    if (morph::obs::split_metric_name(name).first == base) total += v;
  }
  return total;
}

/// Every histogram whose base name is `base`, merged bucket by bucket.
HistogramSnapshot histogram_sum(const MetricsSnapshot& s, const std::string& base) {
  std::map<uint64_t, uint64_t> buckets;
  HistogramSnapshot out;
  for (const auto& [name, h] : s.histograms) {
    if (morph::obs::split_metric_name(name).first != base) continue;
    out.count += h.count;
    out.sum += h.sum;
    out.max = std::max(out.max, h.max);
    for (const auto& [upper, n] : h.buckets) buckets[upper] += n;
  }
  out.buckets.assign(buckets.begin(), buckets.end());
  return out;
}

/// `now - before`, bucket by bucket (histograms only grow).
HistogramSnapshot histogram_delta(const HistogramSnapshot& now, const HistogramSnapshot& before) {
  std::map<uint64_t, uint64_t> buckets(now.buckets.begin(), now.buckets.end());
  for (const auto& [upper, n] : before.buckets) buckets[upper] -= n;
  HistogramSnapshot out;
  out.count = now.count - before.count;
  out.sum = now.sum - before.sum;
  out.max = now.max;
  for (const auto& [upper, n] : buckets) {
    if (n != 0) out.buckets.emplace_back(upper, n);
  }
  return out;
}

double cpu_us(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
}

class Broker {
 public:
  explicit Broker(const std::string& workload) : w_(make_workload(workload)) {
    morph::echo::NodeOptions opts;
    opts.transport = morph::transport::TransportMode::kReactor;
    opts.fanout = morph::echo::FanoutMode::kGrouped;
    node_ = std::make_unique<morph::echo::EchoTcpNode>("broker", opts);
    node_->with_process([this](morph::echo::EchoProcess& p) {
      proc_ = &p;
      p.create_channel("egress");
      for (const auto& spec : w_.transforms) p.declare_event_transform(spec);
      p.on_event("ingress", w_.broker_fmt(), [this](const morph::echo::Event& ev) { relay(ev); });
    });
  }

  int serve() {
    std::printf("PORT %u\n", static_cast<unsigned>(node_->port()));
    std::fflush(stdout);
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line == "QUIT") break;
      if (line == "GROUPS") {
        groups();
      } else if (line == "MARK") {
        mark();
      } else if (line.rfind("TRACE ", 0) == 0) {
        const bool on = line == "TRACE 1";
        node_->with_process([&](morph::echo::EchoProcess&) { tracing_ = on; });
        std::printf("OK\n");
      } else if (line == "SPANS") {
        spans();
      } else {
        std::printf("ERR unknown command\n");
      }
      std::fflush(stdout);
    }
    return 0;
  }

 private:
  // Loop thread.
  void relay(const morph::echo::Event& ev) {
    if (!tracing_) {
      proc_->publish("egress", w_.broker_fmt(), ev.delivery->record);
      return;
    }
    const uint64_t entry = now_ns();
    proc_->publish("egress", w_.broker_fmt(), ev.delivery->record);
    spans_.push_back({read_seq(ev.delivery->record), entry, now_ns()});
  }

  void groups() {
    size_t sinks = 0, groups = 0;
    node_->with_process([&](morph::echo::EchoProcess& p) {
      auto snap = p.fanout_groups().snapshot(
          morph::echo::FanoutRegistry::key("egress", w_.broker_fmt()->name()));
      sinks = snap->total_sinks;
      groups = snap->groups.size();
    });
    std::printf("GROUPS %zu %zu\n", sinks, groups);
  }

  void mark() {
    std::ostringstream out;
    out.precision(17);
    out << "MARK";
    auto put = [&out](const char* key, double v) { out << ' ' << key << '=' << v; };
    node_->with_process([&](morph::echo::EchoProcess& p) {
      const auto rx = p.receiver_totals();
      put("published", static_cast<double>(p.stats().events_published));
      put("rx_messages", static_cast<double>(rx.messages));
      put("rx_outcomes", static_cast<double>(rx.outcome_sum()));
      put("rx_hits", static_cast<double>(rx.cache_hits));
      put("rx_misses", static_cast<double>(rx.cache_misses));
      put("rebuilds", static_cast<double>(p.fanout_groups().stats().rebuilds));
    });
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    put("utime_us", cpu_us(ru.ru_utime));
    put("stime_us", cpu_us(ru.ru_stime));
    put("maxrss_kb", static_cast<double>(ru.ru_maxrss));

    const MetricsSnapshot s = morph::obs::metrics().snapshot();
    auto counter = [&](const char* key, const char* base) {
      put(key, static_cast<double>(counter_sum(s, base)));
    };
    counter("deliveries", "echo_fanout_deliveries_total");
    counter("morphs", "echo_fanout_morphs_total");
    counter("encodes", "echo_fanout_encodes_total");
    counter("pbuf_encodes", "echo_fanout_pbuf_encodes_total");
    counter("fallbacks", "echo_fanout_fallback_total");
    counter("bytes_sent", "morph_port_bytes_sent_total");
    counter("frames_sent", "morph_port_frames_sent_total");
    counter("send_drops", "morph_reactor_send_drops_total");
    counter("bp_closes", "morph_reactor_backpressure_closes_total");
    auto total_ms = [&](const char* key, const char* base) {
      put(key, static_cast<double>(histogram_sum(s, base).sum) / 1e6);
    };
    total_ms("build_ms", "morph_rx_decision_build_ns");
    total_ms("compile_ms", "morph_ecode_compile_ns");
    total_ms("jit_ms", "morph_ecode_jit_ns");
    total_ms("verify_ms", "morph_ecode_verify_ns");
    auto window_p50 = [&](const char* key, const char* base) {
      HistogramSnapshot now = histogram_sum(s, base);
      HistogramSnapshot& before = previous_[base];
      put(key, static_cast<double>(histogram_delta(now, before).percentile(0.5)));
      before = std::move(now);
    };
    // Loop iterations that found work: the reactor's wakeups.
    put("loops", static_cast<double>(histogram_sum(s, "morph_reactor_loop_ns").count));
    window_p50("loop_ns_p50", "morph_reactor_loop_ns");
    window_p50("dispatch_ns_p50", "morph_reactor_dispatch_ns");
    window_p50("decide_ns_p50", "morph_rx_decide_ns");
    window_p50("decode_ns_p50", "morph_rx_decode_ns");
    window_p50("morph_ns_p50", "morph_rx_morph_ns");
    std::printf("%s\n", out.str().c_str());
  }

  void spans() {
    std::vector<RelaySpan> taken;
    node_->with_process([&](morph::echo::EchoProcess&) { taken.swap(spans_); });
    std::printf("SPANS %zu\n", taken.size());
    for (const auto& sp : taken) {
      std::printf("%lld %llu %llu\n", static_cast<long long>(sp.seq),
                  static_cast<unsigned long long>(sp.entry_ns),
                  static_cast<unsigned long long>(sp.end_ns));
    }
  }

  Workload w_;
  std::unique_ptr<morph::echo::EchoTcpNode> node_;
  morph::echo::EchoProcess* proc_ = nullptr;
  // Loop-thread state (touched elsewhere only inside with_process).
  bool tracing_ = false;
  std::vector<RelaySpan> spans_;
  // Command-thread state.
  std::map<std::string, HistogramSnapshot> previous_;
};

}  // namespace

int run_broker(const std::string& workload) {
  morph::obs::set_tracing(false);
  Broker broker(workload);
  return broker.serve();
}

}  // namespace perfbench
