// morph-trace: the fleet telemetry plane's CLI.
//
//   morph-trace serve [--port P]        run a TelemetryCollector until
//                                       SIGINT/SIGTERM; prints the bound
//                                       port on stdout. Exporting processes
//                                       point MORPH_TELEMETRY at it.
//                                       MORPH_STATS_PORT=N also serves its
//                                       live metrics (transport::StatsServer).
//   morph-trace dump HOST:PORT          fetch the collector's stitched
//              [--json FILE]            morph-telemetry-v1 document and
//                                       print (or save) it.
//   morph-trace pipeline [--json FILE]  the end-to-end scenario: spawns a
//              [--events N]             publisher, an echo broker, and a
//                                       receiver as separate processes
//                                       (plus an in-process fmtsvc and
//                                       collector), pushes N evolved events
//                                       through the broker, and verifies
//                                       that the collector stitched one
//                                       trace per event spanning all three
//                                       processes — with the morph
//                                       attributed to the hop that paid it.
//                                       Exit 0 only when span conservation
//                                       and stitching both hold.
//
// The pipeline's children are hidden subcommands of this same binary
// (`_publisher`, `_broker`, `_receiver`), fork+exec'd with MORPH_TRACE=1
// and MORPH_PROCESS set, each running a SpanExporter against the parent's
// collector. The broker receives v2.0 events, morphs them to v1.0 once via
// its receiver (resolving the unknown v2 format plus its retro-transform
// from fmtsvc), and fans the morphed record out through a shared frame —
// so the stitched critical path shows the broker paying the morph while
// the receiver gets an identity delivery.
#include <pthread.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/receiver.hpp"
#include "echo/fanout.hpp"
#include "echo/messages.hpp"
#include "fmtsvc/resolver.hpp"
#include "fmtsvc/server.hpp"
#include "fmtsvc/store.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "transport/port.hpp"
#include "transport/stats_endpoint.hpp"
#include "transport/tcp.hpp"
#include "transport/telemetry_endpoint.hpp"

using namespace morph;

namespace {

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "morph-trace: %s\n", msg.c_str());
  std::exit(2);  // NOLINT(concurrency-mt-unsafe) — single-threaded CLI
}

uint16_t port_arg(const std::string& s) {
  const auto port = transport::parse_port(s);
  if (!port || *port == 0) die("bad port: " + s);
  return *port;
}

std::pair<std::string, uint16_t> endpoint_arg(const std::string& target) {
  auto ep = transport::parse_endpoint(target);
  if (!ep) die("expected HOST:PORT, got " + target);
  return *ep;
}

bool deadline_passed(std::chrono::steady_clock::time_point deadline) {
  return std::chrono::steady_clock::now() >= deadline;
}

// --- serve -----------------------------------------------------------------

int cmd_serve(uint16_t port) {
  // Blocked before any server starts its loop thread, which inherits the
  // mask, so the signals reach only the sigwait below.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  const auto stats = transport::StatsServer::from_env();
  if (stats) std::fprintf(stderr, "stats endpoint on 127.0.0.1:%u\n", stats->port());
  transport::TelemetryCollector collector({.port = port});
  std::printf("collector listening on 127.0.0.1:%u\n", collector.port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&stop_signals, &sig);
  auto s = collector.stats();
  std::fprintf(stderr, "collector: %llu batches, %llu spans, %llu dumps, %llu bad frames\n",
               static_cast<unsigned long long>(s.batches),
               static_cast<unsigned long long>(s.spans),
               static_cast<unsigned long long>(s.dumps),
               static_cast<unsigned long long>(s.bad_frames));
  return 0;
}

// --- dump ------------------------------------------------------------------

int cmd_dump(const std::string& target, const std::optional<std::string>& json_path) {
  auto [host, port] = endpoint_arg(target);
  std::string json = transport::fetch_telemetry_dump(host, port);
  if (json_path) {
    std::ofstream out(*json_path, std::ios::binary);
    if (!out) die("cannot write " + *json_path);
    out << json;
    std::printf("wrote %zu bytes to %s\n", json.size(), json_path->c_str());
  } else {
    std::fwrite(json.data(), 1, json.size(), stdout);
  }
  return 0;
}

// --- pipeline roles --------------------------------------------------------

transport::ExporterOptions exporter_to(uint16_t collector_port) {
  transport::ExporterOptions o;
  o.port = collector_port;
  o.interval_ms = 20;
  return o;
}

/// Child 1: connect to the broker, publish the v2.0 format (plus its
/// Figure 5 retro-transform) to fmtsvc out-of-band, then send one traced
/// v2.0 event per requested count.
int role_publisher(uint16_t broker_port, uint16_t collector_port, uint16_t fmtsvc_port,
                   int events) {
  obs::install_flight_signal_dump();
  transport::SpanExporter exporter(exporter_to(collector_port));
  fmtsvc::ResolverOptions ro;
  ro.port = fmtsvc_port;
  fmtsvc::FormatResolver resolver(ro);

  auto link = transport::TcpLink::connect("127.0.0.1", broker_port);
  transport::MessagePort tx(*link, nullptr);
  tx.set_meta_publisher([&](const pbio::FormatPtr& fmt,
                            const std::vector<core::TransformSpec>& transforms) {
    return resolver.publish(fmt, transforms);
  });
  tx.declare_transform(echo::response_v2_to_v1_spec());

  Rng rng(2026);
  RecordArena arena;
  for (int i = 0; i < events; ++i) {
    arena.reset();
    echo::ResponseWorkload w;
    w.members = 3;
    auto* msg = echo::make_response_v2(w, rng, arena);
    // One trace per event, rooted at the publisher: the send span below
    // parents under this and the id rides the wire to the broker.
    obs::TraceScope scope(obs::TraceContext{obs::new_trace_id()});
    obs::TraceSpan span("pub.event");
    tx.send_record(echo::channel_open_response_v2_format(), msg);
  }
  if (!exporter.flush()) return 1;
  return 0;
}

/// Child 2: the echo broker. Accepts the receiver's connection, then the
/// publisher's; morphs each inbound v2.0 event to v1.0 once (format and
/// transform resolved from fmtsvc) and fans the result out as a shared
/// frame. The morph happens HERE — the attribution table must say so.
int role_broker(uint16_t collector_port, uint16_t fmtsvc_port, int events) {
  obs::install_flight_signal_dump();
  transport::SpanExporter exporter(exporter_to(collector_port));
  fmtsvc::ResolverOptions ro;
  ro.port = fmtsvc_port;
  fmtsvc::FormatResolver resolver(ro);

  transport::TcpListener listener(0);
  std::printf("PORT %u\n", listener.port());
  std::fflush(stdout);

  // Connection order is fixed by the parent: receiver first, publisher
  // second (the publisher is only spawned after the receiver reports READY).
  auto rx_conn = listener.accept(10000);
  if (rx_conn == nullptr) die("broker: receiver never connected");
  transport::MessagePort out(*rx_conn, nullptr);

  auto pub_conn = listener.accept(10000);
  if (pub_conn == nullptr) die("broker: publisher never connected");

  core::FanoutPlanner planner;
  echo::GroupPublisher group_pub(planner);
  const pbio::FormatPtr v1 = echo::channel_open_response_v1_format();
  planner.learn_format(v1);
  echo::GroupSnapshot snapshot;
  snapshot.groups.push_back(echo::FanoutGroup{v1->fingerprint(), echo::SinkEncoding::kPbio, {1}});
  snapshot.total_sinks = 1;

  int delivered = 0;
  core::ReceiverOptions rx_opts;
  rx_opts.format_source = &resolver;
  rx_opts.resolve = core::ResolvePolicy::kFetch;
  core::Receiver rx(rx_opts);
  rx.register_handler(v1, [&](const core::Delivery& d) {
    // Morphed to v1 on arrival; re-publish the native record through the
    // grouped fan-out path (identity group: one encode, zero extra morphs).
    auto counts = group_pub.publish(d.format, d.record, snapshot,
                                    [&](echo::SinkId) { return &out; }, [](echo::SinkId) {});
    delivered += static_cast<int>(counts.fanout_deliveries);
  });
  transport::MessagePort in(*pub_conn, &rx);

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (delivered < events && !deadline_passed(deadline)) {
    if (!pub_conn->pump(100)) break;
  }
  if (!exporter.flush()) return 1;
  return delivered == events ? 0 : 1;
}

/// Child 3: the subscriber. Registers the v1.0 handler and counts
/// deliveries; everything arriving was already morphed upstream.
int role_receiver(uint16_t broker_port, uint16_t collector_port, int events) {
  obs::install_flight_signal_dump();
  transport::SpanExporter exporter(exporter_to(collector_port));

  auto link = transport::TcpLink::connect("127.0.0.1", broker_port);
  int received = 0;
  core::Receiver rx;
  rx.register_handler(echo::channel_open_response_v1_format(),
                      [&](const core::Delivery&) { ++received; });
  transport::MessagePort port(*link, &rx);

  std::printf("READY\n");
  std::fflush(stdout);

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(15);
  while (received < events && !deadline_passed(deadline)) {
    if (!link->pump(100)) break;
  }
  if (!exporter.flush()) return 1;
  return received == events ? 0 : 1;
}

// --- pipeline orchestration ------------------------------------------------

struct Child {
  pid_t pid = -1;
  int out_fd = -1;  // read end of the child's stdout pipe
};

/// Fork+exec this binary with a hidden role subcommand. The child's stdout
/// is piped back so the parent can read its PORT/READY line.
Child spawn_role(const char* self, const std::vector<std::string>& args,
                 const std::string& process_name) {
  int fds[2];
  if (pipe(fds) != 0) die("pipe failed");
  pid_t pid = fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    close(fds[0]);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[1]);
    setenv("MORPH_TRACE", "1", 1);
    setenv("MORPH_PROCESS", process_name.c_str(), 1);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(self));
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv(self, argv.data());
    std::perror("execv");
    _exit(127);
  }
  close(fds[1]);
  return Child{pid, fds[0]};
}

/// Read one newline-terminated line from a child's pipe (blocking).
std::string read_line(int fd) {
  std::string line;
  char c;
  while (read(fd, &c, 1) == 1) {
    if (c == '\n') break;
    line.push_back(c);
  }
  return line;
}

int wait_child(const Child& child, const char* who) {
  int status = 0;
  if (waitpid(child.pid, &status, 0) < 0) die(std::string("waitpid failed for ") + who);
  close(child.out_fd);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "morph-trace: %s exited abnormally (status %d)\n", who, status);
    return 1;
  }
  return 0;
}

/// Validate the stitched document: conservation holds, all three processes
/// reported, and at least one trace carries spans from every process with a
/// morph span parented inside it.
bool validate_dump(const obs::JsonValue& doc, int events, std::string& err) {
  const obs::JsonValue* conservation = doc.find("conservation");
  if (conservation == nullptr || !conservation->at("ok").as_bool()) {
    err = "conservation violations reported";
    if (conservation != nullptr) {
      for (const auto& v : conservation->at("violations").as_array()) {
        err += "\n    " + v.as_string();
      }
    }
    return false;
  }
  const obs::JsonValue* processes = doc.find("processes");
  for (const char* name : {"publisher", "broker", "receiver"}) {
    if (processes == nullptr || processes->find(name) == nullptr) {
      err = std::string("no spans ingested from process '") + name + "'";
      return false;
    }
  }
  uint64_t broker_morphs = processes->at("broker").at("morphs").as_u64();
  if (broker_morphs != static_cast<uint64_t>(events)) {
    err = "broker reported " + std::to_string(broker_morphs) + " morphs, expected " +
          std::to_string(events);
    return false;
  }

  const obs::JsonValue* traces = doc.find("traces");
  if (traces == nullptr) {
    err = "no traces in dump";
    return false;
  }
  int stitched = 0;
  for (const auto& trace : traces->as_array()) {
    bool pub = false, broker = false, recv = false, morph_linked = false;
    for (const auto& span : trace.at("spans").as_array()) {
      const std::string& process = span.at("process").as_string();
      pub = pub || process == "publisher";
      broker = broker || process == "broker";
      recv = recv || process == "receiver";
      if (span.at("name").as_string() == "rx.morph" &&
          span.at("parent").as_string() != "0x0000000000000000") {
        morph_linked = true;
      }
    }
    if (pub && broker && recv && morph_linked) ++stitched;
  }
  if (stitched < events) {
    err = "only " + std::to_string(stitched) + " of " + std::to_string(events) +
          " traces stitched across all three processes";
    return false;
  }
  return true;
}

void print_summary(const obs::JsonValue& doc) {
  if (const obs::JsonValue* attrib = doc.find("attribution")) {
    std::printf("attribution (who paid the morph):\n");
    std::printf("  %-12s %-28s %8s %12s %12s\n", "process", "format", "morphs", "total_ns",
                "max_ns");
    for (const auto& row : attrib->as_array()) {
      std::printf("  %-12s %-28s %8llu %12llu %12llu\n", row.at("process").as_string().c_str(),
                  row.at("format").as_string().c_str(),
                  static_cast<unsigned long long>(row.at("morphs").as_u64()),
                  static_cast<unsigned long long>(row.at("total_ns").as_u64()),
                  static_cast<unsigned long long>(row.at("max_ns").as_u64()));
    }
  }
  const obs::JsonValue* traces = doc.find("traces");
  if (traces != nullptr && !traces->as_array().empty()) {
    const auto& trace = traces->as_array().front();
    std::printf("critical path of trace %s:\n", trace.at("trace").as_string().c_str());
    for (const auto& step : trace.at("critical_path").as_array()) {
      std::printf("  %-12s %-16s %-24s dur=%8llu ns self=%8llu ns\n",
                  step.at("process").as_string().c_str(), step.at("name").as_string().c_str(),
                  step.at("detail").as_string().c_str(),
                  static_cast<unsigned long long>(step.at("dur_ns").as_u64()),
                  static_cast<unsigned long long>(step.at("self_ns").as_u64()));
    }
  }
}

int cmd_pipeline(const char* self, int events, const std::optional<std::string>& json_path) {
  // Service plane, in-process: the format service the broker resolves
  // against and the collector every child exports spans to.
  fmtsvc::FormatStore store;
  fmtsvc::FormatService fmtsvc_server(store, {});
  transport::TelemetryCollector collector(transport::CollectorOptions{});
  std::printf("fmtsvc on :%u, collector on :%u\n", fmtsvc_server.port(), collector.port());

  std::string collector_port = std::to_string(collector.port());
  std::string fmtsvc_port = std::to_string(fmtsvc_server.port());
  std::string events_arg = std::to_string(events);

  Child broker = spawn_role(self, {"_broker", collector_port, fmtsvc_port, events_arg}, "broker");
  std::string port_line = read_line(broker.out_fd);
  if (port_line.rfind("PORT ", 0) != 0) die("broker did not report its port: " + port_line);
  std::string broker_port = port_line.substr(5);
  std::printf("broker on :%s\n", broker_port.c_str());

  Child receiver =
      spawn_role(self, {"_receiver", broker_port, collector_port, events_arg}, "receiver");
  if (read_line(receiver.out_fd) != "READY") die("receiver never became ready");

  Child publisher = spawn_role(
      self, {"_publisher", broker_port, collector_port, fmtsvc_port, events_arg}, "publisher");

  int failures = 0;
  failures += wait_child(publisher, "publisher");
  failures += wait_child(receiver, "receiver");
  failures += wait_child(broker, "broker");
  if (failures > 0) return 1;

  // All exporters flushed before exit; poll the dump until the collector's
  // ingest threads have drained the last batches and the stitched document
  // passes. The retry loop absorbs the send/ingest race, not real loss.
  std::string json;
  std::string err = "no dump fetched";
  bool ok = false;
  for (int attempt = 0; attempt < 25 && !ok; ++attempt) {
    if (attempt > 0) std::this_thread::sleep_for(std::chrono::milliseconds(200));
    json = transport::fetch_telemetry_dump("127.0.0.1", collector.port());
    try {
      obs::JsonValue doc = obs::json_parse(json);
      ok = validate_dump(doc, events, err);
      if (ok) print_summary(doc);
    } catch (const std::exception& e) {
      err = e.what();
    }
  }
  if (json_path && !json.empty()) {
    std::ofstream out(*json_path, std::ios::binary);
    if (!out) die("cannot write " + *json_path);
    out << json;
    std::printf("stitched dump written to %s\n", json_path->c_str());
  }
  if (!ok) {
    std::fprintf(stderr, "morph-trace: pipeline FAILED: %s\n", err.c_str());
    return 1;
  }
  std::printf("pipeline OK: %d events, %d stitched traces, conservation holds\n", events, events);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: morph-trace serve [--port P]\n"
                 "       morph-trace dump HOST:PORT [--json FILE]\n"
                 "       morph-trace pipeline [--events N] [--json FILE]\n");
    return 2;
  }
  std::string cmd = argv[1];
  std::optional<std::string> json_path;
  std::optional<std::string> target;
  uint16_t port = 0;
  int events = 8;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      port = port_arg(argv[++i]);
    } else if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
      events = std::atoi(argv[++i]);
      if (events <= 0 || events > 100000) die("bad --events");
    } else if (cmd == "dump" && argv[i][0] != '-') {
      target = argv[i];
    } else if (cmd[0] == '_') {
      break;  // role arguments are positional, parsed below
    } else {
      die(std::string("unknown argument: ") + argv[i]);
    }
  }

  try {
    if (cmd == "serve") return cmd_serve(port);
    if (cmd == "dump") {
      if (!target) die("dump wants HOST:PORT");
      return cmd_dump(*target, json_path);
    }
    if (cmd == "pipeline") return cmd_pipeline(argv[0], events, json_path);
    if (cmd == "_publisher" && argc == 6) {
      return role_publisher(port_arg(argv[2]), port_arg(argv[3]), port_arg(argv[4]),
                            std::atoi(argv[5]));
    }
    if (cmd == "_broker" && argc == 5) {
      return role_broker(port_arg(argv[2]), port_arg(argv[3]), std::atoi(argv[4]));
    }
    if (cmd == "_receiver" && argc == 5) {
      return role_receiver(port_arg(argv[2]), port_arg(argv[3]), std::atoi(argv[4]));
    }
    die("unknown command: " + cmd);
  } catch (const std::exception& e) {
    die(e.what());
  }
}
