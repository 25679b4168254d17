// fmtsvc — run and poke the out-of-band format-metadata service.
//
// Usage:
//   fmtsvc --serve [--port N] [--spill FILE] [--lint off|warn|enforce]
//          [--audit off|warn|enforce] [--live FP_HEX]...
//       Serve a format store on 127.0.0.1 (port 0 picks one; the chosen
//       port is printed). With --spill, previously stored entries are
//       replayed on start and every accepted entry is appended for
//       restart durability. --audit gates REGISTER on the fleet-wide
//       evolution audit; each --live declares a revision fingerprint a
//       deployed peer still reads. Runs until SIGINT/SIGTERM.
//       MORPH_STATS_PORT=N also serves live metrics on 127.0.0.1:N.
//   fmtsvc --put HOST:PORT
//       Register the built-in ECho demo formats (ChannelOpenResponse v1,
//       v2 and the Figure 5 retro-transformation) with a running service.
//   fmtsvc --get HOST:PORT FINGERPRINT_HEX
//       Fetch one format by fingerprint and dump it.
//   fmtsvc --dump HOST:PORT
//       List everything the service stores.
#include <pthread.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "analysis/audit.hpp"
#include "core/lint.hpp"
#include "echo/messages.hpp"
#include "fmtsvc/resolver.hpp"
#include "fmtsvc/server.hpp"
#include "fmtsvc/store.hpp"
#include "transport/stats_endpoint.hpp"
#include "transport/tcp.hpp"

using namespace morph;

namespace {

/// Resolver options for a "HOST:PORT" argument; nullopt (reported) when
/// it is not one.
std::optional<fmtsvc::ResolverOptions> client_options(const char* endpoint) {
  const auto ep = transport::parse_endpoint(endpoint);
  if (!ep) {
    std::fprintf(stderr, "fmtsvc: bad endpoint '%s' (want HOST:PORT)\n", endpoint);
    return std::nullopt;
  }
  fmtsvc::ResolverOptions opts;
  opts.host = ep->first;
  opts.port = ep->second;
  return opts;
}

void dump_entry(const fmtsvc::FormatEntry& entry) {
  std::printf("%016llx  %s  (%zu transform%s)\n",
              static_cast<unsigned long long>(entry.format->fingerprint()),
              entry.format->name().c_str(), entry.transforms.size(),
              entry.transforms.size() == 1 ? "" : "s");
  std::printf("%s", entry.format->to_string().c_str());
  for (const auto& spec : entry.transforms) {
    std::printf("  transform -> %s (%016llx)\n", spec.dst->name().c_str(),
                static_cast<unsigned long long>(spec.dst->fingerprint()));
  }
}

int serve(int argc, char** argv) {
  fmtsvc::ServiceOptions opts;
  const char* spill = nullptr;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      const char* arg = argv[++i];
      const auto port = transport::parse_port(arg);
      if (!port) {
        std::fprintf(stderr, "fmtsvc: bad port '%s'\n", arg);
        return 2;
      }
      opts.port = *port;
    } else if (std::strcmp(argv[i], "--spill") == 0 && i + 1 < argc) {
      spill = argv[++i];
    } else if (std::strcmp(argv[i], "--lint") == 0 && i + 1 < argc) {
      const char* mode = argv[++i];
      if (std::strcmp(mode, "off") == 0) opts.lint = core::LintPolicy::kOff;
      else if (std::strcmp(mode, "warn") == 0) opts.lint = core::LintPolicy::kWarn;
      else if (std::strcmp(mode, "enforce") == 0) opts.lint = core::LintPolicy::kEnforce;
      else {
        std::fprintf(stderr, "fmtsvc: unknown lint mode '%s'\n", mode);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--audit") == 0 && i + 1 < argc) {
      const char* mode = argv[++i];
      if (std::strcmp(mode, "off") == 0) opts.audit = analysis::AuditPolicy::kOff;
      else if (std::strcmp(mode, "warn") == 0) opts.audit = analysis::AuditPolicy::kWarn;
      else if (std::strcmp(mode, "enforce") == 0) opts.audit = analysis::AuditPolicy::kEnforce;
      else {
        std::fprintf(stderr, "fmtsvc: unknown audit mode '%s'\n", mode);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--live") == 0 && i + 1 < argc) {
      const char* hex = argv[++i];
      char* end = nullptr;
      uint64_t fp = std::strtoull(hex, &end, 16);
      if (end == hex || *end != '\0') {
        std::fprintf(stderr, "fmtsvc: bad --live fingerprint '%s' (want hex)\n", hex);
        return 2;
      }
      opts.live_readers.push_back(fp);
    } else {
      std::fprintf(stderr, "fmtsvc: unknown serve option '%s'\n", argv[i]);
      return 2;
    }
  }

  // SIGINT/SIGTERM are taken by sigwait below. They are blocked before any
  // server starts its loop thread, which inherits the mask, so neither
  // signal can land there and end the process without the summary.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  const auto stats = transport::StatsServer::from_env();
  if (stats) std::fprintf(stderr, "stats endpoint on 127.0.0.1:%u\n", stats->port());
  fmtsvc::FormatStore store;
  if (spill != nullptr) {
    size_t replayed = store.attach_spill(spill);
    std::printf("spill '%s': replayed %zu entr%s\n", spill, replayed,
                replayed == 1 ? "y" : "ies");
  }
  fmtsvc::FormatService service(store, opts);
  std::printf("fmtsvc serving on 127.0.0.1:%u (lint %s, audit %s, %zu live reader%s)\n",
              service.port(), core::lint_policy_name(opts.lint),
              analysis::audit_policy_name(opts.audit), opts.live_readers.size(),
              opts.live_readers.size() == 1 ? "" : "s");
  std::fflush(stdout);

  int sig = 0;
  sigwait(&stop_signals, &sig);

  fmtsvc::ServiceStats s = service.stats();
  std::printf("\nfmtsvc shutting down: %llu connections, %llu requests, "
              "%llu registered, %llu lint-rejected, %llu audit-rejected, "
              "%llu audit-warned, %llu not-found, %llu bad frames\n",
              static_cast<unsigned long long>(s.connections),
              static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.registered),
              static_cast<unsigned long long>(s.lint_rejected),
              static_cast<unsigned long long>(s.audit_rejected),
              static_cast<unsigned long long>(s.audit_warned),
              static_cast<unsigned long long>(s.not_found),
              static_cast<unsigned long long>(s.bad_frames));
  return 0;
}

int put(const char* endpoint) {
  const auto opts = client_options(endpoint);
  if (!opts) return 2;
  fmtsvc::FormatResolver client(*opts);
  auto v1 = echo::channel_open_response_v1_format();
  auto v2 = echo::channel_open_response_v2_format();
  int failures = 0;
  if (!client.publish(v1)) ++failures;
  if (!client.publish(v2, {echo::response_v2_to_v1_spec()})) ++failures;
  if (failures != 0) {
    std::fprintf(stderr, "fmtsvc: %d publish(es) failed\n", failures);
    return 1;
  }
  std::printf("published %s (%016llx) and %s (%016llx, 1 transform)\n",
              v1->name().c_str(), static_cast<unsigned long long>(v1->fingerprint()),
              v2->name().c_str(), static_cast<unsigned long long>(v2->fingerprint()));
  return 0;
}

int get(const char* endpoint, const char* fp_hex) {
  const auto opts = client_options(endpoint);
  if (!opts) return 2;
  char* end = nullptr;
  uint64_t fp = std::strtoull(fp_hex, &end, 16);
  if (end == fp_hex || *end != '\0') {
    std::fprintf(stderr, "fmtsvc: bad fingerprint '%s' (want hex)\n", fp_hex);
    return 2;
  }
  fmtsvc::FormatResolver client(*opts);
  auto resolved = client.resolve(fp);
  if (!resolved) {
    std::fprintf(stderr, "fmtsvc: fingerprint %016llx not found\n",
                 static_cast<unsigned long long>(fp));
    return 1;
  }
  dump_entry(fmtsvc::FormatEntry{resolved->format, resolved->transforms});
  return 0;
}

int dump(const char* endpoint) {
  const auto opts = client_options(endpoint);
  if (!opts) return 2;
  fmtsvc::FormatResolver client(*opts);
  try {
    auto entries = client.list();
    std::printf("%zu entr%s\n", entries.size(), entries.size() == 1 ? "y" : "ies");
    for (const auto& entry : entries) dump_entry(entry);
  } catch (const Error& e) {
    std::fprintf(stderr, "fmtsvc: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--serve") == 0) {
    try {
      return serve(argc, argv);
    } catch (const Error& e) {
      std::fprintf(stderr, "fmtsvc: %s\n", e.what());
      return 2;
    }
  }
  if (argc >= 3 && std::strcmp(argv[1], "--put") == 0) return put(argv[2]);
  if (argc >= 4 && std::strcmp(argv[1], "--get") == 0) return get(argv[2], argv[3]);
  if (argc >= 3 && std::strcmp(argv[1], "--dump") == 0) return dump(argv[2]);
  std::fprintf(stderr,
               "usage: fmtsvc (--serve [--port N] [--spill FILE] [--lint MODE]\n"
               "                       [--audit MODE] [--live FP_HEX]... |\n"
               "               --put HOST:PORT | --get HOST:PORT FP_HEX | --dump HOST:PORT)\n");
  return 2;
}
