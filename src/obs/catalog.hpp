// The metric catalog: every family the middleware exports, declared once
// with its kind, unit, label keys, owning subsystem and help text. The
// registration sites, the Prometheus exporter (`# TYPE`, `# HELP`),
// morph-stat and the table in docs/OBSERVABILITY.md (diff-checked by
// tests_obs) all read it.
//
// A family is named by its enumerator, which is its exported name, so a
// grep for a scraped name finds the declaration and every registration:
//
//   metrics().counter(Metric::morph_rx_messages_total)
//   metrics().histogram(Metric::morph_rx_decode_ns, {fmt_name})
//
// Label values stay at the call site; the keys come from the entry. No
// family is spelled as a string literal anywhere in src/ (a ctest source
// check enforces it).
//
// The conservation laws and morph-stat's derived figures are data over the
// catalog too: a law reads "Σ lhs <= Σ rhs" over catalog sums (<=, never
// ==, because a scrape can race an event between two of its counters), and
// a ratio divides two catalog sums.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace morph::obs {

struct MetricsSnapshot;

enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

/// One family. `labels` lists the label keys, comma-separated ("" when
/// unlabeled); `help` has no backslash or newline (it goes into `# HELP`
/// verbatim); `subsystem` is the owner, and the digest section it shows in.
struct MetricInfo {
  const char* name;
  Kind kind;
  const char* unit;
  const char* labels;
  const char* subsystem;
  const char* help;
};

/// X(family, kind, unit, label keys, subsystem, help), in docs-table order.
#define MORPH_METRICS(X)                                                                           \
  X(morph_pbio_encoded_messages_total, Counter, records, "", pbio, "records encoded")              \
  X(morph_pbio_encoded_bytes_total, Counter, bytes, "", pbio, "wire bytes produced")               \
  X(morph_pbio_zero_copy_decodes_total, Counter, records, "", pbio,                                \
    "in-place decodes (same layout + byte order)")                                                 \
  X(morph_pbio_convert_decodes_total, Counter, records, "", pbio, "conversion-plan decodes")       \
  X(morph_pbio_decoded_bytes_total, Counter, bytes, "", pbio,                                      \
    "wire bytes consumed (both decode paths)")                                                     \
  X(morph_rx_messages_total, Counter, messages, "", receiver, "messages entering any `Receiver`")  \
  X(morph_rx_outcome_total, Counter, messages, "outcome", receiver,                                \
    "outcome per message: exact/perfect/morphed/reconciled/morphed+reconciled/defaulted/rejected") \
  X(morph_rx_cache_events_total, Counter, events, "event", receiver,                               \
    "decision cache `hit`/`miss`/`flush`")                                                         \
  X(morph_rx_zero_copy_total, Counter, messages, "", receiver, "deliveries via the in-place path") \
  X(morph_rx_verify_rejected_total, Counter, formats, "", receiver,                                \
    "formats rejected by the static verifier")                                                     \
  X(morph_rx_transforms_compiled_total, Counter, transforms, "", receiver, "Ecode hops compiled")  \
  X(morph_rx_resolve_total, Counter, formats, "result", receiver,                                  \
    "out-of-band resolves: formats `fetched` vs attempts `degraded` to inline meta-data")          \
  X(morph_rx_fused_total, Counter, messages, "", receiver,                                         \
    "messages morphed by a fused (single-pass) chain")                                             \
  X(morph_rx_hopwise_total, Counter, messages, "", receiver,                                       \
    "messages morphed hop by hop (fusion off or bailed)")                                          \
  X(morph_rx_morph_inplace_total, Counter, messages, "", receiver,                                 \
    "morphs fed directly by an in-place decode (no conversion copy)")                              \
  X(morph_rx_morphs_total, Counter, morphs, "", receiver,                                          \
    "morph executions, chain and/or reconcile (an `rx.morph` span each when tracing)")             \
  X(morph_rx_chain_fusion_total, Counter, builds, "result", receiver,                              \
    "decision builds: chain `fused` vs `bailout` to hop-wise")                                     \
  X(morph_rx_chain_hops, Histogram, hops, "", receiver, "hop count of each compiled chain")        \
  X(morph_rx_decide_ns, Histogram, ns, "result", receiver,                                         \
    "decision lookup latency, `hit` vs `miss`")                                                    \
  X(morph_rx_decision_build_ns, Histogram, ns, "", receiver, "full cold-format pipeline build")    \
  X(morph_rx_match_ns, Histogram, ns, "", receiver, "each MaxMatch invocation inside a build")     \
  X(morph_rx_decode_ns, Histogram, ns, "fmt", receiver, "conversion-plan execute per wire format") \
  X(morph_rx_morph_ns, Histogram, ns, "fmt", receiver, "Ecode chain + reconcile per wire format")  \
  X(morph_ecode_compile_ns, Histogram, ns, "", ecode, "parse + analyze + bytecode compile")        \
  X(morph_ecode_verify_ns, Histogram, ns, "", ecode, "static verification (incl. fuel repair)")    \
  X(morph_ecode_jit_ns, Histogram, ns, "", ecode, "native code emission")                          \
  X(morph_ecode_dispatch_total, Counter, runs, "backend", ecode, "transform runs, `jit` vs `vm`")  \
  X(morph_ecode_native_code_bytes, Gauge, bytes, "", ecode, "cumulative JIT bytes emitted")        \
  X(morph_port_frames_sent_total, Counter, frames, "type", port,                                   \
    "frames out: `data`, `meta`, or `pbuf` (data frames protobuf-encoded)")                        \
  X(morph_port_frames_received_total, Counter, frames, "type", port,                               \
    "frames in: `data`, `meta`, or `pbuf` (`kPbufData` frames)")                                   \
  X(morph_port_bytes_sent_total, Counter, bytes, "", port,                                         \
    "framed data and meta bytes out (control frames count per port only)")                         \
  X(morph_port_meta_published_total, Counter, formats, "", port,                                   \
    "formats handed to the out-of-band meta-publisher")                                            \
  X(morph_port_bad_frames_total, Counter, frames, "", port,                                        \
    "malformed frames; the receiving port goes wire-dead after one")                               \
  X(morph_port_pbuf_rejects_total, Counter, frames, "", port,                                      \
    "pbuf frames dropped (bad payload or unknown format), contained per frame")                    \
  X(morph_fmtsvc_client_resolves_total, Counter, calls, "", fmtsvc,                                \
    "`FormatResolver::resolve` calls")                                                             \
  X(morph_fmtsvc_client_resolve_total, Counter, calls, "result", fmtsvc,                           \
    "resolve results: `cached`/`negative`/`fetched`/`failed`/`lint_rejected`/`stampede`")          \
  X(morph_fmtsvc_client_cache_evictions_total, Counter, formats, "reason", fmtsvc,                 \
    "resolver cache evictions, `ttl` vs `capacity`")                                               \
  X(morph_fmtsvc_client_rpcs_total, Counter, rpcs, "", fmtsvc, "RPC attempts, all ops")            \
  X(morph_fmtsvc_client_retries_total, Counter, rpcs, "", fmtsvc,                                  \
    "fetch attempts after the first")                                                              \
  X(morph_fmtsvc_client_published_total, Counter, formats, "", fmtsvc,                             \
    "formats registered via `publish()`")                                                          \
  X(morph_fmtsvc_client_fetch_ns, Histogram, ns, "", fmtsvc,                                       \
    "one FETCH round trip (success path)")                                                         \
  X(morph_fmtsvc_requests_total, Counter, requests, "op", fmtsvc, "service requests by op")        \
  X(morph_fmtsvc_server_not_found_total, Counter, requests, "", fmtsvc,                            \
    "FETCH fingerprints the store lacked")                                                         \
  X(morph_fmtsvc_server_lint_rejected_total, Counter, formats, "", fmtsvc,                         \
    "REGISTER entries refused by the linter under enforce")                                        \
  X(morph_fmtsvc_server_audit_rejected_total, Counter, formats, "", fmtsvc,                        \
    "REGISTER entries refused by the evolution audit under enforce")                               \
  X(morph_fmtsvc_server_audit_warned_total, Counter, formats, "", fmtsvc,                          \
    "REGISTER entries with breaking audits accepted under warn")                                   \
  X(morph_fmtsvc_server_bad_frames_total, Counter, connections, "", fmtsvc,                        \
    "service connections killed by malformed input")                                               \
  X(morph_fmtsvc_store_formats, Gauge, formats, "", fmtsvc, "formats in the service store")        \
  X(morph_fmtsvc_server_connections, Gauge, connections, "", fmtsvc, "live service connections")   \
  X(morph_echo_events_published_total, Counter, events, "", echo, "`EchoProcess::publish` calls")  \
  X(morph_echo_events_total, Counter, events, "", echo, "events received at sinks")                \
  X(morph_echo_events_morphed_total, Counter, events, "", echo,                                    \
    "events morphed sink-side on delivery")                                                        \
  X(morph_echo_open_requests_total, Counter, requests, "", echo, "channel-open requests handled")  \
  X(morph_echo_responses_total, Counter, responses, "", echo, "channel-open responses delivered")  \
  X(morph_echo_responses_morphed_total, Counter, responses, "", echo,                              \
    "responses morphed across protocol revisions")                                                 \
  X(echo_fanout_events_total, Counter, events, "", fanout,                                         \
    "publishes that reached at least one grouped sink (docs/ECHO.md)")                             \
  X(echo_fanout_groups_total, Counter, groups, "", fanout, "reachable format groups delivered to") \
  X(echo_fanout_morphs_total, Counter, morphs, "", fanout,                                         \
    "per-group morph-chain executions; identity groups run none")                                  \
  X(echo_fanout_morph_reuses_total, Counter, groups, "", fanout,                                   \
    "groups that reused the previous group's morph (same format, other encoding)")                 \
  X(echo_fanout_encodes_total, Counter, frames, "", fanout,                                        \
    "shared frames built, one per reachable group")                                                \
  X(echo_fanout_pbuf_encodes_total, Counter, frames, "", fanout,                                   \
    "shared frames built protobuf-encoded")                                                        \
  X(echo_fanout_deliveries_total, Counter, deliveries, "", fanout,                                 \
    "`send_shared` handoffs (sum of group sizes)")                                                 \
  X(echo_fanout_fallback_total, Counter, sinks, "", fanout,                                        \
    "sinks punted to the per-sink fallback")                                                       \
  X(echo_fanout_event_morphs, Gauge, morphs, "", fanout,                                           \
    "morphs of the most recent grouped event")                                                     \
  X(echo_fanout_event_groups, Gauge, groups, "", fanout,                                           \
    "groups of the most recent grouped event")                                                     \
  X(echo_fanout_group_sinks, Histogram, sinks, "", fanout, "group size at delivery")               \
  X(echo_fanout_groups, Gauge, groups, "", fanout, "registry groups at the last snapshot rebuild") \
  X(echo_fanout_subscribers, Gauge, sinks, "", fanout,                                             \
    "registry subscribers at the last snapshot rebuild")                                           \
  X(morph_fanout_plans_total, Counter, plans, "result", planner,                                   \
    "fan-out plan cache: `hit`/`built`/`unreachable`")                                             \
  X(morph_fanout_chain_fusion_total, Counter, builds, "result", planner,                           \
    "plan builds: chain `fused` vs `bailout`")                                                     \
  X(morph_fanout_verify_rejected_total, Counter, plans, "", planner,                               \
    "fan-out chains refused by the static verifier")                                               \
  X(morph_fanout_cache_flushes_total, Counter, flushes, "", planner,                               \
    "plan-cache flushes (learn_transform or overflow)")                                            \
  X(morph_pbuf_frames_in_total, Counter, frames, "", pbuf,                                         \
    "protobuf payloads handed to the bridge's decoder")                                            \
  X(morph_pbuf_decoded_total, Counter, frames, "", pbuf,                                           \
    "protobuf payloads decoded to native records")                                                 \
  X(morph_pbuf_rejected_total, Counter, frames, "", pbuf,                                          \
    "protobuf payloads rejected, on any failure path")                                             \
  X(morph_pbuf_unknown_fields_total, Counter, fields, "", pbuf,                                    \
    "unknown protobuf fields skipped while decoding")                                              \
  X(morph_pbuf_encoded_total, Counter, records, "", pbuf, "records encoded to protobuf wire")      \
  X(morph_pbuf_decode_bytes, Histogram, bytes, "", pbuf, "protobuf payload size per decode")       \
  X(morph_pbuf_encode_bytes, Histogram, bytes, "", pbuf, "protobuf payload size per encode")       \
  X(morph_reactor_connections, Gauge, connections, "", reactor,                                    \
    "connections owned by reactor loops in this process")                                          \
  X(morph_reactor_outbox_bytes, Gauge, bytes, "", reactor,                                         \
    "bytes queued across every reactor connection's bounded outbox")                               \
  X(morph_reactor_loop_ns, Histogram, ns, "", reactor,                                             \
    "one event-loop iteration that did work (I/O batch + tasks + timers)")                         \
  X(morph_reactor_dispatch_ns, Histogram, ns, "", reactor,                                         \
    "one receive-batch handoff to the application callback")                                       \
  X(morph_reactor_accepted_total, Counter, connections, "", reactor,                               \
    "connections adopted by a loop")                                                               \
  X(morph_reactor_closed_total, Counter, connections, "", reactor,                                 \
    "connections closed, any reason")                                                              \
  X(morph_reactor_refused_total, Counter, connections, "", reactor,                                \
    "accepts refused at a `ReactorServer`'s `max_connections` ceiling")                            \
  X(morph_reactor_idle_timeouts_total, Counter, connections, "", reactor,                          \
    "connections reaped by the idle timer wheel")                                                  \
  X(morph_reactor_backpressure_closes_total, Counter, connections, "", reactor,                    \
    "connections killed for overflowing their outbox bound")                                       \
  X(morph_reactor_send_drops_total, Counter, sends, "", reactor,                                   \
    "sends counted-and-dropped (overflow or already closed)")                                      \
  X(morph_reactor_wakeups_total, Counter, wakeups, "", reactor,                                    \
    "eventfd wakeups (cross-thread sends and posted tasks)")                                       \
  X(morph_reactor_bad_callbacks_total, Counter, callbacks, "", reactor,                            \
    "application callbacks that threw (connection closed, process survives)")                      \
  X(morph_reactor_sendmsg_total, Counter, syscalls, "", reactor,                                   \
    "`sendmsg` calls by reactor loops, EAGAIN/error returns included")                             \
  X(morph_reactor_readv_total, Counter, syscalls, "", reactor,                                     \
    "`readv` calls by reactor loops, the final EAGAIN/EOF read included")                          \
  X(morph_reactor_epoll_waits_total, Counter, syscalls, "", reactor,                               \
    "`epoll_wait` calls, one per loop iteration")                                                  \
  X(morph_span_ns, Histogram, ns, "span", obs,                                                     \
    "span timers: `port.send`, `port.deliver`, `fmtsvc.handle`, `fanout.plan_build`")              \
  X(morph_obs_spans_dropped_total, Counter, spans, "", obs,                                        \
    "spans evicted from the bounded span ring (capture outpaced drain)")                           \
  X(morph_flight_events_total, Counter, events, "kind", obs,                                       \
    "flight-recorder events: `reject`/`resolver_retry`/`fanout_fallback`/`slow_morph`")            \
  X(morph_telemetry_export_batches_total, Counter, batches, "", telemetry,                         \
    "span batches shipped by this process's `SpanExporter`")                                       \
  X(morph_telemetry_export_spans_total, Counter, spans, "", telemetry,                             \
    "spans shipped (== `exported_total` on the wire)")                                             \
  X(morph_telemetry_export_dropped_total, Counter, spans, "", telemetry,                           \
    "spans dropped from the exporter's pending buffer (collector unreachable)")                    \
  X(morph_telemetry_export_send_failures_total, Counter, batches, "", telemetry,                   \
    "failed batch sends (retried with a fresh connection next tick)")                              \
  X(morph_telemetry_batches_total, Counter, batches, "", telemetry,                                \
    "span batches a collector ingested")                                                           \
  X(morph_telemetry_spans_total, Counter, spans, "", telemetry, "spans a collector ingested")      \
  X(morph_telemetry_dumps_total, Counter, dumps, "", telemetry, "stitched-state dumps served")     \
  X(morph_telemetry_bad_frames_total, Counter, connections, "", telemetry,                         \
    "collector connections killed by malformed input")                                             \
  X(morph_telemetry_connections, Gauge, connections, "", telemetry, "live collector connections")  \
  X(bench_ms, Gauge, ms, "bench,row,col", bench, "every paper-table cell a bench printed")         \
  X(bench_wire_bytes, Gauge, bytes, "bench,row,col", bench,                                        \
    "encoded size of each payload a bench measured")

/// A metric family: its enumerator is its exported name.
enum class Metric : uint16_t {
#define MORPH_METRIC_ID_(name, ...) name,
  MORPH_METRICS(MORPH_METRIC_ID_)
#undef MORPH_METRIC_ID_
};

inline constexpr MetricInfo kCatalog[] = {
#define MORPH_METRIC_INFO_(name, kind, unit, labels, subsystem, help) \
  {#name, Kind::k##kind, #unit, labels, #subsystem, help},
    MORPH_METRICS(MORPH_METRIC_INFO_)
#undef MORPH_METRIC_INFO_
};

constexpr const MetricInfo& info(Metric m) { return kCatalog[static_cast<size_t>(m)]; }
/// The entry of family name `family` (not a series name), or nullptr.
const MetricInfo* find_family(std::string_view family);
const char* kind_name(Kind kind);

/// The registry name of one series: the family name, plus
/// `{key="value",...}` pairing the entry's label keys with `label_values`
/// in order (raw; the exporters escape at render time).
std::string series(Metric family, std::initializer_list<std::string_view> label_values = {});

/// One catalog sum over a snapshot: every series of a counter family, or
/// only the one labeled `label`; a histogram family's sample count, or
/// with `hist_sum` its sample sum.
struct Term {
  Metric family;
  const char* label = nullptr;
  bool hist_sum = false;
};
uint64_t total(const MetricsSnapshot& s, const std::vector<Term>& terms);

/// A conservation law, Σ lhs <= Σ rhs, skipped when the snapshot holds no
/// series of `guard` (a process without that subsystem).
struct Law {
  const char* name;
  std::vector<Term> lhs;
  std::vector<Term> rhs;
  std::optional<Metric> guard = std::nullopt;
};
const std::vector<Law>& laws();

struct LawReading {
  const Law* law;
  uint64_t lhs;
  uint64_t rhs;
  bool holds() const { return lhs <= rhs; }
  /// "law NAME: <lhs terms> = N exceeds <rhs terms> = M" (or "<=").
  std::string describe() const;
};
/// Every law whose guard the snapshot holds, evaluated on it: the one
/// evaluator behind morph-stat --check, its digests and the tests.
std::vector<LawReading> evaluate_laws(const MetricsSnapshot& s);

/// A derived figure, scale * Σ num / Σ den, shown in the digest section of
/// den's first family.
struct Ratio {
  const char* name;
  std::vector<Term> num;
  std::vector<Term> den;
  double scale = 1.0;
};
const std::vector<Ratio>& ratios();
/// The ratio's value, or nothing when its denominator is zero.
std::optional<double> ratio_value(const Ratio& r, const MetricsSnapshot& s);

}  // namespace morph::obs
