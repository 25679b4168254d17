#include "obs/catalog.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace morph::obs {

namespace {

using M = Metric;

bool in_family(const std::string& series, const MetricInfo& f) {
  return series.compare(0, series.find('{'), f.name) == 0;
}

std::string describe(const std::vector<Term>& terms) {
  std::string out;
  for (const Term& t : terms) {
    if (!out.empty()) out += " + ";
    out += t.label != nullptr ? series(t.family, {t.label}) : info(t.family).name;
    if (t.hist_sum) out += ".sum";
  }
  return out;
}

}  // namespace

const MetricInfo* find_family(std::string_view family) {
  for (const MetricInfo& m : kCatalog) {
    if (family == m.name) return &m;
  }
  return nullptr;
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCounter: return "counter";
    case Kind::kGauge: return "gauge";
    case Kind::kHistogram: return "histogram";
  }
  return "untyped";
}

std::string series(Metric family, std::initializer_list<std::string_view> label_values) {
  std::string out = info(family).name;
  std::string_view keys = info(family).labels;
  for (std::string_view value : label_values) {
    const size_t comma = std::min(keys.find(','), keys.size());
    out += out.back() == '"' ? ',' : '{';
    out.append(keys.substr(0, comma)).append("=\"").append(value) += '"';
    keys.remove_prefix(std::min(comma + 1, keys.size()));
  }
  if (label_values.size() > 0) out += '}';
  return out;
}

uint64_t total(const MetricsSnapshot& s, const std::vector<Term>& terms) {
  uint64_t sum = 0;
  for (const Term& t : terms) {
    const std::string one = t.label != nullptr ? series(t.family, {t.label}) : "";
    auto mine = [&](const std::string& name) {
      return t.label != nullptr ? name == one : in_family(name, info(t.family));
    };
    for (const auto& [name, v] : s.counters) sum += mine(name) ? v : 0;
    for (const auto& [name, h] : s.histograms) {
      if (mine(name)) sum += t.hist_sum ? h.sum : h.count;
    }
  }
  return sum;
}

const std::vector<Law>& laws() {
  static const std::vector<Law> kLaws = {
      // Every counted message reaches at most one outcome.
      {"rx.outcomes", {{M::morph_rx_outcome_total}}, {{M::morph_rx_messages_total}}},
      // A chain apply bumps fused or hop-wise before the outcome counter;
      // an in-place morph is one such execution.
      {"rx.morphed_executions",
       {{M::morph_rx_outcome_total, "morphed"}, {M::morph_rx_outcome_total, "morphed+reconciled"}},
       {{M::morph_rx_fused_total}, {M::morph_rx_hopwise_total}},
       M::morph_rx_fused_total},
      {"rx.inplace_executions", {{M::morph_rx_morph_inplace_total}},
       {{M::morph_rx_fused_total}, {M::morph_rx_hopwise_total}}, M::morph_rx_fused_total},
      {"echo.responses_morphed", {{M::morph_echo_responses_morphed_total}},
       {{M::morph_echo_responses_total}}},
      {"echo.events_morphed", {{M::morph_echo_events_morphed_total}},
       {{M::morph_echo_events_total}}},
      // Grouped fan-out morphs at most once per encode (identity groups
      // skip it) and encodes at most once per delivery; an event counts
      // only when it delivered somewhere.
      {"fanout.morphs_encodes", {{M::echo_fanout_morphs_total}}, {{M::echo_fanout_encodes_total}},
       M::echo_fanout_events_total},
      {"fanout.encodes_deliveries", {{M::echo_fanout_encodes_total}},
       {{M::echo_fanout_deliveries_total}}, M::echo_fanout_events_total},
      {"fanout.events_deliveries", {{M::echo_fanout_events_total}},
       {{M::echo_fanout_deliveries_total}}, M::echo_fanout_events_total},
      // A frame entering the bridge (counted first) decodes or rejects, one
      // of the two; a port reject is a received pbuf frame; a pbuf group
      // encode is an encode.
      {"pbuf.decode_outcomes", {{M::morph_pbuf_decoded_total}, {M::morph_pbuf_rejected_total}},
       {{M::morph_pbuf_frames_in_total}}, M::morph_pbuf_frames_in_total},
      {"pbuf.port_rejects", {{M::morph_port_pbuf_rejects_total}},
       {{M::morph_port_frames_received_total, "pbuf"}}, M::morph_pbuf_frames_in_total},
      {"pbuf.fanout_encodes", {{M::echo_fanout_pbuf_encodes_total}},
       {{M::echo_fanout_encodes_total}}, M::morph_pbuf_frames_in_total},
      // Every plan build counts as built, a failed one also as unreachable;
      // a verifier rejection is one way to be unreachable.
      {"planner.unreachable", {{M::morph_fanout_plans_total, "unreachable"}},
       {{M::morph_fanout_plans_total, "built"}}},
      {"planner.verify_rejected", {{M::morph_fanout_verify_rejected_total}},
       {{M::morph_fanout_plans_total, "unreachable"}}},
      // Every resolve() lands in exactly one result bucket.
      {"fmtsvc.resolve_results", {{M::morph_fmtsvc_client_resolve_total}},
       {{M::morph_fmtsvc_client_resolves_total}}},
  };
  return kLaws;
}

std::string LawReading::describe() const {
  return std::string("law ") + law->name + ": " + obs::describe(law->lhs) + " = " +
         std::to_string(lhs) + (holds() ? " <= " : " exceeds ") + obs::describe(law->rhs) +
         " = " + std::to_string(rhs);
}

std::vector<LawReading> evaluate_laws(const MetricsSnapshot& s) {
  std::vector<LawReading> out;
  for (const Law& law : laws()) {
    auto guarded = [&](const auto& kv) { return in_family(kv.first, info(*law.guard)); };
    if (law.guard && std::none_of(s.counters.begin(), s.counters.end(), guarded) &&
        std::none_of(s.histograms.begin(), s.histograms.end(), guarded)) {
      continue;
    }
    out.push_back({&law, total(s, law.lhs), total(s, law.rhs)});
  }
  return out;
}

const std::vector<Ratio>& ratios() {
  static const std::vector<Ratio> kRatios = {
      {"resolver cache %",
       {{M::morph_fmtsvc_client_resolve_total, "cached"},
        {M::morph_fmtsvc_client_resolve_total, "negative"}},
       {{M::morph_fmtsvc_client_resolves_total}}, 100.0},
      {"fused %", {{M::morph_rx_fused_total}},
       {{M::morph_rx_fused_total}, {M::morph_rx_hopwise_total}}, 100.0},
      {"mean chain hops", {{M::morph_rx_chain_hops, nullptr, true}}, {{M::morph_rx_chain_hops}}},
      {"sinks per event", {{M::echo_fanout_deliveries_total}}, {{M::echo_fanout_events_total}}},
      {"morphs per event", {{M::echo_fanout_morphs_total}}, {{M::echo_fanout_events_total}}},
      {"syscalls per loop iteration",
       {{M::morph_reactor_sendmsg_total}, {M::morph_reactor_readv_total},
        {M::morph_reactor_epoll_waits_total}},
       {{M::morph_reactor_loop_ns}}},
  };
  return kRatios;
}

std::optional<double> ratio_value(const Ratio& r, const MetricsSnapshot& s) {
  const uint64_t den = total(s, r.den);
  if (den == 0) return std::nullopt;
  return r.scale * static_cast<double>(total(s, r.num)) / static_cast<double>(den);
}

}  // namespace morph::obs
