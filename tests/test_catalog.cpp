// The metric catalog (obs/catalog.hpp): the docs table is generated from
// it, the exporter types and documents every family from it, and each
// conservation law of its law table is caught when violated.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/catalog.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace morph::obs {
namespace {

/// The catalog rendered as the docs/OBSERVABILITY.md metric table.
std::string docs_table() {
  std::string out = "| name | kind | unit | labels | meaning |\n|---|---|---|---|---|\n";
  for (const MetricInfo& m : kCatalog) {
    std::string labels;
    for (std::string_view keys = m.labels; !keys.empty();) {
      const size_t comma = std::min(keys.find(','), keys.size());
      labels += (labels.empty() ? "`" : ",`") + std::string(keys.substr(0, comma)) + "`";
      keys.remove_prefix(std::min(comma + 1, keys.size()));
    }
    out += "| `" + std::string(m.name) + "` | " + kind_name(m.kind) + " | " + m.unit + " | " +
           labels + " | " + m.help + " |\n";
  }
  return out;
}

TEST(Catalog, DocsTableIsGeneratedFromTheCatalog) {
  std::ifstream in(std::string(MORPH_DOCS_DIR) + "/OBSERVABILITY.md");
  ASSERT_TRUE(in.good());
  std::string table;
  bool inside = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("| name | kind | unit |", 0) == 0) inside = true;
    if (!inside) continue;
    if (line.empty() || line[0] != '|') break;
    table += line + "\n";
  }
  EXPECT_EQ(table, docs_table()) << "docs/OBSERVABILITY.md's metric table is stale; expected:\n"
                                 << docs_table();
}

TEST(Catalog, NamesAreUniqueAndHelpIsExportable) {
  std::set<std::string> names;
  for (const MetricInfo& m : kCatalog) {
    EXPECT_TRUE(names.insert(m.name).second) << m.name;
    EXPECT_EQ(find_family(m.name), &m);
    EXPECT_FALSE(std::string(m.help).empty()) << m.name;
    EXPECT_EQ(std::string(m.help).find_first_of("\\\n"), std::string::npos) << m.name;
  }
  EXPECT_EQ(find_family("morph_rx_outcome_total{outcome=\"exact\"}"), nullptr);
}

TEST(Catalog, SeriesPairsLabelKeysWithValuesInOrder) {
  EXPECT_EQ(series(Metric::morph_rx_messages_total), "morph_rx_messages_total");
  EXPECT_EQ(series(Metric::morph_rx_outcome_total, {"morphed+reconciled"}),
            "morph_rx_outcome_total{outcome=\"morphed+reconciled\"}");
  EXPECT_EQ(series(Metric::bench_ms, {"b", "r", "c"}), "bench_ms{bench=\"b\",row=\"r\",col=\"c\"}");
  MetricsRegistry reg;
  EXPECT_EQ(&reg.counter(Metric::morph_rx_decode_ns, {"X"}),
            &reg.counter("morph_rx_decode_ns{fmt=\"X\"}"));
}

/// Number of lines of `text` that start with `prefix`.
size_t lines_starting(const std::string& text, const std::string& prefix) {
  std::istringstream in(text);
  size_t n = 0;
  for (std::string line; std::getline(in, line);) n += line.rfind(prefix, 0) == 0 ? 1 : 0;
  return n;
}

TEST(Catalog, PrometheusTypesAndDocumentsEachFamilyOnce) {
  MetricsRegistry reg;
  reg.counter(Metric::morph_rx_outcome_total, {"exact"}).add(2);
  reg.counter(Metric::morph_rx_outcome_total, {"morphed"}).add(1);
  reg.gauge(Metric::morph_reactor_connections).set(3);
  reg.histogram(Metric::morph_rx_decode_ns, {"A"}).record(5);
  reg.histogram(Metric::morph_rx_decode_ns, {"B"}).record(7);
  // An uncatalogued family whose series sort apart ("x", "x_y", "x{...}")
  // still gets one header, typed by its snapshot section.
  reg.counter("x").inc();
  reg.counter("x_y").inc();
  reg.counter("x{k=\"v\"}").inc();
  const std::string text = to_prometheus(reg.snapshot());

  for (Metric m : {Metric::morph_rx_outcome_total, Metric::morph_reactor_connections,
                   Metric::morph_rx_decode_ns}) {
    const std::string name = info(m).name;
    EXPECT_EQ(lines_starting(text, "# TYPE " + name + " "), 1u) << text;
    EXPECT_EQ(lines_starting(text, "# TYPE " + name + " " + kind_name(info(m).kind)), 1u);
    EXPECT_EQ(lines_starting(text, "# HELP " + name + " " + info(m).help), 1u) << text;
  }
  EXPECT_EQ(lines_starting(text, "# TYPE x counter"), 1u) << text;
  EXPECT_EQ(lines_starting(text, "# HELP x "), 0u) << text;
  EXPECT_NE(text.find("morph_rx_decode_ns_bucket{fmt=\"B\",le=\"7\"} 1\n"), std::string::npos);
}

// -------------------------------------------------------------------- laws

/// A snapshot holding exactly `counters`.
MetricsSnapshot with(std::vector<std::pair<std::string, uint64_t>> counters) {
  MetricsSnapshot s;
  s.counters = std::move(counters);
  return s;
}

/// One planted violation per law row, written out independently of the
/// table so that deleting a row fails its case.
struct Planted {
  const char* law;
  std::vector<std::pair<std::string, uint64_t>> counters;
};

const std::vector<Planted>& planted() {
  static const std::vector<Planted> kPlanted = {
      {"rx.outcomes",
       {{"morph_rx_messages_total", 1}, {"morph_rx_outcome_total{outcome=\"exact\"}", 2}}},
      {"rx.morphed_executions",
       {{"morph_rx_messages_total", 9},
        {"morph_rx_fused_total", 1},
        {"morph_rx_outcome_total{outcome=\"morphed+reconciled\"}", 2}}},
      {"rx.inplace_executions", {{"morph_rx_fused_total", 1}, {"morph_rx_morph_inplace_total", 2}}},
      {"echo.responses_morphed",
       {{"morph_echo_responses_total", 1}, {"morph_echo_responses_morphed_total", 2}}},
      {"echo.events_morphed",
       {{"morph_echo_events_total", 1}, {"morph_echo_events_morphed_total", 2}}},
      {"fanout.morphs_encodes",
       {{"echo_fanout_events_total", 1},
        {"echo_fanout_deliveries_total", 9},
        {"echo_fanout_encodes_total", 1},
        {"echo_fanout_morphs_total", 2}}},
      {"fanout.encodes_deliveries",
       {{"echo_fanout_events_total", 1},
        {"echo_fanout_encodes_total", 3},
        {"echo_fanout_deliveries_total", 2}}},
      {"fanout.events_deliveries",
       {{"echo_fanout_events_total", 3}, {"echo_fanout_deliveries_total", 2}}},
      {"pbuf.decode_outcomes",
       {{"morph_pbuf_frames_in_total", 2},
        {"morph_pbuf_decoded_total", 2},
        {"morph_pbuf_rejected_total", 1}}},
      {"pbuf.port_rejects",
       {{"morph_pbuf_frames_in_total", 0},
        {"morph_port_frames_received_total{type=\"pbuf\"}", 1},
        {"morph_port_pbuf_rejects_total", 2}}},
      {"pbuf.fanout_encodes",
       {{"morph_pbuf_frames_in_total", 0},
        {"echo_fanout_encodes_total", 1},
        {"echo_fanout_pbuf_encodes_total", 2}}},
      {"planner.unreachable",
       {{"morph_fanout_plans_total{result=\"built\"}", 1},
        {"morph_fanout_plans_total{result=\"unreachable\"}", 2}}},
      {"planner.verify_rejected",
       {{"morph_fanout_plans_total{result=\"built\"}", 3},
        {"morph_fanout_plans_total{result=\"unreachable\"}", 1},
        {"morph_fanout_verify_rejected_total", 2}}},
      {"fmtsvc.resolve_results",
       {{"morph_fmtsvc_client_resolves_total", 1},
        {"morph_fmtsvc_client_resolve_total{result=\"cached\"}", 1},
        {"morph_fmtsvc_client_resolve_total{result=\"negative\"}", 1}}},
  };
  return kPlanted;
}

TEST(Laws, EachRowCatchesItsPlantedViolation) {
  EXPECT_EQ(laws().size(), planted().size()) << "a law row without a planted case";
  for (const Planted& p : planted()) {
    std::vector<std::string> violated;
    for (const LawReading& r : evaluate_laws(with(p.counters))) {
      if (!r.holds()) violated.push_back(r.law->name);
    }
    EXPECT_NE(std::find(violated.begin(), violated.end(), p.law), violated.end())
        << "no violation of " << p.law << " reported";
  }
}

TEST(Laws, ViolationNamesTheRowAndItsSums) {
  const auto readings = evaluate_laws(with(planted().front().counters));
  const auto it = std::find_if(readings.begin(), readings.end(),
                               [](const LawReading& r) { return !r.holds(); });
  ASSERT_NE(it, readings.end());
  EXPECT_EQ(it->describe(),
            "law rx.outcomes: morph_rx_outcome_total = 2 exceeds morph_rx_messages_total = 1");
}

TEST(Laws, GuardedRowsSkipWhenTheirSubsystemIsAbsent) {
  // Fan-out figures that would violate, but no fan-out events family: the
  // process never published through the grouped engine.
  const auto readings =
      evaluate_laws(with({{"echo_fanout_morphs_total", 2}, {"echo_fanout_encodes_total", 1}}));
  for (const LawReading& r : readings) EXPECT_TRUE(r.holds()) << r.describe();
  EXPECT_TRUE(std::none_of(readings.begin(), readings.end(), [](const LawReading& r) {
    return std::string(r.law->name) == "fanout.morphs_encodes";
  }));
}

TEST(Laws, HoldOnAnEmptySnapshotAndRatiosNeedADenominator) {
  for (const LawReading& r : evaluate_laws(MetricsSnapshot{})) EXPECT_TRUE(r.holds());
  for (const Ratio& r : ratios()) EXPECT_FALSE(ratio_value(r, MetricsSnapshot{})) << r.name;
  MetricsRegistry reg;
  reg.histogram(Metric::morph_rx_chain_hops).record(2);
  reg.histogram(Metric::morph_rx_chain_hops).record(4);
  const auto hops = std::find_if(ratios().begin(), ratios().end(), [](const Ratio& r) {
    return std::string(r.name) == "mean chain hops";
  });
  ASSERT_NE(hops, ratios().end());
  EXPECT_EQ(ratio_value(*hops, reg.snapshot()), 3.0);
}

}  // namespace
}  // namespace morph::obs
