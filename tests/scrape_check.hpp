// Checks that a subsystem's per-instance stats and the registry scrape
// read one store: every named field of a stats struct (declared with
// MORPH_STATS) equals the scrape delta of the counter it exports as, and
// the scrape satisfies the catalog's conservation laws.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.hpp"

namespace morph::scrape {

using Counters = std::map<std::string, uint64_t>;

/// Every counter the global registry holds, by name.
inline Counters counters() {
  Counters out;
  for (const auto& [name, v] : obs::metrics().snapshot().counters) out[name] = v;
  return out;
}

inline uint64_t at(const Counters& c, const char* name) {
  auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

/// Each named field of `stats` equals `after - before` for its counter.
template <class Stats>
void expect_stats_match(const Stats& stats, const Counters& before, const Counters& after) {
  for (const auto& f : Stats::fields()) {
    if (!f.family) continue;
    const std::string name = f.series();
    EXPECT_EQ(after.count(name), 1u) << name << " is not registered";
    EXPECT_EQ(at(after, name.c_str()) - at(before, name.c_str()), stats.*f.field) << name;
  }
}

/// Every conservation law of the metric catalog holds on `c`.
inline void expect_laws_hold(const Counters& c) {
  obs::MetricsSnapshot s;
  s.counters.assign(c.begin(), c.end());
  for (const auto& r : obs::evaluate_laws(s)) EXPECT_TRUE(r.holds()) << r.describe();
}

/// Each of `stats` equals its scrape delta from `before` both in `live`,
/// taken while its instances were alive, and now that they are destroyed;
/// both scrapes satisfy every law.
template <class... Stats>
void expect_one_store(const Counters& before, const Counters& live, const Stats&... stats) {
  const Counters gone = counters();
  for (const Counters* after : {&live, &gone}) {
    (expect_stats_match(stats, before, *after), ...);
    expect_laws_hold(*after);
  }
}

/// Counter::value() agrees with snapshot() for every counter. Call it only
/// while nothing records.
inline void expect_value_matches_snapshot() {
  for (const auto& [name, v] : obs::metrics().snapshot().counters) {
    EXPECT_EQ(obs::metrics().counter(name).value(), v) << name;
  }
}

}  // namespace morph::scrape
