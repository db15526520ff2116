// Deterministic merge of per-shard observability state (DESIGN.md §11).
//
// The sharded runtime gives every shard its own domain MetricsRegistry
// and TimeSeriesSampler so workers never share a metrics pointer. At the
// end of a run the coordinator folds them into one registry / one series
// document that must be byte-identical to what a 1-shard run produces.
// The merge relies on a naming contract rather than cleverness:
//
//   - counters add exactly (uint64 addition is associative);
//   - gauges combine with set_max (the repo's shared-gauge idiom) — a
//     gauge whose 1-shard meaning is not "max observed" must be given a
//     shard-unique (e.g. per-AP) name;
//   - histograms merge bucket-wise via Histogram::merge_from. The double
//     `sum` makes cross-shard addition order-dependent, so a histogram
//     name must live in exactly ONE shard's registry (per-AP prefixes
//     guarantee this) for bit-exact output.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/series.h"
#include "obs/slo.h"

namespace dlte::obs {

// Fold every instrument of `src` into `dst` under `prefix + name`.
void merge_registry(MetricsRegistry& dst, const MetricsRegistry& src,
                    const std::string& prefix = "");

// The dlte-series-v1 document (DESIGN.md §10) — its one renderer, for
// a single-sim sampler and for the union of every shard's samplers
// alike:
//
//   {
//     "schema": dlte-series-v1,
//     "source": "<bench/example name>",
//     "interval_s": 0.5,
//     "samples": 180,
//     "series": {
//       "<name>": {"kind": "counter", "dropped": 0,
//                  "points": [[t_s, value], ...]}, ...
//     },
//     "rules": ["<rule description>", ...],
//     "alerts": [{"t_s":..., "event":"fire"|"resolve", "rule":...,
//                 "scope":..., "metric":..., "value":...,
//                 "threshold":...}, ...],
//     "health": {"<scope>": <final score>, ...}
//   }
//
// Series are the union over `samplers`, sorted by name; the first
// sampler wins on a duplicate name (scenarios keep shard series disjoint
// via per-AP prefixes, so in practice there are none). Each series'
// points are rebuilt from its sampler's columns as it is written, so
// export holds one series' points at a time. Everything
// derives from simulated time, sorted maps and JsonWriter doubles, so
// same-seed runs render byte-identical text — tools/health_report.py
// validates it and CI byte-compares double runs and 1-vs-N-shard runs.
//
// `monitor` (optional; null renders the rules/alerts/health sections
// empty) embeds an SloMonitor's rule set, alert timeline and final
// health scores. A sharded scenario pins its monitor to one shard's
// registry so its alert timeline is partition-invariant.
[[nodiscard]] std::string merged_series_json(
    const std::vector<const TimeSeriesSampler*>& samplers,
    const std::string& source, const SloMonitor* monitor = nullptr);

}  // namespace dlte::obs
