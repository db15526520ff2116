// OpenMetrics / Prometheus text exposition of a MetricsRegistry
// (DESIGN.md §10).
//
// The standard scrape format, rendered deterministically: families in
// sorted name order (counters, then gauges, then histograms), metric
// names sanitized to [a-zA-Z0-9_:] (dots become underscores), doubles
// through JsonWriter's shortest-round-trip formatting, terminated by
// "# EOF". Two same-seed runs emit byte-identical text — CI cmp's it.
//
// Histograms are exposed as OpenMetrics summaries (quantile labels from
// the log-linear sketch) plus _sum/_count, with the observed extrema as
// companion _min/_max gauges. Dotted metric names are assumed not to
// collide after sanitization (the repo's naming convention — dots as
// the only separator — guarantees it).
#pragma once

#include <string>

#include "obs/metrics.h"
#include "obs/snapshot.h"

namespace dlte::obs {

class OpenMetricsExporter {
 public:
  [[nodiscard]] static std::string render(const MetricsSnapshot& snapshot);
  [[nodiscard]] static std::string render(const MetricsRegistry& registry) {
    return render(MetricsSnapshot{registry});
  }

  // "c8.dlte.epc.attach_latency_ms" -> "c8_dlte_epc_attach_latency_ms".
  [[nodiscard]] static std::string sanitize(const std::string& name);
};

}  // namespace dlte::obs
