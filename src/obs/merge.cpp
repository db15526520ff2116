#include "obs/merge.h"

#include <map>

#include "obs/json.h"

namespace dlte::obs {

void merge_registry(MetricsRegistry& dst, const MetricsRegistry& src,
                    const std::string& prefix) {
  for (const auto& [name, counter] : src.counters()) {
    dst.counter(prefix + name).inc(counter.value());
  }
  for (const auto& [name, gauge] : src.gauges()) {
    dst.gauge(prefix + name).set_max(gauge.value());
  }
  for (const auto& [name, histogram] : src.histograms()) {
    dst.histogram(prefix + name).merge_from(histogram);
  }
}

std::string merged_series_json(
    const std::vector<const TimeSeriesSampler*>& samplers,
    const std::string& source, const SloMonitor* monitor) {
  // Union of series names, sorted; first sampler wins on duplicates.
  // Points are rebuilt from the winner's columns one series at a time.
  struct Source {
    const TimeSeriesSampler* sampler;
    TimeSeriesSampler::Columns columns;
  };
  std::map<std::string, Source> merged;
  double interval_s = 0.0;
  std::uint64_t samples = 0;
  for (const TimeSeriesSampler* sampler : samplers) {
    if (sampler == nullptr) continue;
    if (interval_s == 0.0) interval_s = sampler->interval().to_seconds();
    if (sampler->samples() > samples) samples = sampler->samples();
    for (auto& [name, columns] : sampler->columns_by_name()) {
      merged.try_emplace(name, Source{sampler, std::move(columns)});
    }
  }

  JsonWriter w;
  w.begin_object();
  w.key("schema").value("dlte-series-v1");
  w.key("source").value(source);
  w.key("interval_s").value(interval_s);
  w.key("samples").value(samples);
  w.key("series").begin_object();
  for (const auto& [name, source] : merged) {
    const ExportedSeries series = source.sampler->export_series(source.columns);
    w.key(name).begin_object();
    w.key("kind").value(series_kind_name(series.kind));
    w.key("dropped").value(series.dropped);
    w.key("points").begin_array();
    for (const SeriesPoint& point : series.points) {
      w.begin_array();
      w.value(point.t_s);
      w.value(point.value);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  // Rules/alerts/health render empty when no monitor rides along.
  w.key("rules").begin_array();
  if (monitor != nullptr) {
    for (const auto& rule : monitor->rule_descriptions()) w.value(rule);
  }
  w.end_array();
  w.key("alerts").begin_array();
  if (monitor != nullptr) {
    for (const auto& event : monitor->events()) {
      w.begin_object();
      w.key("t_s").value(event.t_s);
      w.key("event").value(event.fire ? "fire" : "resolve");
      w.key("rule").value(event.rule);
      w.key("scope").value(event.scope);
      w.key("metric").value(event.metric);
      w.key("value").value(event.value);
      w.key("threshold").value(event.threshold);
      w.end_object();
    }
  }
  w.end_array();
  w.key("health").begin_object();
  if (monitor != nullptr) {
    for (const auto& scope : monitor->scopes()) {
      w.key(scope).value(monitor->health(scope));
    }
  }
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace dlte::obs
