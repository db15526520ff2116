// Time-series telemetry: the missing time dimension of the §8 metrics
// plane (DESIGN.md §10).
//
// A MetricsSnapshot answers "where did the run end up"; a time series
// answers "when did it change". The TimeSeriesSampler walks a
// MetricsRegistry at a fixed simulated-time cadence and records each
// instrument's state as one or more derived series:
//
//   counter    <name>        cumulative value
//              <name>.rate   per-second delta since the previous sample
//   gauge      <name>        point-in-time value
//   histogram  <name>.count / .p50 / .p95 / .p99
//
// Storage is columnar: each derived series is a column, each sample is
// one row of doubles (one per column) in a bounded ring of rows. Series
// names and point lists exist only at export.
//
// Like everything in obs, the sampler never touches a wall clock: it is
// driven from outside (sim::TelemetryDriver registers the recurring
// simulator event) and stamps points with the simulated time it is
// handed, so two same-seed runs produce byte-identical series JSON —
// the property the CI health gate diffs directly.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/metrics.h"

namespace dlte::obs {

struct SeriesPoint {
  double t_s{0.0};  // Simulated seconds since the start of the run.
  double value{0.0};
};

// What a series was derived from — kept so downstream tooling can tell
// a raw counter from a derived rate without parsing the name.
enum class SeriesKind : std::uint8_t {
  kCounter,
  kCounterRate,
  kGauge,
  kHistogramCount,
  kHistogramQuantile,
};

[[nodiscard]] const char* series_kind_name(SeriesKind kind);

// One series as exported: rebuilt from the sampler's columns on demand,
// never kept while sampling. At most SamplerConfig::capacity points, the
// newest; `dropped` counts the older ones that fell out of the ring.
struct ExportedSeries {
  SeriesKind kind{SeriesKind::kGauge};
  std::uint64_t dropped{0};
  std::vector<SeriesPoint> points;
};

struct SamplerConfig {
  // Simulated-time sampling period (the cadence sim::TelemetryDriver
  // registers its recurring event at).
  Duration interval{Duration::millis(500)};
  // Ring bound: the sampler keeps the newest `capacity` rows, so a long
  // run degrades to a sliding window, never to OOM. Must be positive.
  std::size_t capacity{4096};
};

class TimeSeriesSampler {
 public:
  // Throws std::invalid_argument when config.capacity is 0.
  explicit TimeSeriesSampler(const MetricsRegistry& registry,
                             SamplerConfig config = {});
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  // Append one row at simulated time `now`: one value per column.
  // Metrics that appear mid-run start their series at the first sample
  // after creation; rates are 0 at each counter's first sample.
  //
  // Each instrument is bound to its columns once: the sampler keeps one
  // slot per instrument and rebuilds the slots only when the registry
  // grew (it never shrinks, and its references are node-stable), so a
  // steady-state sample builds no name, does no lookup and allocates
  // nothing per series.
  void sample(TimePoint now);

  [[nodiscard]] Duration interval() const { return config_.interval; }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }

  // ---- Export (never on the sampling path) ----------------------------
  // Two instruments can feed one series name (a counter "x" and a gauge
  // "x", or a counter "a" whose rate is "a.rate" next to a counter named
  // "a.rate"). Such a series interleaves its columns in push order —
  // counters, gauges, histograms; then instrument name; then role — its
  // kind is its first-created column's, and the ring bound applies to
  // the merged stream.
  using Columns = std::vector<std::uint32_t>;
  // Every series name this sampler feeds, sorted, with its columns in
  // push order.
  [[nodiscard]] std::map<std::string, Columns> columns_by_name() const;
  // The series those columns make (one entry of columns_by_name()).
  [[nodiscard]] ExportedSeries export_series(const Columns& columns) const;

 private:
  // One derived series. Its name is *key + kSuffixes[suffix]; it has a
  // value in every row from sample `first` on.
  struct Column {
    const std::string* key;  // The instrument's registry key.
    std::uint64_t first;
    std::uint8_t suffix;
    SeriesKind kind;
  };
  // One sample. `values` is as wide as the column count at that sample,
  // so it holds every column born at or before it.
  struct Row {
    double t_s{0.0};
    std::vector<double> values;
  };
  // Slots hold their instrument's first column; the others follow it
  // (counter: value, rate; histogram: count, p50, p95, p99). A counter's
  // previous cumulative value (valid once `seen`) drives its rate.
  struct CounterSlot {
    const Counter* instrument;
    std::uint32_t column;
    std::uint64_t last{0};
    bool seen{false};
  };
  struct GaugeSlot {
    const Gauge* instrument;
    std::uint32_t column;
  };
  struct HistogramSlot {
    const Histogram* instrument;
    std::uint32_t column;
  };

  // Append a column born at the next sample; returns its index.
  std::uint32_t add_column(const std::string& key, std::uint8_t suffix,
                           SeriesKind kind);
  // Bring the slots up to the registry: slots stay in registry (name)
  // order, so sample() fills a row in the order a per-name walk pushes.
  void bind();
  // The row the next sample writes, sized to the current column count:
  // a new one until the ring holds `capacity` rows, then the oldest.
  Row& next_row();
  [[nodiscard]] static std::string name_of(const Column& column);

  const MetricsRegistry& registry_;
  SamplerConfig config_;
  std::vector<Column> columns_;
  std::vector<Row> rows_;
  std::size_t oldest_{0};  // rows_ index of the oldest row.
  std::vector<CounterSlot> counters_;
  std::vector<GaugeSlot> gauges_;
  std::vector<HistogramSlot> histograms_;
  std::size_t bound_size_{0};
  double last_t_s_{0.0};
  std::uint64_t samples_{0};
};

}  // namespace dlte::obs
