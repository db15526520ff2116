// Time-series telemetry: the missing time dimension of the §8 metrics
// plane (DESIGN.md §10).
//
// A MetricsSnapshot answers "where did the run end up"; a TimeSeries
// answers "when did it change". The TimeSeriesSampler walks a
// MetricsRegistry at a fixed simulated-time cadence and appends each
// instrument's state to a bounded ring-buffered series:
//
//   counter    <name>        cumulative value
//              <name>.rate   per-second delta since the previous sample
//   gauge      <name>        point-in-time value
//   histogram  <name>.count / .p50 / .p95 / .p99
//
// Like everything in obs, the sampler never touches a wall clock: it is
// driven from outside (sim::TelemetryDriver registers the recurring
// simulator event) and stamps points with the simulated time it is
// handed, so two same-seed runs produce byte-identical series JSON —
// the property the CI health gate diffs directly.
#pragma once

#include <cstdint>
#include <deque>
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
enum class SeriesKind {
  kCounter,
  kCounterRate,
  kGauge,
  kHistogramCount,
  kHistogramQuantile,
};

[[nodiscard]] const char* series_kind_name(SeriesKind kind);

// Bounded ring of points: oldest points drop first, and drops are
// counted — a long run degrades to a sliding window, never to OOM.
class TimeSeries {
 public:
  explicit TimeSeries(SeriesKind kind, std::size_t capacity)
      : kind_(kind), capacity_(capacity) {}

  void push(double t_s, double value) {
    if (points_.size() == capacity_) {
      points_.pop_front();
      ++dropped_;
    }
    points_.push_back(SeriesPoint{t_s, value});
  }

  [[nodiscard]] SeriesKind kind() const { return kind_; }
  [[nodiscard]] const std::deque<SeriesPoint>& points() const {
    return points_;
  }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  [[nodiscard]] double latest() const {
    return points_.empty() ? 0.0 : points_.back().value;
  }

 private:
  SeriesKind kind_;
  std::size_t capacity_;
  std::deque<SeriesPoint> points_;
  std::uint64_t dropped_{0};
};

struct SamplerConfig {
  // Simulated-time sampling period (the cadence sim::TelemetryDriver
  // registers its recurring event at).
  Duration interval{Duration::millis(500)};
  // Ring bound per series.
  std::size_t capacity{4096};
};

class TimeSeriesSampler {
 public:
  explicit TimeSeriesSampler(const MetricsRegistry& registry,
                             SamplerConfig config = {});
  TimeSeriesSampler(const TimeSeriesSampler&) = delete;
  TimeSeriesSampler& operator=(const TimeSeriesSampler&) = delete;

  // Append one point per instrument at simulated time `now`. Metrics
  // that appear mid-run start their series at the first sample after
  // creation; rates are 0 at each counter's first sample.
  //
  // Each instrument is bound to its series once: the sampler keeps one
  // slot per instrument and rebuilds the slots only when the registry
  // grew (it never shrinks, and its references are node-stable), so a
  // steady-state sample builds no name and does no map lookup.
  void sample(TimePoint now);

  [[nodiscard]] Duration interval() const { return config_.interval; }
  [[nodiscard]] std::uint64_t samples() const { return samples_; }
  [[nodiscard]] const std::map<std::string, TimeSeries>& series() const {
    return series_;
  }
  [[nodiscard]] const TimeSeries* find(const std::string& name) const;

 private:
  // A counter's previous cumulative value (valid once `seen`) drives
  // its rate series.
  struct CounterSlot {
    const Counter* instrument;
    TimeSeries* value;
    TimeSeries* rate;
    std::uint64_t last{0};
    bool seen{false};
  };
  struct GaugeSlot {
    const Gauge* instrument;
    TimeSeries* value;
  };
  struct HistogramSlot {
    const Histogram* instrument;
    TimeSeries* count;
    TimeSeries* p50;
    TimeSeries* p95;
    TimeSeries* p99;
  };

  TimeSeries& get(const std::string& name, SeriesKind kind);
  // Bring the slots up to the registry: slots stay in registry (name)
  // order, so sample() pushes in the order a per-name walk would.
  void bind();

  const MetricsRegistry& registry_;
  SamplerConfig config_;
  std::map<std::string, TimeSeries> series_;
  std::vector<CounterSlot> counters_;
  std::vector<GaugeSlot> gauges_;
  std::vector<HistogramSlot> histograms_;
  std::size_t bound_size_{0};
  double last_t_s_{0.0};
  std::uint64_t samples_{0};
};

}  // namespace dlte::obs
