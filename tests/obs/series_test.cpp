#include "obs/series.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <stdexcept>
#include <random>
#include <string>
#include <vector>

#include "obs/merge.h"
#include "obs/slo.h"

namespace dlte::obs {
namespace {

TimePoint at(double t_s) { return TimePoint{} + Duration::seconds(t_s); }

// Every series of `sampler` by name, as merged_series_json exports them.
std::map<std::string, ExportedSeries> all_series(
    const TimeSeriesSampler& sampler) {
  std::map<std::string, ExportedSeries> out;
  for (const auto& [name, columns] : sampler.columns_by_name()) {
    out.emplace(name, sampler.export_series(columns));
  }
  return out;
}

TEST(TimeSeries, RingDropsOldestAndCounts) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("g");
  SamplerConfig config;
  config.capacity = 3;
  TimeSeriesSampler sampler{reg, config};
  for (int i = 0; i < 5; ++i) {
    g.set(static_cast<double>(i * 10));
    sampler.sample(at(static_cast<double>(i)));
  }
  const auto all = all_series(sampler);
  const ExportedSeries& s = all.at("g");
  ASSERT_EQ(s.points.size(), 3u);
  EXPECT_EQ(s.dropped, 2u);
  // The two oldest points fell out of the window.
  EXPECT_DOUBLE_EQ(s.points.front().t_s, 2.0);
  EXPECT_DOUBLE_EQ(s.points.front().value, 20.0);
  EXPECT_DOUBLE_EQ(s.points.back().value, 40.0);
}

TEST(TimeSeriesSampler, RejectsZeroCapacity) {
  MetricsRegistry reg;
  SamplerConfig config;
  config.capacity = 0;
  EXPECT_THROW(TimeSeriesSampler(reg, config), std::invalid_argument);
  config.capacity = 1;
  TimeSeriesSampler one{reg, config};
  reg.counter("c").inc();
  one.sample(at(1.0));
  one.sample(at(2.0));
  const auto all = all_series(one);
  ASSERT_EQ(all.at("c").points.size(), 1u);
  EXPECT_EQ(all.at("c").dropped, 1u);
}

TEST(TimeSeriesSampler, CounterSeriesCumulativeAndRate) {
  MetricsRegistry reg;
  Counter& c = reg.counter("pkts");
  TimeSeriesSampler sampler{reg};

  c.inc(10);
  sampler.sample(at(1.0));
  c.inc(30);
  sampler.sample(at(3.0));
  sampler.sample(at(4.0));

  const auto all = all_series(sampler);
  ASSERT_TRUE(all.contains("pkts"));
  const ExportedSeries& cumulative = all.at("pkts");
  EXPECT_EQ(cumulative.kind, SeriesKind::kCounter);
  ASSERT_EQ(cumulative.points.size(), 3u);
  EXPECT_DOUBLE_EQ(cumulative.points[0].value, 10.0);
  EXPECT_DOUBLE_EQ(cumulative.points[1].value, 40.0);
  EXPECT_DOUBLE_EQ(cumulative.points[2].value, 40.0);

  ASSERT_TRUE(all.contains("pkts.rate"));
  const ExportedSeries& rate = all.at("pkts.rate");
  EXPECT_EQ(rate.kind, SeriesKind::kCounterRate);
  ASSERT_EQ(rate.points.size(), 3u);
  EXPECT_DOUBLE_EQ(rate.points[0].value, 0.0);  // No previous sample.
  EXPECT_DOUBLE_EQ(rate.points[1].value, 15.0);  // +30 over 2 s.
  EXPECT_DOUBLE_EQ(rate.points[2].value, 0.0);
  EXPECT_EQ(sampler.samples(), 3u);
}

TEST(TimeSeriesSampler, GaugeAndHistogramDerivedSeries) {
  MetricsRegistry reg;
  reg.gauge("load").set(0.25);
  Histogram& h = reg.histogram("lat_ms");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  TimeSeriesSampler sampler{reg};
  sampler.sample(at(0.5));

  const auto all = all_series(sampler);
  ASSERT_TRUE(all.contains("load"));
  const ExportedSeries& load = all.at("load");
  EXPECT_EQ(load.kind, SeriesKind::kGauge);
  ASSERT_EQ(load.points.size(), 1u);
  EXPECT_DOUBLE_EQ(load.points.back().value, 0.25);

  ASSERT_TRUE(all.contains("lat_ms.count"));
  const ExportedSeries& count = all.at("lat_ms.count");
  EXPECT_EQ(count.kind, SeriesKind::kHistogramCount);
  ASSERT_EQ(count.points.size(), 1u);
  EXPECT_DOUBLE_EQ(count.points.back().value, 100.0);
  ASSERT_TRUE(all.contains("lat_ms.p95"));
  const ExportedSeries& p95 = all.at("lat_ms.p95");
  EXPECT_EQ(p95.kind, SeriesKind::kHistogramQuantile);
  ASSERT_EQ(p95.points.size(), 1u);
  EXPECT_NEAR(p95.points.back().value, 95.0, 95.0 / Histogram::kSubBuckets);
  EXPECT_TRUE(all.contains("lat_ms.p50"));
  EXPECT_TRUE(all.contains("lat_ms.p99"));
}

TEST(TimeSeriesSampler, MetricAppearingMidRunStartsLate) {
  MetricsRegistry reg;
  reg.counter("early").inc();
  TimeSeriesSampler sampler{reg};
  sampler.sample(at(1.0));
  reg.gauge("late").set(7.0);
  sampler.sample(at(2.0));

  const auto all = all_series(sampler);
  ASSERT_TRUE(all.contains("late"));
  const ExportedSeries& late = all.at("late");
  ASSERT_EQ(late.points.size(), 1u);
  EXPECT_DOUBLE_EQ(late.points[0].t_s, 2.0);
  EXPECT_EQ(all.at("early").points.size(), 2u);
}

TEST(TimeSeriesSampler, CapacityBoundsEverySeries) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  SamplerConfig config;
  config.capacity = 4;
  TimeSeriesSampler sampler{reg, config};
  for (int i = 1; i <= 10; ++i) {
    c.inc();
    sampler.sample(at(static_cast<double>(i)));
  }
  const auto all = all_series(sampler);
  ASSERT_TRUE(all.contains("c"));
  const ExportedSeries& s = all.at("c");
  EXPECT_EQ(s.points.size(), 4u);
  EXPECT_EQ(s.dropped, 6u);
  EXPECT_DOUBLE_EQ(s.points.front().t_s, 7.0);
}

// A per-name series: a bounded ring of points, oldest dropped first.
class ReferenceSeries {
 public:
  ReferenceSeries(SeriesKind kind, std::size_t capacity)
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

 private:
  SeriesKind kind_;
  std::size_t capacity_;
  std::deque<SeriesPoint> points_;
  std::uint64_t dropped_{0};
};

// The per-name algorithm the column store replaced: every sample walks
// the registry, rebuilds each derived name and pushes onto that name's
// own ring, looking the counter's previous value up by name. Kept here
// as the reference.
class PerNameSampler {
 public:
  PerNameSampler(const MetricsRegistry& registry, std::size_t capacity)
      : registry_(registry), capacity_(capacity) {}

  void sample(TimePoint now) {
    const double t_s = (now - TimePoint{}).to_seconds();
    for (const auto& [name, c] : registry_.counters()) {
      const std::uint64_t value = c.value();
      get(name, SeriesKind::kCounter).push(t_s, static_cast<double>(value));
      double rate = 0.0;
      const auto last = last_counters_.find(name);
      const double dt = t_s - last_t_s_;
      if (last != last_counters_.end() && dt > 0.0) {
        rate = static_cast<double>(value - last->second) / dt;
      }
      get(name + ".rate", SeriesKind::kCounterRate).push(t_s, rate);
      last_counters_[name] = value;
    }
    for (const auto& [name, g] : registry_.gauges()) {
      get(name, SeriesKind::kGauge).push(t_s, g.value());
    }
    for (const auto& [name, h] : registry_.histograms()) {
      get(name + ".count", SeriesKind::kHistogramCount)
          .push(t_s, static_cast<double>(h.count()));
      get(name + ".p50", SeriesKind::kHistogramQuantile).push(t_s, h.p50());
      get(name + ".p95", SeriesKind::kHistogramQuantile).push(t_s, h.p95());
      get(name + ".p99", SeriesKind::kHistogramQuantile).push(t_s, h.p99());
    }
    last_t_s_ = t_s;
  }

  std::map<std::string, ReferenceSeries> series;

 private:
  ReferenceSeries& get(const std::string& name, SeriesKind kind) {
    return series.try_emplace(name, kind, capacity_).first->second;
  }

  const MetricsRegistry& registry_;
  std::size_t capacity_;
  std::map<std::string, std::uint64_t> last_counters_;
  double last_t_s_{0.0};
};

TEST(TimeSeriesSampler, BoundSlotsMatchNameLookupUnderGrowth) {
  std::mt19937_64 rng{20181115};
  auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  MetricsRegistry reg;
  SamplerConfig config;
  config.capacity = 24;  // Small enough that long series drop points.
  TimeSeriesSampler sampler{reg, config};
  PerNameSampler reference{reg, config.capacity};

  std::vector<Counter*> counters;
  std::vector<Gauge*> gauges;
  std::vector<Histogram*> histograms;
  std::vector<std::string> names;
  // Names that sort before, between and after the ones already there,
  // plus names that collide with another kind's (derived) series.
  auto fresh_name = [&]() -> std::string {
    switch (pick(4)) {
      case 0:
        return "a" + std::to_string(pick(100000));
      case 1:
        return "m" + std::to_string(pick(100000));
      case 2:
        return "z" + std::to_string(pick(100000));
      default:
        if (names.empty()) return "m";
        return names[pick(names.size())] +
               (pick(2) == 0 ? "" : (pick(2) == 0 ? ".rate" : ".count"));
    }
  };

  double t_s = 0.0;
  for (int step = 0; step < 60; ++step) {
    // Grow the registry between some samples, not all.
    const std::size_t added = step % 3 == 2 ? 0 : pick(4);
    for (std::size_t i = 0; i < added; ++i) {
      const std::string name = fresh_name();
      names.push_back(name);
      switch (pick(3)) {
        case 0:
          counters.push_back(&reg.counter(name));
          break;
        case 1:
          gauges.push_back(&reg.gauge(name));
          break;
        default:
          histograms.push_back(&reg.histogram(name));
          break;
      }
    }
    for (Counter* c : counters) {
      if (pick(2) == 0) c->inc(pick(50));
    }
    for (Gauge* g : gauges) g->set(static_cast<double>(pick(1000)) / 8.0);
    for (Histogram* h : histograms) {
      for (std::size_t i = pick(4); i > 0; --i) {
        h->record(static_cast<double>(pick(500)) / 4.0);
      }
    }
    // Every fifth step samples twice at one instant (dt = 0).
    if (step % 5 != 4) t_s += 0.25 * static_cast<double>(1 + pick(4));
    sampler.sample(at(t_s));
    reference.sample(at(t_s));
  }

  EXPECT_EQ(sampler.samples(), 60u);
  const auto all = all_series(sampler);
  ASSERT_EQ(all.size(), reference.series.size());
  auto expected = reference.series.begin();
  for (const auto& [name, series] : all) {
    ASSERT_EQ(name, expected->first);
    const ReferenceSeries& want = expected->second;
    EXPECT_EQ(series.kind, want.kind()) << name;
    EXPECT_EQ(series.dropped, want.dropped()) << name;
    ASSERT_EQ(series.points.size(), want.points().size()) << name;
    for (std::size_t i = 0; i < want.points().size(); ++i) {
      EXPECT_EQ(series.points[i].t_s, want.points()[i].t_s) << name;
      EXPECT_EQ(series.points[i].value, want.points()[i].value) << name;
    }
    ++expected;
  }
  // Growth, collisions and drops all happened: fewer series than the
  // instruments derive means two instruments shared a series name.
  EXPECT_GT(reg.counters().size(), 5u);
  EXPECT_GT(reg.gauges().size(), 5u);
  EXPECT_GT(reg.histograms().size(), 5u);
  EXPECT_LT(all.size(), 2 * reg.counters().size() + reg.gauges().size() +
                            4 * reg.histograms().size());
  std::uint64_t dropped = 0;
  for (const auto& [name, series] : all) dropped += series.dropped;
  EXPECT_GT(dropped, 0u);
}

TEST(SeriesKindNames, MatchToolingContract) {
  // tools/health_report.py validates against these exact strings.
  EXPECT_STREQ(series_kind_name(SeriesKind::kCounter), "counter");
  EXPECT_STREQ(series_kind_name(SeriesKind::kCounterRate), "rate");
  EXPECT_STREQ(series_kind_name(SeriesKind::kGauge), "gauge");
  EXPECT_STREQ(series_kind_name(SeriesKind::kHistogramCount), "hist_count");
  EXPECT_STREQ(series_kind_name(SeriesKind::kHistogramQuantile),
               "hist_quantile");
}

// The dlte-series-v1 document rendered from a single sampler.
TEST(SeriesExporter, JsonHasSchemaAndSortedSeries) {
  MetricsRegistry reg;
  reg.counter("b.count").inc(2);
  reg.gauge("a.load").set(1.5);
  TimeSeriesSampler sampler{reg};
  sampler.sample(at(0.5));
  sampler.sample(at(1.0));

  const std::string json =
      merged_series_json({&sampler}, "unit_test");
  EXPECT_NE(json.find("\"schema\":\"dlte-series-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"source\":\"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\":2"), std::string::npos);
  // std::map iteration: a.load before b.count.
  EXPECT_LT(json.find("\"a.load\""), json.find("\"b.count\""));
  // Null monitor renders the health sections empty but present.
  EXPECT_NE(json.find("\"rules\""), std::string::npos);
  EXPECT_NE(json.find("\"alerts\""), std::string::npos);
  EXPECT_NE(json.find("\"health\""), std::string::npos);
}

TEST(SeriesExporter, ByteIdenticalAcrossIdenticalRuns) {
  auto render = [] {
    MetricsRegistry reg;
    SloMonitor monitor{reg};
    SloRule rule;
    rule.name = "load_high";
    rule.scope = "node";
    rule.metric = "load";
    rule.predicate = SloPredicate::kGaugeAtMost;
    rule.threshold = 1.0;
    monitor.add_rule(rule);
    TimeSeriesSampler sampler{reg};
    Gauge& load = reg.gauge("load");
    for (int i = 1; i <= 20; ++i) {
      load.set(i >= 10 && i < 15 ? 2.0 : 0.5);
      const TimePoint now = at(0.5 * i);
      monitor.evaluate(now);
      sampler.sample(now);
    }
    return merged_series_json({&sampler}, "determinism", &monitor);
  };
  const std::string first = render();
  const std::string second = render();
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"event\":\"fire\""), std::string::npos);
  EXPECT_NE(first.find("\"event\":\"resolve\""), std::string::npos);
}

}  // namespace
}  // namespace dlte::obs
