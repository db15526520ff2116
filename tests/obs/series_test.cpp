#include "obs/series.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/merge.h"
#include "obs/slo.h"

namespace dlte::obs {
namespace {

TimePoint at(double t_s) { return TimePoint{} + Duration::seconds(t_s); }

TEST(TimeSeries, RingDropsOldestAndCounts) {
  TimeSeries s{SeriesKind::kGauge, 3};
  for (int i = 0; i < 5; ++i) {
    s.push(static_cast<double>(i), static_cast<double>(i * 10));
  }
  ASSERT_EQ(s.points().size(), 3u);
  EXPECT_EQ(s.dropped(), 2u);
  // The two oldest points fell out of the window.
  EXPECT_DOUBLE_EQ(s.points().front().t_s, 2.0);
  EXPECT_DOUBLE_EQ(s.points().front().value, 20.0);
  EXPECT_DOUBLE_EQ(s.latest(), 40.0);
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

  const TimeSeries* cumulative = sampler.find("pkts");
  ASSERT_NE(cumulative, nullptr);
  EXPECT_EQ(cumulative->kind(), SeriesKind::kCounter);
  ASSERT_EQ(cumulative->points().size(), 3u);
  EXPECT_DOUBLE_EQ(cumulative->points()[0].value, 10.0);
  EXPECT_DOUBLE_EQ(cumulative->points()[1].value, 40.0);
  EXPECT_DOUBLE_EQ(cumulative->points()[2].value, 40.0);

  const TimeSeries* rate = sampler.find("pkts.rate");
  ASSERT_NE(rate, nullptr);
  EXPECT_EQ(rate->kind(), SeriesKind::kCounterRate);
  ASSERT_EQ(rate->points().size(), 3u);
  EXPECT_DOUBLE_EQ(rate->points()[0].value, 0.0);  // No previous sample.
  EXPECT_DOUBLE_EQ(rate->points()[1].value, 15.0);  // +30 over 2 s.
  EXPECT_DOUBLE_EQ(rate->points()[2].value, 0.0);
  EXPECT_EQ(sampler.samples(), 3u);
}

TEST(TimeSeriesSampler, GaugeAndHistogramDerivedSeries) {
  MetricsRegistry reg;
  reg.gauge("load").set(0.25);
  Histogram& h = reg.histogram("lat_ms");
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  TimeSeriesSampler sampler{reg};
  sampler.sample(at(0.5));

  const TimeSeries* load = sampler.find("load");
  ASSERT_NE(load, nullptr);
  EXPECT_EQ(load->kind(), SeriesKind::kGauge);
  EXPECT_DOUBLE_EQ(load->latest(), 0.25);

  const TimeSeries* count = sampler.find("lat_ms.count");
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->kind(), SeriesKind::kHistogramCount);
  EXPECT_DOUBLE_EQ(count->latest(), 100.0);
  const TimeSeries* p95 = sampler.find("lat_ms.p95");
  ASSERT_NE(p95, nullptr);
  EXPECT_EQ(p95->kind(), SeriesKind::kHistogramQuantile);
  EXPECT_NEAR(p95->latest(), 95.0, 95.0 / Histogram::kSubBuckets);
  EXPECT_NE(sampler.find("lat_ms.p50"), nullptr);
  EXPECT_NE(sampler.find("lat_ms.p99"), nullptr);
}

TEST(TimeSeriesSampler, MetricAppearingMidRunStartsLate) {
  MetricsRegistry reg;
  reg.counter("early").inc();
  TimeSeriesSampler sampler{reg};
  sampler.sample(at(1.0));
  reg.gauge("late").set(7.0);
  sampler.sample(at(2.0));

  ASSERT_NE(sampler.find("late"), nullptr);
  ASSERT_EQ(sampler.find("late")->points().size(), 1u);
  EXPECT_DOUBLE_EQ(sampler.find("late")->points()[0].t_s, 2.0);
  EXPECT_EQ(sampler.find("early")->points().size(), 2u);
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
  const TimeSeries* s = sampler.find("c");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->points().size(), 4u);
  EXPECT_EQ(s->dropped(), 6u);
  EXPECT_DOUBLE_EQ(s->points().front().t_s, 7.0);
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
