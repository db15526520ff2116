#include "sim/telemetry.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace dlte::sim {
namespace {

TimePoint at(double t_s) { return TimePoint{} + Duration::seconds(t_s); }

// Every series of `sampler` by name, as obs::merged_series_json exports
// them.
std::map<std::string, obs::ExportedSeries> all_series(
    const obs::TimeSeriesSampler& sampler) {
  std::map<std::string, obs::ExportedSeries> out;
  for (const auto& [name, columns] : sampler.columns_by_name()) {
    out.emplace(name, sampler.export_series(columns));
  }
  return out;
}

TEST(TelemetryDriver, TicksAtSamplerInterval) {
  Simulator sim;
  obs::MetricsRegistry reg;
  reg.counter("events").inc(3);
  obs::SamplerConfig config;
  config.interval = Duration::seconds(1.0);
  obs::TimeSeriesSampler sampler{reg, config};
  TelemetryDriver driver{sim, &sampler, nullptr};
  driver.start();  // Default cadence: the sampler's interval.
  sim.run_until(at(5.0));
  EXPECT_EQ(sampler.samples(), 5u);
  const auto all = all_series(sampler);
  ASSERT_TRUE(all.contains("events"));
  const obs::ExportedSeries& s = all.at("events");
  EXPECT_DOUBLE_EQ(s.points.front().t_s, 1.0);  // First tick at t=1.
}

TEST(TelemetryDriver, EvaluatesMonitorBeforeSampling) {
  Simulator sim;
  obs::MetricsRegistry reg;
  obs::Gauge& up = reg.gauge("ap1.up");
  up.set(0.0);
  obs::SloMonitor monitor{reg};
  monitor.set_metrics(&reg);  // health.ap1 lands in the same registry.
  obs::SloRule rule;
  rule.name = "ap1_down";
  rule.scope = "ap1";
  rule.metric = "ap1.up";
  rule.predicate = obs::SloPredicate::kGaugeAtLeast;
  rule.threshold = 1.0;
  monitor.add_rule(rule);
  obs::SamplerConfig config;
  config.interval = Duration::seconds(1.0);
  obs::TimeSeriesSampler sampler{reg, config};
  TelemetryDriver driver{sim, &sampler, &monitor};
  driver.start();
  sim.run_until(at(1.0));

  // Evaluate-then-sample: the very tick that fired the alert already
  // samples the refreshed health gauge as unhealthy.
  EXPECT_TRUE(monitor.alert_active("ap1_down"));
  const auto all = all_series(sampler);
  ASSERT_TRUE(all.contains("health.ap1"));
  const obs::ExportedSeries& health = all.at("health.ap1");
  ASSERT_EQ(health.points.size(), 1u);
  EXPECT_DOUBLE_EQ(health.points[0].value, 0.0);
}

TEST(TelemetryDriver, StartRestartsAtTheNewCadence) {
  Simulator sim;
  obs::MetricsRegistry reg;
  obs::TimeSeriesSampler sampler{reg};
  TelemetryDriver driver{sim, &sampler, nullptr};
  driver.start(Duration::seconds(1.0));
  sim.run_until(at(3.0));
  EXPECT_EQ(sampler.samples(), 3u);
  // Restart at a coarser cadence: ticks at 5, 7 and 9 s, and none left
  // of the 1 s cadence.
  driver.start(Duration::seconds(2.0));
  sim.run_until(at(10.0));
  EXPECT_EQ(sampler.samples(), 6u);
}

TEST(TelemetryDriver, DestructionCancelsPendingTicks) {
  Simulator sim;
  obs::MetricsRegistry reg;
  {
    obs::TimeSeriesSampler sampler{reg};
    TelemetryDriver driver{sim, &sampler, nullptr};
    driver.start(Duration::seconds(1.0));
    sim.run_until(at(2.0));
    EXPECT_EQ(sampler.samples(), 2u);
  }
  // The driver (and sampler) are gone; their periodic must not fire.
  sim.run_until(at(5.0));
}

}  // namespace
}  // namespace dlte::sim
