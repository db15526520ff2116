#include "obs/slo.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/span.h"

namespace dlte::obs {
namespace {

TimePoint at(double t_s) { return TimePoint{} + Duration::seconds(t_s); }

TEST(SloRule, DescribeIsDeterministic) {
  SloRule rule;
  rule.name = "registry_outage";
  rule.scope = "registry";
  rule.metric = "registry.heartbeats_failed";
  rule.predicate = SloPredicate::kRateBelow;
  rule.threshold = 0.01;
  EXPECT_EQ(rule.describe(),
            "registry_outage [registry]: "
            "rate_below(registry.heartbeats_failed) < 0.01 over 5s");
  rule.predicate = SloPredicate::kRateAtLeast;
  rule.window = Duration::seconds(2.5);
  EXPECT_EQ(rule.describe(),
            "registry_outage [registry]: "
            "rate_at_least(registry.heartbeats_failed) >= 0.01 over 2.5s");
  SloRule up;
  up.name = "ap1_down";
  up.scope = "ap1";
  up.metric = "ap1.up";
  up.predicate = SloPredicate::kGaugeAtLeast;
  up.threshold = 1.0;
  EXPECT_EQ(up.describe(), "ap1_down [ap1]: gauge_at_least(ap1.up) >= 1");
}

TEST(SloMonitor, GaugeRuleFiresAndResolvesImmediately) {
  MetricsRegistry reg;
  Gauge& up = reg.gauge("ap1.up");
  up.set(1.0);
  SloMonitor monitor{reg};
  SloRule rule;
  rule.name = "ap1_down";
  rule.scope = "ap1";
  rule.metric = "ap1.up";
  rule.predicate = SloPredicate::kGaugeAtLeast;
  rule.threshold = 1.0;
  monitor.add_rule(rule);

  monitor.evaluate(at(1.0));
  EXPECT_FALSE(monitor.alert_active("ap1_down"));
  up.set(0.0);
  monitor.evaluate(at(2.0));
  EXPECT_TRUE(monitor.alert_active("ap1_down"));
  EXPECT_TRUE(monitor.ever_fired("ap1_down"));
  EXPECT_DOUBLE_EQ(monitor.health("ap1"), 0.0);
  up.set(1.0);
  monitor.evaluate(at(3.0));
  EXPECT_FALSE(monitor.alert_active("ap1_down"));
  EXPECT_TRUE(monitor.ever_fired("ap1_down"));
  EXPECT_DOUBLE_EQ(monitor.health("ap1"), 1.0);

  ASSERT_EQ(monitor.events().size(), 2u);
  EXPECT_TRUE(monitor.events()[0].fire);
  EXPECT_DOUBLE_EQ(monitor.events()[0].t_s, 2.0);
  EXPECT_FALSE(monitor.events()[1].fire);
  EXPECT_DOUBLE_EQ(monitor.events()[1].t_s, 3.0);
  EXPECT_EQ(monitor.events()[0].describe(),
            "t=2s FIRE ap1_down [ap1] ap1.up value=0 threshold=1");
}

TEST(SloMonitor, FireAfterAndResolveAfterStreaks) {
  MetricsRegistry reg;
  Gauge& headroom = reg.gauge("headroom");
  headroom.set(2.0);
  SloMonitor monitor{reg};
  SloRule rule;
  rule.name = "overload";
  rule.scope = "node";
  rule.metric = "headroom";
  rule.predicate = SloPredicate::kGaugeAtLeast;
  rule.threshold = 1.0;
  rule.fire_after = 3;
  rule.resolve_after = 2;
  monitor.add_rule(rule);

  headroom.set(0.2);
  monitor.evaluate(at(1.0));
  monitor.evaluate(at(2.0));
  EXPECT_FALSE(monitor.alert_active("overload"));  // Streak of 2 < 3.
  // A healthy tick resets the breach streak.
  headroom.set(2.0);
  monitor.evaluate(at(3.0));
  headroom.set(0.2);
  monitor.evaluate(at(4.0));
  monitor.evaluate(at(5.0));
  EXPECT_FALSE(monitor.alert_active("overload"));
  monitor.evaluate(at(6.0));
  EXPECT_TRUE(monitor.alert_active("overload"));

  headroom.set(2.0);
  monitor.evaluate(at(7.0));
  EXPECT_TRUE(monitor.alert_active("overload"));  // Streak of 1 < 2.
  monitor.evaluate(at(8.0));
  EXPECT_FALSE(monitor.alert_active("overload"));
}

TEST(SloMonitor, RateBelowFiresOnWindowedDelta) {
  MetricsRegistry reg;
  Counter& failed = reg.counter("hb_failed");
  SloMonitor monitor{reg};
  SloRule rule;
  rule.name = "outage";
  rule.scope = "registry";
  rule.metric = "hb_failed";
  rule.predicate = SloPredicate::kRateBelow;
  rule.threshold = 0.5;  // Healthy under 0.5 failures/s.
  rule.window = Duration::seconds(4.0);
  monitor.add_rule(rule);

  // Quiet counter: healthy.
  for (int i = 1; i <= 4; ++i) monitor.evaluate(at(static_cast<double>(i)));
  EXPECT_FALSE(monitor.alert_active("outage"));

  // 2 failures/s over the window: breach.
  failed.inc(2);
  monitor.evaluate(at(5.0));
  EXPECT_TRUE(monitor.alert_active("outage"));

  // The burst ages out of the 4 s window: resolve.
  for (int i = 6; i <= 10; ++i) monitor.evaluate(at(static_cast<double>(i)));
  EXPECT_FALSE(monitor.alert_active("outage"));
}

TEST(SloMonitor, RateAtLeastLivenessNeedsFullWindow) {
  MetricsRegistry reg;
  Counter& beats = reg.counter("hb_ok");
  SloMonitor monitor{reg};
  SloRule rule;
  rule.name = "starved";
  rule.scope = "registry";
  rule.metric = "hb_ok";
  rule.predicate = SloPredicate::kRateAtLeast;
  rule.threshold = 0.1;
  rule.window = Duration::seconds(3.0);
  monitor.add_rule(rule);

  // Warmup: no full window of data yet, so starvation cannot be asserted.
  monitor.evaluate(at(0.0));
  monitor.evaluate(at(1.0));
  monitor.evaluate(at(2.0));
  EXPECT_FALSE(monitor.alert_active("starved"));
  // A full silent window: liveness violated.
  monitor.evaluate(at(3.0));
  monitor.evaluate(at(4.0));
  EXPECT_TRUE(monitor.alert_active("starved"));
  // Traffic resumes: resolves.
  beats.inc(10);
  monitor.evaluate(at(5.0));
  EXPECT_FALSE(monitor.alert_active("starved"));
}

TEST(SloMonitor, MissingMetricIsHealthy) {
  MetricsRegistry reg;
  SloMonitor monitor{reg};
  SloRule rule;
  rule.name = "ghost";
  rule.scope = "x";
  rule.metric = "does.not.exist";
  rule.predicate = SloPredicate::kGaugeAtLeast;
  rule.threshold = 1.0;
  monitor.add_rule(rule);
  for (int i = 0; i < 10; ++i) monitor.evaluate(at(static_cast<double>(i)));
  EXPECT_FALSE(monitor.ever_fired("ghost"));
  EXPECT_DOUBLE_EQ(monitor.health("x"), 1.0);
  EXPECT_DOUBLE_EQ(monitor.health("unknown_scope"), 1.0);
}

TEST(SloMonitor, SetMetricsRollsAlertsIntoRegistry) {
  MetricsRegistry reg;
  Gauge& up = reg.gauge("ap1.up");
  up.set(1.0);
  SloMonitor monitor{reg};
  // Self-referential wiring (the bench harness does exactly this): the
  // monitor writes slo.* / health.* back into the registry it watches.
  monitor.set_metrics(&reg);
  SloRule rule;
  rule.name = "ap1_down";
  rule.scope = "ap1";
  rule.metric = "ap1.up";
  rule.predicate = SloPredicate::kGaugeAtLeast;
  rule.threshold = 1.0;
  monitor.add_rule(rule);

  ASSERT_NE(reg.find_gauge("health.ap1"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_gauge("health.ap1")->value(), 1.0);

  up.set(0.0);
  monitor.evaluate(at(1.0));
  EXPECT_EQ(reg.find_counter("slo.alerts_fired")->value(), 1u);
  EXPECT_DOUBLE_EQ(reg.find_gauge("slo.active_alerts")->value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.find_gauge("health.ap1")->value(), 0.0);

  up.set(1.0);
  monitor.evaluate(at(2.0));
  EXPECT_EQ(reg.find_counter("slo.alerts_resolved")->value(), 1u);
  EXPECT_DOUBLE_EQ(reg.find_gauge("slo.active_alerts")->value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.find_gauge("health.ap1")->value(), 1.0);
}

TEST(SloMonitor, TransitionsEmitMarkerSpans) {
  MetricsRegistry reg;
  Gauge& up = reg.gauge("ap1.up");
  up.set(0.0);
  double now_s = 4.0;
  SpanTracer tracer{
      [&now_s] { return TimePoint{} + Duration::seconds(now_s); }};
  SloMonitor monitor{reg};
  monitor.set_tracer(&tracer);
  SloRule rule;
  rule.name = "ap1_down";
  rule.scope = "ap1";
  rule.metric = "ap1.up";
  rule.predicate = SloPredicate::kGaugeAtLeast;
  rule.threshold = 1.0;
  monitor.add_rule(rule);

  monitor.evaluate(at(4.0));
  ASSERT_EQ(tracer.spans().size(), 1u);
  EXPECT_EQ(tracer.spans()[0].name, "slo_fire");
  EXPECT_EQ(tracer.spans()[0].category, "slo");
  now_s = 5.0;
  up.set(1.0);
  monitor.evaluate(at(5.0));
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].name, "slo_resolve");
}

TEST(SloMonitor, ScopesAndRuleDescriptionsOrdered) {
  MetricsRegistry reg;
  SloMonitor monitor{reg};
  for (const char* scope : {"zebra", "alpha", "zebra"}) {
    SloRule rule;
    rule.name = std::string{scope} + "_rule";
    rule.scope = scope;
    rule.metric = "m";
    monitor.add_rule(rule);
  }
  const std::vector<std::string> scopes = monitor.scopes();
  ASSERT_EQ(scopes.size(), 2u);  // Deduplicated.
  EXPECT_EQ(scopes[0], "alpha");
  EXPECT_EQ(scopes[1], "zebra");
  // Descriptions stay in registration order (the export contract).
  const std::vector<std::string> rules = monitor.rule_descriptions();
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].rfind("zebra_rule", 0), 0u);
  EXPECT_EQ(rules[1].rfind("alpha_rule", 0), 0u);
}

}  // namespace
}  // namespace dlte::obs
