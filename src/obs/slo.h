// SLO health monitoring: declarative rules over the live metrics plane
// (DESIGN.md §10).
//
// An SloRule names the *healthy* condition for one metric — "windowed
// p95 of epc.attach_latency_ms stays under 250 ms", "the rate of
// registry.heartbeats_failed stays under 0.01/s", "gauge ap1.up is at
// least 1" — plus how many consecutive evaluations must breach before
// the alert fires (and pass before it resolves), Prometheus-`for`
// style, so one noisy tick does not page.
//
// The monitor is evaluated at a fixed simulated cadence (the same
// recurring event that drives the TimeSeriesSampler — see
// sim::TelemetryDriver). Windowed predicates are computed from bucket
// subtraction of Histogram copies / counter deltas the monitor keeps
// itself, so a rule sees only the traffic inside its window.
//
// Fire/resolve transitions are recorded as structured SloAlertEvents
// (exported into the series JSON), emitted as zero-duration
// "slo_fire"/"slo_resolve" marker spans when a tracer is attached, and
// rolled into the registry as `slo.*` counters plus a per-scope
// `health.<scope>` gauge in [0,1] (1 = every rule in the scope
// healthy) — which the sampler then turns into a health time-series
// for free. Everything derives from simulated time: same-seed runs
// produce byte-identical alert timelines.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace dlte::obs {

// The healthy condition a rule asserts. Alerts fire on violation.
enum class SloPredicate {
  kQuantileBelow,  // windowed histogram quantile(q) < threshold
  kRateBelow,      // counter delta/sec over the window < threshold
  kRateAtLeast,    // counter delta/sec over the window >= threshold
                   // (liveness: "heartbeats must keep flowing")
  kGaugeAtLeast,   // gauge value >= threshold
  kGaugeAtMost,    // gauge value <= threshold
};

[[nodiscard]] const char* slo_predicate_name(SloPredicate predicate);

struct SloRule {
  std::string name;    // Alert name, e.g. "registry_outage".
  std::string scope;   // Health-score grouping, e.g. "ap1", "registry".
  std::string metric;  // Registry metric the predicate reads.
  SloPredicate predicate{SloPredicate::kGaugeAtMost};
  double threshold{0.0};
  double quantile{0.95};                    // kQuantileBelow only.
  Duration window{Duration::seconds(5.0)};  // Windowed predicates only.
  int fire_after{1};     // Consecutive breaching evaluations to fire.
  int resolve_after{1};  // Consecutive healthy evaluations to resolve.

  // One deterministic line, e.g.
  // "attach_p95 [core]: quantile_below(epc.attach_latency_ms p95) < 250".
  [[nodiscard]] std::string describe() const;
};

struct SloAlertEvent {
  double t_s{0.0};
  bool fire{true};  // false = resolve.
  std::string rule;
  std::string scope;
  std::string metric;
  double value{0.0};  // Observed value at the transition.
  double threshold{0.0};

  // "t=10.5s FIRE registry_outage [registry] ... value=0.5 threshold=0.01"
  // — byte-stable (JsonWriter double formatting), used by the examples'
  // printed timelines.
  [[nodiscard]] std::string describe() const;
};

class SloMonitor {
 public:
  explicit SloMonitor(const MetricsRegistry& registry)
      : registry_(registry) {}
  SloMonitor(const SloMonitor&) = delete;
  SloMonitor& operator=(const SloMonitor&) = delete;

  void add_rule(SloRule rule);
  void add_rules(const std::vector<SloRule>& rules);
  [[nodiscard]] std::size_t rule_count() const { return rules_.size(); }
  // describe() of every rule, in registration order (series JSON export).
  [[nodiscard]] std::vector<std::string> rule_descriptions() const;

  // Evaluate every rule at simulated time `now`. Rules whose metric does
  // not exist yet (or whose window has no data) count as healthy.
  void evaluate(TimePoint now);

  [[nodiscard]] const std::vector<SloAlertEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t active_alerts() const;
  [[nodiscard]] bool alert_active(const std::string& rule) const;
  [[nodiscard]] bool ever_fired(const std::string& rule) const;
  // 1 - active/total over the scope's rules; 1.0 for unknown scopes.
  [[nodiscard]] double health(const std::string& scope) const;
  [[nodiscard]] std::vector<std::string> scopes() const;

  // Roll alert state into a registry (may be the monitored one):
  // `<prefix>slo.alerts_fired` / `<prefix>slo.alerts_resolved` counters,
  // `<prefix>slo.active_alerts` gauge, and a `<prefix>health.<scope>`
  // gauge per scope (initialized to 1.0 so the series starts healthy).
  void set_metrics(MetricsRegistry* registry, const std::string& prefix = "");

  // Emit fire/resolve transitions as zero-duration marker spans
  // ("slo_fire"/"slo_resolve", category `<prefix>slo`) annotated with
  // rule/scope/value, and annotate whatever procedure span is currently
  // active — the Dapper-side view of the alert timeline. Null-safe.
  void set_tracer(SpanTracer* tracer, const std::string& prefix = "");

 private:
  struct RuleState {
    SloRule rule;
    bool active{false};
    bool ever_fired{false};
    int bad_streak{0};
    int good_streak{0};
    // Windowed state: counter samples (t_s, cumulative value) and
    // histogram copies for bucket-diff quantiles.
    std::deque<std::pair<double, std::uint64_t>> counter_window;
    std::deque<std::pair<double, Histogram>> histogram_window;
  };

  // Evaluates the predicate; writes the observed value through `value`.
  // Returns true when healthy (or when there is not yet enough data).
  [[nodiscard]] bool healthy(RuleState& state, double t_s, double* value);
  void transition(RuleState& state, double t_s, bool fire, double value);
  void update_health_gauges();

  const MetricsRegistry& registry_;
  std::vector<RuleState> rules_;
  std::vector<SloAlertEvent> events_;
  bool started_{false};
  double start_t_s_{0.0};  // First evaluation time (liveness warmup).

  MetricsRegistry* out_{nullptr};
  std::string out_prefix_;
  Counter* m_fired_{nullptr};
  Counter* m_resolved_{nullptr};
  Gauge* m_active_{nullptr};
  SpanTracer* tracer_{nullptr};
  std::string span_cat_{"slo"};
};

}  // namespace dlte::obs
