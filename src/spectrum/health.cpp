#include "spectrum/health.h"

namespace dlte::spectrum {

namespace {
constexpr const char* kScope = "registry";
// Heartbeat failures (and lapses) per second a healthy registry stays
// under.
constexpr double kMaxHeartbeatFailureRate = 0.01;
}  // namespace

std::vector<obs::SloRule> default_registry_slo_rules(
    const std::string& prefix) {
  std::vector<obs::SloRule> rules;
  {
    obs::SloRule r;
    r.name = "registry_outage";
    r.scope = kScope;
    r.metric = prefix + "registry.heartbeats_failed";
    r.predicate = obs::SloPredicate::kRateBelow;
    r.threshold = kMaxHeartbeatFailureRate;
    r.window = Duration::seconds(5.0);
    r.fire_after = 2;  // One stray failure must not page.
    r.resolve_after = 2;
    rules.push_back(r);
  }
  {
    obs::SloRule r;
    r.name = "registry_grants_lapsing";
    r.scope = kScope;
    r.metric = prefix + "registry.grants_lapsed";
    r.predicate = obs::SloPredicate::kRateBelow;
    r.threshold = kMaxHeartbeatFailureRate;
    r.window = Duration::seconds(5.0);
    r.fire_after = 1;  // A lapse is already past the grace period.
    r.resolve_after = 2;
    rules.push_back(r);
  }
  return rules;
}

}  // namespace dlte::spectrum
