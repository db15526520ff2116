#include "registry/health.h"

namespace dlte::registry {

namespace {
constexpr const char* kScope = "registry";
// Heartbeat and grant failures per second a healthy plane stays under.
constexpr double kMaxFailureRate = 0.5;
// Renewals per second the plane keeps up while any zone serves.
constexpr double kMinHeartbeatRate = 0.1;
// Stale cache serves per second before membership is churning too fast.
constexpr double kMaxStaleRate = 50.0;
}  // namespace

std::vector<obs::SloRule> churn_slo_rules(const std::string& prefix) {
  std::vector<obs::SloRule> rules;
  {
    obs::SloRule r;
    r.name = "registry_churn_outage";
    r.scope = kScope;
    r.metric = prefix + "registry.heartbeats_failed";
    r.predicate = obs::SloPredicate::kRateBelow;
    r.threshold = kMaxFailureRate;
    r.window = Duration::seconds(5.0);
    r.fire_after = 2;
    r.resolve_after = 2;
    rules.push_back(r);
  }
  {
    obs::SloRule r;
    r.name = "registry_grant_failures";
    r.scope = kScope;
    r.metric = prefix + "registry.grant_failures";
    r.predicate = obs::SloPredicate::kRateBelow;
    r.threshold = kMaxFailureRate;
    r.window = Duration::seconds(5.0);
    r.fire_after = 1;  // A failure burst is already a storm symptom.
    r.resolve_after = 2;
    rules.push_back(r);
  }
  {
    obs::SloRule r;
    r.name = "registry_heartbeat_liveness";
    r.scope = kScope;
    r.metric = prefix + "registry.heartbeats_ok";
    r.predicate = obs::SloPredicate::kRateAtLeast;
    r.threshold = kMinHeartbeatRate;
    r.window = Duration::seconds(5.0);
    // Startup grace: blocks take a few intervals to begin heartbeating.
    r.fire_after = 4;
    r.resolve_after = 1;
    rules.push_back(r);
  }
  {
    obs::SloRule r;
    r.name = "registry_cache_staleness";
    r.scope = kScope;
    r.metric = prefix + "registry.cache.stale_serves";
    r.predicate = obs::SloPredicate::kRateBelow;
    r.threshold = kMaxStaleRate;
    r.window = Duration::seconds(5.0);
    r.fire_after = 2;
    r.resolve_after = 2;
    rules.push_back(r);
  }
  return rules;
}

}  // namespace dlte::registry
