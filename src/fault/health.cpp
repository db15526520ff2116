#include "fault/health.h"

namespace dlte::fault {

std::vector<obs::SloRule> default_resilience_slo_rules(
    double min_ues_in_service, const std::string& prefix) {
  std::vector<obs::SloRule> rules;
  obs::SloRule r;
  r.name = "service_degraded";
  r.scope = "service";
  r.metric = prefix + "resilience.ues_in_service";
  r.predicate = obs::SloPredicate::kGaugeAtLeast;
  r.threshold = min_ues_in_service;
  r.fire_after = 2;  // Let failover race one evaluation before paging.
  r.resolve_after = 1;
  rules.push_back(r);
  return rules;
}

}  // namespace dlte::fault
