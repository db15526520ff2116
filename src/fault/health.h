// Default SLO rule set for fault experiments (DESIGN.md §10).
//
// The C8 claim is about clients: alerting keys off how many UEs are in
// service (ResilienceTracker::set_metrics), not off which boxes are up.
#pragma once

#include <string>
#include <vector>

#include "obs/slo.h"

namespace dlte::fault {

// Rules over `<prefix>resilience.*` metrics under health scope "service":
//   * service_degraded — gauge resilience.ues_in_service must stay at
//     least `min_ues_in_service` (fires while a crash strands UEs,
//     resolves when failover re-attaches them elsewhere).
std::vector<obs::SloRule> default_resilience_slo_rules(
    double min_ues_in_service, const std::string& prefix = "");

}  // namespace dlte::fault
