// Default SLO rule set for the spectrum registry (DESIGN.md §10).
//
// The rules watch the *symptoms* the registry's clients experience —
// failed heartbeats, lapsed grants — not the fault injector's intent,
// so a real outage and an injected one look identical to the monitor.
#pragma once

#include <string>
#include <vector>

#include "obs/slo.h"

namespace dlte::spectrum {

// Rules over `<prefix>registry.*` metrics (see Registry::set_metrics),
// grouped under health scope "registry":
//   * registry_outage  — heartbeat-failure rate must stay under 0.01/s
//     over a 5 s window (fires within two evaluations of an offline
//     registry, resolves once failures drain out of the window after
//     heal).
//   * registry_grants_lapsing — lapse rate stays under the same bound:
//     leases only lapse when renewals stopped for longer than the grace.
std::vector<obs::SloRule> default_registry_slo_rules(
    const std::string& prefix = "");

}  // namespace dlte::spectrum
