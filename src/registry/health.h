// SLO rule set for the registry-scale plane (DESIGN.md §16).
//
// Extends spectrum::default_registry_slo_rules with the symptoms that
// only show up under churn-storm load: grant-request failure bursts
// (blocks re-applying into a dead zone), heartbeat liveness (the
// registry must keep renewing *someone*), and cache health (stale
// serves and root sheds climbing when the hierarchy falls behind).
#pragma once

#include <string>
#include <vector>

#include "obs/slo.h"

namespace dlte::registry {

// Rules over `<prefix>registry.*` metrics (Registry::set_metrics +
// LeaseCache::set_metrics), grouped under health scope "registry":
//   * registry_churn_outage   — heartbeat-failure rate stays under
//     0.5/s (fires while a zone is dark, resolves after recovery drains
//     the window).
//   * registry_grant_failures — grant-failure rate stays under the same
//     bound (fires during the re-apply storm into an offline zone).
//   * registry_heartbeat_liveness — heartbeats_ok rate stays at least
//     0.1/s (a total-outage watchdog: zone storms leave the other zones
//     renewing, so this only fires when the whole registry stops
//     serving).
//   * registry_cache_staleness — stale-serve rate stays under 50/s
//     (fires when membership churns faster than the cache TTLs track
//     it).
std::vector<obs::SloRule> churn_slo_rules(const std::string& prefix);

}  // namespace dlte::registry
