// Satellite of DESIGN.md §10: the exported telemetry artifacts — series
// JSON and OpenMetrics text — must be byte-identical across same-seed
// runs of a faulted scenario. CI re-proves this on the full C8 bench
// with cmp; this test keeps the property cheap to check in tier 1.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fault/failover.h"
#include "fault/fault.h"
#include "fault/health.h"
#include "fault/resilience.h"
#include "obs/merge.h"
#include "obs/openmetrics.h"
#include "sim/telemetry.h"
#include "spectrum/health.h"
#include "ue/mobility.h"

namespace dlte::fault {
namespace {

struct Artifacts {
  std::string series_json;
  std::string openmetrics;
  std::string alert_timeline;
};

// A compressed C8: two APs, four UEs camped on AP 1, a registry outage
// at t=5 s and an AP 1 crash at t=15 s, fully metered and monitored.
Artifacts run_once(std::uint64_t seed) {
  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  sim.set_metrics(&metrics);
  net::Network net{sim};
  net.set_metrics(&metrics);
  net.set_impairment_seed(seed);
  core::RadioEnvironment radio;
  spectrum::Registry registry{sim, spectrum::RegistryKind::kCentralizedSas};
  registry.set_metrics(&metrics);
  registry.set_grant_lifetime(Duration::seconds(6.0));
  registry.set_heartbeat_grace(Duration::seconds(12.0));

  obs::TimeSeriesSampler sampler{metrics};
  obs::SloMonitor monitor{metrics};
  monitor.set_metrics(&metrics);
  monitor.add_rules(spectrum::default_registry_slo_rules());
  monitor.add_rules(default_resilience_slo_rules(/*min_ues_in_service=*/4.0));
  sim::TelemetryDriver telemetry{sim, &sampler, &monitor};
  telemetry.start();

  const NodeId internet = net.add_node("internet");
  std::vector<std::unique_ptr<core::DlteAccessPoint>> aps;
  for (std::uint32_t id = 1; id <= 2; ++id) {
    const NodeId node = net.add_node("ap" + std::to_string(id));
    net.add_link(node, internet,
                 net::LinkConfig{DataRate::mbps(50.0), Duration::millis(15)});
    core::ApConfig cfg;
    cfg.id = ApId{id};
    cfg.cell = CellId{id};
    cfg.position = Position{(id - 1) * 4'000.0, 0.0};
    cfg.seed = seed + id;
    aps.push_back(
        std::make_unique<core::DlteAccessPoint>(sim, net, node, radio, cfg));
    aps.back()->bring_up(registry);
    aps.back()->core().set_metrics(&metrics);
    aps.back()->set_metrics(&metrics);
  }
  sim.run_until(TimePoint{} + Duration::seconds(1.0));

  crypto::Block128 op{};
  op[0] = 0xcd;
  std::vector<std::unique_ptr<core::UeDevice>> ues;
  for (std::uint64_t u = 0; u < 4; ++u) {
    crypto::Key128 k{};
    for (std::size_t i = 0; i < 16; ++i) {
      k[i] = static_cast<std::uint8_t>(u * 7 + i);
    }
    const Imsi imsi{730010000000100ULL + u};
    const auto opc = crypto::derive_opc(k, op);
    registry.publish_subscriber(epc::PublishedKeys{imsi, k, opc});
    ues.push_back(std::make_unique<core::UeDevice>(
        ue::SimProfile{imsi, k, opc, true, "town"},
        std::make_unique<ue::StaticMobility>(
            Position{400.0 + 90.0 * static_cast<double>(u), 0.0})));
  }
  for (auto& ap : aps) ap->import_published_subscribers(registry);

  ResilienceTracker tracker{sim};
  tracker.set_metrics(&metrics);
  UeFailoverAgent agent{sim, radio, &tracker};
  for (auto& ap : aps) agent.add_ap(ap.get());
  for (auto& ue : ues) agent.manage(*ue, mac::UeTrafficConfig{});
  agent.start();

  FaultInjector injector{sim};
  injector.set_metrics(&metrics);
  for (auto& ap : aps) injector.register_ap(ap.get());
  injector.set_network(&net);
  injector.set_registry(&registry);
  FaultPlan plan;
  FaultSpec outage;
  outage.kind = FaultKind::kRegistryOutage;
  outage.at = TimePoint{} + Duration::seconds(5.0);
  outage.duration = Duration::seconds(6.0);
  outage.outage = spectrum::RegistryOutage::kOffline;
  plan.add(outage);
  FaultSpec crash;
  crash.kind = FaultKind::kApCrash;
  crash.at = TimePoint{} + Duration::seconds(15.0);
  crash.duration = Duration::seconds(10.0);
  crash.ap = ApId{1};
  plan.add(crash);
  injector.arm(plan);

  sim.run_until(TimePoint{} + Duration::seconds(35.0));

  Artifacts out;
  out.series_json =
      obs::merged_series_json({&sampler}, "telemetry_determinism", &monitor);
  out.openmetrics = obs::OpenMetricsExporter::render(metrics);
  for (const auto& event : monitor.events()) {
    out.alert_timeline += event.describe() + "\n";
  }
  return out;
}

TEST(TelemetryDeterminism, SameSeedYieldsByteIdenticalArtifacts) {
  const Artifacts first = run_once(2018);
  const Artifacts second = run_once(2018);
  EXPECT_EQ(first.series_json, second.series_json);
  EXPECT_EQ(first.openmetrics, second.openmetrics);
  EXPECT_EQ(first.alert_timeline, second.alert_timeline);

  // The scenario is not vacuous: the registry outage shows up as failed
  // heartbeats and fires the registry_outage alert.
  EXPECT_NE(first.alert_timeline.find("FIRE registry_outage"),
            std::string::npos);
  EXPECT_NE(first.series_json.find("registry.heartbeats_failed"),
            std::string::npos);
  EXPECT_NE(first.openmetrics.find("registry_heartbeats_failed_total"),
            std::string::npos);
}

TEST(TelemetryDeterminism, DifferentSeedStillProducesValidArtifacts) {
  const Artifacts other = run_once(77);
  EXPECT_NE(other.series_json.find("\"schema\":\"dlte-series-v1\""),
            std::string::npos);
  EXPECT_EQ(other.openmetrics.substr(other.openmetrics.size() - 6), "# EOF\n");
}

}  // namespace
}  // namespace dlte::fault
