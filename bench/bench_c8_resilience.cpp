// Experiment C8 — §4.1/§6: "the failure of one AP's core affects only
// that AP" — resilience under core failure.
//
// A two-AP town with 12 UEs camped on AP 1. At t=30 s a fault plan
// crashes AP 1's local core for 30 s (volatile MME/S-GW state lost, cell
// off the air). Under dLTE the UEs' failover agents re-attach to AP 2
// within seconds and service continues; the report shows the measured
// MTTR and an eventual attach rate of 1. The centralized foil runs the
// same town where both cells hang off ONE shared core: the same fault
// takes the whole region dark — zero UEs in service mid-outage.
//
// The run is fully deterministic: the same seed yields byte-identical
// ResilienceReports, which this binary verifies by running the dLTE
// scenario twice.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/table.h"
#include "fault/failover.h"
#include "fault/fault.h"
#include "fault/health.h"
#include "fault/resilience.h"
#include "sim/telemetry.h"
#include "spectrum/health.h"
#include "ue/mobility.h"

namespace {
using namespace dlte;

constexpr int kUes = 12;
constexpr double kHorizonS = 90.0;
constexpr double kCrashAtS = 30.0;
constexpr double kCrashDurationS = 30.0;
constexpr double kMidOutageProbeS = 45.0;
// A registry outage well before the crash: heartbeats fail for 8 s, the
// APs ride it out in degraded-power mode (grace 12 s > outage), and the
// registry_outage SLO alert fires and resolves on the health timeline.
constexpr double kRegistryOutageAtS = 10.0;
constexpr double kRegistryOutageDurationS = 8.0;
constexpr double kLeaseLifetimeS = 6.0;  // Heartbeats every 2 s.
constexpr double kLeaseGraceS = 12.0;

struct RunResult {
  fault::ResilienceReport report;
  std::string report_text;
  int in_service_mid_outage{0};
};

// One town, two cells 4 km apart, every UE parked near AP 1. With
// `shared_core` the fault plan models a centralized deployment: both
// cells depend on the same core site, so the crash takes both down.
// `reg` may be null (the determinism replay runs without metrics so the
// main run's counters are not double-counted). With `sampler`/`monitor`
// a TelemetryDriver ticks the §10 telemetry plane on this run's clock —
// ticks only read metrics, so the replay (which runs without them) must
// still reproduce the report byte for byte.
RunResult run_town(std::uint64_t seed, bool shared_core,
                   obs::MetricsRegistry* reg = nullptr,
                   const std::string& metrics_prefix = "",
                   obs::TimeSeriesSampler* sampler = nullptr,
                   obs::SloMonitor* monitor = nullptr) {
  sim::Simulator sim;
  sim.set_metrics(reg, metrics_prefix);
  net::Network net{sim};
  net.set_metrics(reg, metrics_prefix);
  net.set_impairment_seed(seed);
  core::RadioEnvironment radio;
  spectrum::Registry registry{sim, spectrum::RegistryKind::kCentralizedSas};
  registry.set_metrics(reg, metrics_prefix);
  // CBRS-style leases: a dead AP's grant lapses instead of haunting the
  // contention domain, and heartbeat failures give the SLO monitor a
  // client-side symptom of registry outages.
  registry.set_grant_lifetime(Duration::seconds(kLeaseLifetimeS));
  registry.set_heartbeat_grace(Duration::seconds(kLeaseGraceS));
  sim::TelemetryDriver telemetry{sim, sampler, monitor};
  if (sampler != nullptr || monitor != nullptr) telemetry.start();
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
    // Both APs aggregate into one set of town-wide EPC/X2 counters.
    aps.back()->core().set_metrics(reg, metrics_prefix);
    aps.back()->coordinator().set_metrics(reg, metrics_prefix);
    // Per-box health gauges (ap<id>.up / lease state) stay separate.
    aps.back()->set_metrics(reg, metrics_prefix);
  }
  sim.run_until(TimePoint{} + Duration::seconds(2.0));

  crypto::Block128 op{};
  op[0] = 0xcd;
  std::vector<std::unique_ptr<core::UeDevice>> ues;
  for (std::uint64_t u = 0; u < kUes; ++u) {
    crypto::Key128 k{};
    for (std::size_t i = 0; i < 16; ++i) {
      k[i] = static_cast<std::uint8_t>(u * 7 + i);
    }
    const Imsi imsi{730010000000000ULL + u};
    const auto opc = crypto::derive_opc(k, op);
    registry.publish_subscriber(epc::PublishedKeys{imsi, k, opc});
    ues.push_back(std::make_unique<core::UeDevice>(
        ue::SimProfile{imsi, k, opc, true, "town"},
        std::make_unique<ue::StaticMobility>(
            Position{400.0 + 90.0 * static_cast<double>(u), 0.0})));
  }
  for (auto& ap : aps) ap->import_published_subscribers(registry);

  fault::ResilienceTracker tracker{sim};
  tracker.set_metrics(reg, metrics_prefix);
  fault::UeFailoverAgent agent{sim, radio, &tracker};
  for (auto& ap : aps) agent.add_ap(ap.get());
  for (auto& ue : ues) agent.manage(*ue, mac::UeTrafficConfig{});
  agent.start();

  fault::FaultInjector injector{sim};
  injector.set_metrics(reg, metrics_prefix);
  for (auto& ap : aps) injector.register_ap(ap.get());
  injector.set_network(&net);
  injector.set_registry(&registry);

  fault::FaultPlan plan;
  // Registry outage first (both architectures — A/B stays fair): shorter
  // than the heartbeat grace, so the APs degrade power but keep serving.
  fault::FaultSpec outage;
  outage.kind = fault::FaultKind::kRegistryOutage;
  outage.at = TimePoint{} + Duration::seconds(kRegistryOutageAtS);
  outage.duration = Duration::seconds(kRegistryOutageDurationS);
  outage.outage = spectrum::RegistryOutage::kOffline;
  plan.add(outage);
  fault::FaultSpec crash;
  crash.kind = fault::FaultKind::kApCrash;
  crash.at = TimePoint{} + Duration::seconds(kCrashAtS);
  crash.duration = Duration::seconds(kCrashDurationS);
  crash.ap = ApId{1};
  plan.add(crash);
  if (shared_core) {
    // Centralized: AP 2's cell has no core of its own — the same site
    // failure takes it dark for the same window.
    fault::FaultSpec twin = crash;
    twin.ap = ApId{2};
    plan.add(twin);
  }
  injector.arm(plan);

  RunResult result;
  sim.schedule_at(TimePoint{} + Duration::seconds(kMidOutageProbeS), [&] {
    for (auto& ue : ues) {
      if (ue->attached() && tracker.in_service(ue->imsi())) {
        ++result.in_service_mid_outage;
      }
    }
  });

  const TimePoint horizon = TimePoint{} + Duration::seconds(kHorizonS);
  sim.run_until(horizon);

  result.report = tracker.report(horizon);
  result.report.fault_events =
      injector.stats().injected + injector.stats().healed;
  result.report_text = result.report.to_string();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  print_bench_header(
      std::cout, "C8", "paper §4.1/§6, Local Cores",
      "an AP core failure is contained: UEs fail over to a neighbor in "
      "seconds, while a centralized core is a region-wide single point of "
      "failure");
  dlte::bench::Harness harness{"c8_resilience"};
  harness.parse_args(argc, argv);
  if (harness.slo() != nullptr) {
    // SLO coverage for the metered dLTE run: registry symptoms, service
    // (client-side) health, and one up/down rule per box.
    harness.slo()->add_rules(
        spectrum::default_registry_slo_rules("c8.dlte.", "registry"));
    harness.slo()->add_rules(fault::default_resilience_slo_rules(
        kUes, "c8.dlte.", "service"));
    for (int ap = 1; ap <= 2; ++ap) {
      obs::SloRule up;
      up.name = "ap" + std::to_string(ap) + "_down";
      up.scope = "ap" + std::to_string(ap);
      up.metric = "c8.dlte.ap" + std::to_string(ap) + ".up";
      up.predicate = obs::SloPredicate::kGaugeAtLeast;
      up.threshold = 1.0;
      harness.slo()->add_rule(up);
    }
  }

  const std::uint64_t seed = 2018;
  const RunResult dlte =
      run_town(seed, /*shared_core=*/false, &harness.metrics(), "c8.dlte.",
               harness.sampler(), harness.slo());
  const RunResult central =
      run_town(seed, /*shared_core=*/true, &harness.metrics(), "c8.central.");
  harness.add_sim_seconds(2 * kHorizonS);
  harness.gauge("c8.dlte.availability", dlte.report.availability);
  harness.gauge("c8.dlte.mttr_s", dlte.report.mttr_s);
  harness.gauge("c8.dlte.reattach_p95_s", dlte.report.reattach_p95_s);
  harness.gauge("c8.dlte.eventual_attach_rate",
                dlte.report.eventual_attach_rate);
  harness.gauge("c8.dlte.in_service_mid_outage", dlte.in_service_mid_outage);
  harness.gauge("c8.central.availability", central.report.availability);
  harness.gauge("c8.central.in_service_mid_outage",
                central.in_service_mid_outage);

  TextTable t{{"architecture", "ues", "avail", "mttr", "reattach-p95",
               "eventual-attach", "in-service@t=45s"}};
  t.row()
      .add("dLTE (per-AP core)")
      .integer(static_cast<long long>(dlte.report.ues))
      .num(dlte.report.availability, 3)
      .num(dlte.report.mttr_s, 2, " s")
      .num(dlte.report.reattach_p95_s, 2, " s")
      .num(dlte.report.eventual_attach_rate * 100.0, 1, " %")
      .integer(dlte.in_service_mid_outage);
  t.row()
      .add("centralized core")
      .integer(static_cast<long long>(central.report.ues))
      .num(central.report.availability, 3)
      .num(central.report.mttr_s, 2, " s")
      .num(central.report.reattach_p95_s, 2, " s")
      .num(central.report.eventual_attach_rate * 100.0, 1, " %")
      .integer(central.in_service_mid_outage);
  t.print(std::cout);

  std::cout << "\ndLTE resilience report:\n" << dlte.report_text;

  // Determinism gate: the same seed must reproduce the report byte for
  // byte (the property the fault subsystem is built around).
  const RunResult replay = run_town(seed, /*shared_core=*/false);
  const bool deterministic = replay.report_text == dlte.report_text;
  std::cout << "\nsame-seed replay byte-identical: "
            << (deterministic ? "yes" : "NO — DETERMINISM BROKEN") << "\n";

  const bool contained = dlte.in_service_mid_outage > 0 &&
                         central.in_service_mid_outage == 0 &&
                         dlte.report.eventual_attach_rate >= 0.99;
  std::cout << "shape check: "
            << (contained && deterministic
                    ? "PASS — failure contained to one AP, neighbor absorbed "
                      "the re-attach storm"
                    : "FAIL — expected dLTE to keep serving mid-outage and "
                      "the centralized town to go dark")
            << "\n";
  return harness.finish(contained && deterministic ? 0 : 1);
}
