// AP failover walkthrough: what §4.1's "local core per AP" buys you
// when hardware dies.
//
// Two neighborhood APs share a town. Eight households camp on AP 1
// (it is closer). At t=30 s AP 1's box loses power — its local
// MME/S-GW state evaporates with it, exactly like a WiFi AP rebooting.
// Each UE's failover watchdog notices the dead cell, picks the best
// surviving AP by RSRP, and re-attaches with exponential backoff. The
// timeline below shows the injected fault, the degraded window, and the
// re-attach wave; the closing report puts numbers on it.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "fault/failover.h"
#include "fault/fault.h"
#include "fault/health.h"
#include "fault/resilience.h"
#include "obs/merge.h"
#include "obs/series.h"
#include "obs/slo.h"
#include "obs/text_file.h"
#include "obs/trace_export.h"
#include "sim/telemetry.h"
#include "ue/mobility.h"

using namespace dlte;

int main(int argc, char** argv) {
  // Optional: `--trace-out=<file>` exports the whole walkthrough —
  // attach waves, X2 rounds, the injected crash, SLO alerts — as Chrome
  // trace-event JSON for ui.perfetto.dev. Fault events land as markers
  // and as annotations on whatever procedure span they interrupt.
  // `--series-out=<file>` writes the health-monitoring time series
  // (dlte-series-v1 JSON) that tools/health_report.py renders.
  std::string trace_out;
  std::string series_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::string("--trace-out=").size());
    } else if (arg.rfind("--series-out=", 0) == 0) {
      series_out = arg.substr(std::string("--series-out=").size());
    }
  }

  // Always traced: the fault timeline below is read back from the spans.
  sim::Simulator sim;
  obs::SpanTracer tracer{[&sim] { return sim.now(); }};
  net::Network net{sim};
  net.set_tracer(&tracer);
  core::RadioEnvironment radio;
  spectrum::Registry registry{sim, spectrum::RegistryKind::kCentralizedSas};
  registry.set_tracer(&tracer);

  // Health monitoring (DESIGN.md §10): sample the metrics plane every
  // 500 ms of simulated time and judge SLO rules against it. The alert
  // timeline prints at the end; slo_fire/slo_resolve marker spans put
  // each transition on the trace next to the faults.
  obs::MetricsRegistry metrics;
  obs::TimeSeriesSampler sampler{metrics};
  obs::SloMonitor monitor{metrics};
  monitor.set_metrics(&metrics);
  monitor.set_tracer(&tracer);
  monitor.add_rules(fault::default_resilience_slo_rules(
      /*min_ues_in_service=*/8.0, "", "service"));
  for (int id = 1; id <= 2; ++id) {
    obs::SloRule up;
    up.name = "ap" + std::to_string(id) + "_down";
    up.scope = "ap" + std::to_string(id);
    up.metric = "ap" + std::to_string(id) + ".up";
    up.predicate = obs::SloPredicate::kGaugeAtLeast;
    up.threshold = 1.0;
    monitor.add_rule(up);
  }
  sim::TelemetryDriver telemetry{sim, &sampler, &monitor};
  telemetry.start();

  const NodeId internet = net.add_node("internet");

  // Two APs 3.5 km apart, both with their own core stub.
  std::vector<std::unique_ptr<core::DlteAccessPoint>> aps;
  for (std::uint32_t id = 1; id <= 2; ++id) {
    const NodeId node = net.add_node("ap" + std::to_string(id));
    net.add_link(node, internet,
                 net::LinkConfig{DataRate::mbps(50.0), Duration::millis(15)});
    core::ApConfig cfg;
    cfg.id = ApId{id};
    cfg.cell = CellId{id};
    cfg.position = Position{(id - 1) * 3'500.0, 0.0};
    cfg.seed = 40 + id;
    aps.push_back(
        std::make_unique<core::DlteAccessPoint>(sim, net, node, radio, cfg));
    aps.back()->set_span_tracer(&tracer, "ap" + std::to_string(id) + "/");
    aps.back()->set_metrics(&metrics);
    aps.back()->bring_up(registry);
  }
  sim.run_until(sim.now() + Duration::seconds(2.0));
  std::cout << "two APs up, each with a local core\n";

  // Eight households, all closer to AP 1.
  crypto::Block128 op{};
  op[0] = 0xcd;
  std::vector<std::unique_ptr<core::UeDevice>> homes;
  for (std::uint64_t h = 0; h < 8; ++h) {
    crypto::Key128 k{};
    for (std::size_t i = 0; i < 16; ++i) {
      k[i] = static_cast<std::uint8_t>(h * 13 + i);
    }
    const Imsi imsi{510990000000200ULL + h};
    const auto opc = crypto::derive_opc(k, op);
    registry.publish_subscriber(epc::PublishedKeys{imsi, k, opc});
    homes.push_back(std::make_unique<core::UeDevice>(
        ue::SimProfile{imsi, k, opc, true, "home"},
        std::make_unique<ue::StaticMobility>(
            Position{300.0 + 120.0 * static_cast<double>(h), 0.0})));
  }
  for (auto& ap : aps) ap->import_published_subscribers(registry);

  fault::ResilienceTracker tracker{sim};
  tracker.set_metrics(&metrics);
  fault::UeFailoverAgent agent{sim, radio, &tracker};
  for (auto& ap : aps) agent.add_ap(ap.get());
  for (auto& home : homes) agent.manage(*home, mac::UeTrafficConfig{});
  agent.start();
  sim.run_until(sim.now() + Duration::seconds(5.0));
  std::cout << "all " << homes.size() << " households attached; AP 1 serves "
            << aps[0]->core().gateway().session_count() << ", AP 2 serves "
            << aps[1]->core().gateway().session_count() << "\n\n";

  // The fault: AP 1 dies at t=30 s and stays dead.
  fault::FaultInjector injector{sim};
  injector.register_ap(aps[0].get());
  injector.register_ap(aps[1].get());
  injector.set_registry(&registry);
  injector.set_tracer(&tracer);
  fault::FaultPlan plan;
  fault::FaultSpec crash;
  crash.kind = fault::FaultKind::kApCrash;
  crash.at = TimePoint{} + Duration::seconds(30.0);
  crash.ap = ApId{1};  // Duration zero: permanent.
  plan.add(crash);
  injector.arm(plan);
  std::cout << "fault plan:\n" << plan.summary() << "\n";

  const TimePoint horizon = TimePoint{} + Duration::seconds(60.0);
  sim.run_until(horizon);

  std::cout << "fault timeline:\n";
  for (const auto& span : tracer.spans()) {
    if (span.name != "fault_inject" && span.name != "fault_heal") continue;
    std::cout << "  t=" << (span.start - TimePoint{}).to_seconds() << "s  ["
              << span.category << "] " << span.name;
    for (const auto& a : span.annotations) std::cout << " " << a.value;
    std::cout << "\n";
  }

  std::cout << "\nafter the crash: AP 2 now serves "
            << aps[1]->core().gateway().session_count() << " of "
            << homes.size() << " households\n";

  std::cout << "\nhealth timeline (SLO alerts):\n";
  for (const auto& event : monitor.events()) {
    std::cout << "  " << event.describe() << "\n";
  }
  std::cout << "final health scores:";
  for (const auto& scope : monitor.scopes()) {
    std::cout << "  " << scope << "=" << monitor.health(scope);
  }
  std::cout << "\n";

  auto report = tracker.report(horizon);
  report.fault_events = injector.stats().injected + injector.stats().healed;
  std::cout << "\nresilience report:\n" << report.to_string();
  std::cout << "\nno carrier NOC was paged; the town healed itself.\n";

  if (!series_out.empty()) {
    if (obs::write_text_file(
            series_out,
            obs::merged_series_json({&sampler}, "ap_failover", &monitor) +
                "\n")) {
      std::cout << "series json (" << sampler.columns_by_name().size()
                << " series) written to " << series_out
                << " — render with tools/health_report.py\n";
    } else {
      std::cerr << "failed to write series to " << series_out << "\n";
      return 1;
    }
  }

  if (!trace_out.empty()) {
    if (obs::write_text_file(
            trace_out, obs::ChromeTraceExporter::to_json(tracer) + "\n")) {
      std::cout << "span trace (" << tracer.spans().size()
                << " spans) written to " << trace_out
                << " — load it in ui.perfetto.dev\n";
    } else {
      std::cerr << "failed to write trace to " << trace_out << "\n";
      return 1;
    }
  }
  return 0;
}
