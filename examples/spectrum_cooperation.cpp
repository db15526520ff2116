// Spectrum cooperation: organic growth of a contention domain (§4.3).
//
// Three operators bring up co-channel APs over the course of a day. Each
// join is fully automated: registry grant → contention-domain query →
// hello → coordinated shares. We watch the shares rebalance as the
// domain grows, then two members opt into cooperative mode (which only
// takes effect when the whole domain agrees — coordination is consensual).
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/access_point.h"
#include "obs/metrics.h"

using namespace dlte;

namespace {
void print_shares(sim::Simulator& sim,
                  const std::vector<std::unique_ptr<core::DlteAccessPoint>>&
                      aps) {
  std::cout << "[" << std::setw(5) << sim.now().to_seconds() << "s] shares:";
  for (const auto& ap : aps) {
    std::cout << "  AP" << ap->id().value() << "="
              << std::fixed << std::setprecision(2)
              << ap->coordinator().current_share();
  }
  std::cout << "\n";
}
}  // namespace

int main() {
  sim::Simulator sim;
  net::Network net{sim};
  core::RadioEnvironment radio;
  spectrum::Registry registry{sim, spectrum::RegistryKind::kFederated};

  const NodeId internet = net.add_node("internet");
  // Each AP's X2 counters, under `ap<id>.x2.*`.
  obs::MetricsRegistry x2_metrics;
  std::vector<std::unique_ptr<core::DlteAccessPoint>> aps;

  auto join = [&](std::uint32_t id, double x, double load,
                  const char* contact) {
    const NodeId node = net.add_node("ap" + std::to_string(id));
    net.add_link(node, internet,
                 net::LinkConfig{DataRate::mbps(20.0), Duration::millis(12)});
    core::ApConfig cfg;
    cfg.id = ApId{id};
    cfg.cell = CellId{id};
    cfg.position = Position{x, 0.0};
    cfg.operator_contact = contact;
    aps.push_back(
        std::make_unique<core::DlteAccessPoint>(sim, net, node, radio, cfg));
    auto& ap = *aps.back();
    ap.coordinator().set_metrics(&x2_metrics,
                                 "ap" + std::to_string(id) + ".");
    ap.coordinator().set_offered_load(load);
    ap.bring_up(registry, [&, id](bool ok) {
      std::cout << "[" << std::setw(5) << sim.now().to_seconds() << "s] AP"
                << id << " " << (ok ? "joined" : "refused") << " — domain "
                << "members now: "
                << registry.grant_count() << " (contact: "
                << ap.grant().operator_contact << ")\n";
    });
  };

  std::cout << "Morning: the farm co-op lights up the first AP.\n";
  join(1, 0.0, 1.0, "coop@valley.example");
  sim.run_until(sim.now() + Duration::seconds(5.0));
  print_shares(sim, aps);

  std::cout << "\nNoon: the school joins, 5 km away, same band — no "
               "permission needed,\nonly the registry's protocol.\n";
  join(2, 5'000.0, 1.0, "it@school.example");
  sim.run_until(sim.now() + Duration::seconds(6.0));
  print_shares(sim, aps);

  std::cout << "\nEvening: a homestead joins with a light load (0.2).\n";
  join(3, 2'500.0, 0.2, "family@homestead.example");
  sim.run_until(sim.now() + Duration::seconds(6.0));
  print_shares(sim, aps);
  std::cout << "(max-min fair: the homestead keeps its 0.20 ask; the two "
               "busy APs split the rest)\n";

  std::cout << "\nThe co-op and school opt into cooperative mode — but the "
               "homestead hasn't,\nso the domain stays on fair sharing "
               "(cooperation requires unanimity):\n";
  aps[0]->coordinator().set_mode(lte::DlteMode::kCooperative);
  aps[1]->coordinator().set_mode(lte::DlteMode::kCooperative);
  sim.run_until(sim.now() + Duration::seconds(5.0));
  print_shares(sim, aps);

  std::cout << "\nThe homestead opts in too; shares become "
               "demand-proportional (resource fusion):\n";
  aps[2]->coordinator().set_mode(lte::DlteMode::kCooperative);
  sim.run_until(sim.now() + Duration::seconds(5.0));
  print_shares(sim, aps);

  std::cout << "\nX2 signaling spent all day by AP1: "
            << x2_metrics.counter("ap1.x2.bytes_sent").value()
            << " bytes (" << x2_metrics.counter("ap1.x2.messages_sent").value()
            << " messages) — coordination is cheap (§4.3).\n";
  return 0;
}
