// Rural deployment: the §5 Papua scenario.
//
// One band-5 site on the town gym (power + backhaul available), two
// sectors, 15 dBi antennas, permissive secondary-use license; data-only
// service with voice/messaging as OTT applications. Households are
// scattered over the town; we attach them all, run a realistic evening
// traffic mix, and report the per-household experience plus what the
// deployment did NOT need: no carrier, no remote EPC, no billing system.
#include <iostream>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "core/access_point.h"
#include "ue/mobility.h"

using namespace dlte;

int main() {
  sim::Simulator sim;
  net::Network net{sim};
  core::RadioEnvironment radio;
  spectrum::Registry registry{sim, spectrum::RegistryKind::kCentralizedSas};

  const NodeId internet = net.add_node("vsat-backhaul");
  const NodeId gym = net.add_node("gym-site");
  // Rural satellite/long-haul backhaul: modest rate, high latency.
  net.add_link(gym, internet,
               net::LinkConfig{DataRate::mbps(30.0), Duration::millis(40)});

  core::ApConfig cfg;
  cfg.id = ApId{1};
  cfg.cell = CellId{1};
  cfg.position = Position{0.0, 0.0};
  cfg.operator_contact = "school@obanggen.example";
  core::DlteAccessPoint ap{sim, net, gym, radio, cfg};
  bool granted = false;
  ap.bring_up(registry, [&](bool ok) { granted = ok; });
  sim.run_until(sim.now() + Duration::seconds(1.0));
  std::cout << "site up on the gym, grant="
            << (granted ? "secondary-use band 5" : "NONE") << "\n\n";

  // Twelve households across the town (0.3–6 km from the gym).
  crypto::Block128 op{};
  op[0] = 0xcd;
  std::vector<std::unique_ptr<core::UeDevice>> homes;
  sim::RngStream placement{2026};
  for (std::uint64_t h = 0; h < 12; ++h) {
    crypto::Key128 k{};
    for (std::size_t i = 0; i < 16; ++i) {
      k[i] = static_cast<std::uint8_t>(h * 11 + i);
    }
    const Imsi imsi{510990000000100ULL + h};
    const crypto::Block128 opc = crypto::derive_opc(k, op);
    registry.publish_subscriber(epc::PublishedKeys{imsi, k, opc});
    const double angle = placement.uniform(0.0, 6.283);
    const double dist = 300.0 + placement.uniform(0.0, 5'700.0);
    homes.push_back(std::make_unique<core::UeDevice>(
        ue::SimProfile{imsi, k, opc, true, "home"},
        std::make_unique<ue::StaticMobility>(Position{
            dist * std::cos(angle), dist * std::sin(angle)})));
  }
  ap.import_published_subscribers(registry);

  // Evening mix: four streamers (2 Mb/s video), the rest messaging-grade.
  int attached = 0;
  Quantiles attach_times;
  for (std::size_t h = 0; h < homes.size(); ++h) {
    const bool heavy = h % 3 == 0;
    ap.attach(*homes[h],
              mac::UeTrafficConfig{
                  .offered = heavy ? DataRate::mbps(2.0)
                                   : DataRate::kbps(96.0)},
              [&](core::AttachOutcome o) {
                if (o.success) {
                  ++attached;
                  attach_times.add(o.elapsed.to_millis());
                }
              });
  }
  sim.run_until(sim.now() + Duration::seconds(2.0));
  std::cout << attached << "/12 households attached (median "
            << attach_times.median() << " ms, all served by the on-site "
            << "core stub)\n";

  ap.cell_mac().run(Duration::seconds(10.0));

  std::cout << "\nper-household downlink over a 10 s busy period:\n";
  Quantiles rates;
  std::size_t idx = 0;
  for (UeId id : ap.cell_mac().ue_ids()) {
    const auto& st = ap.cell_mac().stats(id);
    const double got = st.goodput(ap.cell_mac().elapsed()).to_kbps();
    const double dist =
        radio.cell_distance_m(CellId{1}, homes[idx]->position());
    const bool heavy = idx % 3 == 0;
    std::cout << "  home-" << idx << "  " << dist / 1000.0 << " km  "
              << (heavy ? "video    " : "messaging") << "  offered "
              << (heavy ? 2000.0 : 96.0) << " kb/s, delivered " << got
              << " kb/s\n";
    rates.add(got);
    ++idx;
  }
  std::cout << "\ncell served all offered load: median " << rates.median()
            << " kb/s, min " << rates.quantile(0.0) << " kb/s\n";
  std::cout << "what this deployment did not need: a carrier contract, a "
               "remote EPC site,\nSIM provisioning through an operator, or "
               "a billing system (bills subscribers: "
            << (ap.core().bills_subscribers() ? "yes" : "no") << ").\n";
  return 0;
}
