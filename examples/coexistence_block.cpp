// Coexistence walkthrough: one city block, one unlicensed channel.
//
// Two apartment-building WiFi BSSs and one dLTE AP land on the same
// 2.4 GHz channel. The dLTE operator tries each access behaviour in
// turn — the oblivious scheduled waveform (never listens), LAA-style
// listen-before-talk, and blind + adaptive CSAT duty-cycling — and the
// table shows who actually got the air: per-transmitter airtime shares,
// Jain fairness across the block, and each side's goodput.
//
// The closing section shows the control-plane guard: a PeerCoordinator
// refuses to switch into a coexistence mode until the spectrum registry
// reports WiFi occupants on the band (Registry::mark_band_shared), so an
// AP cannot silently drop out of X2 share rounds on a licensed carrier.
#include <iostream>
#include <string>

#include "coex/shared_channel.h"
#include "common/table.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "phy/wifi_phy.h"
#include "sim/simulator.h"
#include "spectrum/coordinator.h"
#include "spectrum/registry.h"

using namespace dlte;

namespace {

coex::TransmitterSite block_site(double ap_x, double client_x) {
  coex::TransmitterSite s;
  s.tx_pos = Position{ap_x, 0.0};
  s.rx_pos = Position{client_x, 40.0};
  s.tx_profile = phy::DeviceProfiles::wifi_ap_outdoor();
  s.rx_profile = phy::DeviceProfiles::wifi_client();
  return s;
}

struct BlockResult {
  double wifi_air{0.0};
  double dlte_air{0.0};
  double fairness{0.0};
  double wifi_mbps{0.0};
  double dlte_mbps{0.0};
};

BlockResult run_block(coex::LteCoexPolicy policy, bool adaptive) {
  coex::SharedChannel ch{/*seed=*/1};
  // Two WiFi BSSs at the ends of the block, the dLTE AP mid-block:
  // everyone within carrier-sense range of everyone.
  const int a = ch.add_wifi_station(block_site(0.0, 30.0));
  const int b = ch.add_wifi_station(block_site(120.0, 90.0));
  coex::LteTransmitterConfig lc;
  lc.site = block_site(60.0, 95.0);
  lc.policy = policy;
  lc.cca_dbm = -82.0;  // WiFi-class energy detect.
  lc.adaptive = adaptive;
  const int l = ch.add_lte_transmitter(lc);
  ch.run(Duration::seconds(2.0));

  BlockResult r;
  r.wifi_air = ch.airtime_share(coex::Waveform::kWifi);
  r.dlte_air = ch.airtime_share(coex::Waveform::kDlte);
  r.fairness = jain_fairness(ch.airtime_fractions());
  for (int id : {a, b}) {
    r.wifi_mbps += ch.stats(id).goodput(ch.elapsed()).to_mbps();
  }
  r.dlte_mbps = ch.stats(l).goodput(ch.elapsed()).to_mbps();
  return r;
}

}  // namespace

int main() {
  std::cout << "== One city block, one unlicensed channel ==\n"
            << "2 WiFi BSSs + 1 dLTE AP, all saturated, all in carrier-sense "
               "range.\n\n";

  TextTable t{{"dLTE behaviour", "WiFi airtime", "dLTE airtime", "Jain",
               "WiFi goodput", "dLTE goodput"}};
  struct Row {
    const char* name;
    coex::LteCoexPolicy policy;
    bool adaptive;
  };
  for (const auto& row :
       {Row{"oblivious (never listens)", coex::LteCoexPolicy::kOblivious,
            false},
        Row{"listen-before-talk (LAA)", coex::LteCoexPolicy::kLbt, false},
        Row{"duty-cycle 50/50 (CSAT)", coex::LteCoexPolicy::kDutyCycle,
            false},
        Row{"duty-cycle adaptive", coex::LteCoexPolicy::kDutyCycle, true}}) {
    const BlockResult r = run_block(row.policy, row.adaptive);
    t.row()
        .add(row.name)
        .num(r.wifi_air, 3)
        .num(r.dlte_air, 3)
        .num(r.fairness, 3)
        .num(r.wifi_mbps, 1, "Mb/s")
        .num(r.dlte_mbps, 1, "Mb/s");
  }
  t.print(std::cout);

  std::cout << "\nThe oblivious waveform owns the channel and the WiFi "
               "households get nothing;\nLBT contends like a (greedy) "
               "802.11 peer; duty-cycling splits the air by clock,\nand "
               "the adaptive variant backs off to what WiFi leaves "
               "unused.\n\n";

  // --- Control-plane guard: no coexistence mode without WiFi on the band.
  std::cout << "== Switching the AP's coordinator into coexistence mode ==\n";
  sim::Simulator sim;
  net::Network net{sim};
  const NodeId node = net.add_node("dlte-ap");
  spectrum::PeerCoordinator coord{
      sim, net, node,
      spectrum::CoordinatorConfig{ApId{1}, lte::DlteMode::kFairShare,
                                  Duration::seconds(1.0)}};
  obs::MetricsRegistry coord_metrics;
  coord.set_metrics(&coord_metrics);

  spectrum::Registry registry{sim, spectrum::RegistryKind::kCentralizedSas};
  const Hertz band = Hertz::ghz(2.4);

  bool ok = coord.set_mode(lte::DlteMode::kLbt);
  std::cout << "registry says " << registry.wifi_occupants(band)
            << " WiFi occupant(s) -> set_mode(kLbt) "
            << (ok ? "accepted" : "REFUSED") << " (mode_rejects="
            << coord_metrics.counter("spectrum.mode_rejects").value()
            << ")\n";

  registry.mark_band_shared(band, 2);  // Site survey found both BSSs.
  coord.set_wifi_occupants(registry.wifi_occupants(band));
  ok = coord.set_mode(lte::DlteMode::kLbt);
  std::cout << "registry says " << registry.wifi_occupants(band)
            << " WiFi occupant(s) -> set_mode(kLbt) "
            << (ok ? "accepted" : "REFUSED")
            << "; X2 share rounds stop, the on-air LBT policy arbitrates "
               "airtime instead.\n";
  return ok ? 0 : 1;
}
