// Experiment C11 — unlicensed coexistence: dLTE and WiFi on one channel.
//
// The paper argues for a WiFi-like cellular network; C11 measures what
// happens when that network actually moves into WiFi's spectrum. A
// SharedChannel (src/coex) places WiFi DCF stations and dLTE transmitters
// on one 2.4 GHz channel with energy-derived carrier sensing, and sweeps
// the dLTE access behaviour:
//   * oblivious  — scheduled waveform, never listens (the LTE-U story);
//   * LBT        — LAA-style listen-before-talk with DCF backoff;
//   * duty-cycle — CSAT-style blind on/off split.
// across WiFi:dLTE density mixes. Headline numbers per cell: Jain
// fairness over per-transmitter airtime, per-waveform airtime shares,
// channel-access latency p50/p95 and goodput.
//
// Plus the hidden-terminal stress: two mutually-hidden WiFi BSSs with a
// dLTE AP between them — the geometry where "just listen" is weakest —
// showing LBT still leaves WiFi strictly more airtime than the oblivious
// waveform at equal density.
#include <iostream>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "coex/shared_channel.h"
#include "common/stats.h"
#include "common/table.h"
#include "phy/wifi_phy.h"

namespace {
using namespace dlte;
using coex::LteCoexPolicy;
using coex::SharedChannel;
using coex::Waveform;

coex::TransmitterSite site(double ap_x, double client_x, double client_y) {
  coex::TransmitterSite s;
  s.tx_pos = Position{ap_x, 0.0};
  s.rx_pos = Position{client_x, client_y};
  s.tx_profile = phy::DeviceProfiles::wifi_ap_outdoor();
  s.rx_profile = phy::DeviceProfiles::wifi_client();
  return s;
}

struct CellResult {
  double fairness{0.0};
  double wifi_airtime{0.0};
  double dlte_airtime{0.0};
  double wifi_p50_ms{0.0};
  double wifi_p95_ms{0.0};
  double dlte_p50_ms{0.0};
  double dlte_p95_ms{0.0};
  double wifi_mbps{0.0};
  double dlte_mbps{0.0};
};

// One dense cell: `wifi` WiFi BSSs and `lte` dLTE APs interleaved 80 m
// apart, every transmitter within carrier-sense range of every other
// (single collision domain — contention, not hidden terminals).
CellResult run_cell(int wifi, int lte, LteCoexPolicy policy,
                    dlte::bench::Harness& harness,
                    const std::string& prefix) {
  SharedChannel ch{/*seed=*/1};
  std::vector<int> wifi_ids, lte_ids;
  const int total = wifi + lte;
  int placed_lte = 0;
  for (int i = 0; i < total; ++i) {
    const double x = 80.0 * i;
    // Interleave dLTE APs through the row of WiFi BSSs.
    const bool is_lte =
        placed_lte < lte &&
        (i + 1) * lte >= (placed_lte + 1) * total;
    if (is_lte) {
      coex::LteTransmitterConfig lc;
      lc.site = site(x, x + 30.0, 50.0);
      lc.policy = policy;
      lc.cca_dbm = -82.0;  // WiFi-class energy detect (see DESIGN.md §12).
      lte_ids.push_back(ch.add_lte_transmitter(lc));
      ++placed_lte;
    } else {
      wifi_ids.push_back(ch.add_wifi_station(site(x, x + 30.0, 50.0)));
    }
  }
  ch.set_metrics(&harness.metrics(), prefix);
  ch.run(Duration::seconds(1.0));
  harness.add_sim_seconds(1.0);

  CellResult r;
  r.fairness = jain_fairness(ch.airtime_fractions());
  r.wifi_airtime = ch.airtime_share(Waveform::kWifi);
  r.dlte_airtime = ch.airtime_share(Waveform::kDlte);
  Quantiles wifi_ms, dlte_ms;
  for (int id : wifi_ids) {
    r.wifi_mbps += ch.stats(id).goodput(ch.elapsed()).to_mbps();
    wifi_ms.merge(ch.stats(id).access_latency_ms);
  }
  for (int id : lte_ids) {
    r.dlte_mbps += ch.stats(id).goodput(ch.elapsed()).to_mbps();
    dlte_ms.merge(ch.stats(id).access_latency_ms);
  }
  r.wifi_p50_ms = wifi_ms.median();
  r.wifi_p95_ms = wifi_ms.p95();
  r.dlte_p50_ms = dlte_ms.median();
  r.dlte_p95_ms = dlte_ms.p95();
  return r;
}

// Hidden-terminal stress: WiFi BSSs 1800 m apart (mutually below the
// -82 dBm CCA at the 2.6-exponent town profile), clients mid-field, and
// one dLTE AP at the midpoint that hears both sides.
CellResult run_hidden(LteCoexPolicy policy, dlte::bench::Harness& harness,
                      const std::string& prefix) {
  SharedChannel ch{/*seed=*/1};
  const int a = ch.add_wifi_station(site(0.0, 600.0, 0.0));
  const int b = ch.add_wifi_station(site(1800.0, 1200.0, 0.0));
  coex::LteTransmitterConfig lc;
  lc.site = site(900.0, 940.0, 0.0);
  lc.policy = policy;
  lc.cca_dbm = -82.0;
  const int l = ch.add_lte_transmitter(lc);
  ch.set_metrics(&harness.metrics(), prefix);
  ch.run(Duration::seconds(2.0));
  harness.add_sim_seconds(2.0);

  CellResult r;
  r.fairness = jain_fairness(ch.airtime_fractions());
  r.wifi_airtime = ch.airtime_share(Waveform::kWifi);
  r.dlte_airtime = ch.airtime_share(Waveform::kDlte);
  Quantiles wifi_ms;
  for (int id : {a, b}) {
    r.wifi_mbps += ch.stats(id).goodput(ch.elapsed()).to_mbps();
    wifi_ms.merge(ch.stats(id).access_latency_ms);
  }
  r.wifi_p50_ms = wifi_ms.median();
  r.wifi_p95_ms = wifi_ms.p95();
  r.dlte_p50_ms = ch.stats(l).access_latency_ms.median();
  r.dlte_p95_ms = ch.stats(l).access_latency_ms.p95();
  r.dlte_mbps = ch.stats(l).goodput(ch.elapsed()).to_mbps();
  return r;
}

void result_gauges(dlte::bench::Harness& harness, const std::string& slug,
                   const CellResult& r) {
  harness.gauge("c11." + slug + ".fairness", r.fairness);
  harness.gauge("c11." + slug + ".wifi_airtime", r.wifi_airtime);
  harness.gauge("c11." + slug + ".dlte_airtime", r.dlte_airtime);
  harness.gauge("c11." + slug + ".wifi_p50_ms", r.wifi_p50_ms);
  harness.gauge("c11." + slug + ".wifi_p95_ms", r.wifi_p95_ms);
  harness.gauge("c11." + slug + ".dlte_p50_ms", r.dlte_p50_ms);
  harness.gauge("c11." + slug + ".dlte_p95_ms", r.dlte_p95_ms);
  harness.gauge("c11." + slug + ".wifi_mbps", r.wifi_mbps);
  harness.gauge("c11." + slug + ".dlte_mbps", r.dlte_mbps);
}

void result_row(TextTable& t, const std::string& label,
                const CellResult& r) {
  t.row()
      .add(label)
      .num(r.fairness, 3)
      .num(r.wifi_airtime, 3)
      .num(r.dlte_airtime, 3)
      .num(r.wifi_p50_ms, 2, "ms")
      .num(r.wifi_p95_ms, 2, "ms")
      .num(r.dlte_p95_ms, 2, "ms")
      .num(r.wifi_mbps, 1, "Mb/s")
      .num(r.dlte_mbps, 1, "Mb/s");
}

constexpr const char* policy_slug(LteCoexPolicy p) {
  return p == LteCoexPolicy::kOblivious  ? "oblivious"
         : p == LteCoexPolicy::kLbt      ? "lbt"
                                         : "duty";
}

}  // namespace

int main() {
  print_bench_header(std::cout, "C11", "unlicensed coexistence",
                     "a WiFi-like cellular network must also be a tolerable "
                     "WiFi neighbour: LBT shares, duty-cycle splits, the "
                     "oblivious scheduled waveform starves the room");
  dlte::bench::Harness harness{"c11_coexistence"};

  struct Density {
    int wifi;
    int lte;
  };
  const Density densities[] = {{1, 1}, {3, 1}, {6, 2}};
  const LteCoexPolicy policies[] = {LteCoexPolicy::kOblivious,
                                    LteCoexPolicy::kLbt,
                                    LteCoexPolicy::kDutyCycle};

  for (const auto& d : densities) {
    std::cout << "\n" << d.wifi << " WiFi BSS(s) : " << d.lte
              << " dLTE AP(s), one collision domain, saturated downlink:\n";
    TextTable t{{"dLTE policy", "Jain", "WiFi air", "dLTE air", "WiFi p50",
                 "WiFi p95", "dLTE p95", "WiFi rate", "dLTE rate"}};
    for (const auto p : policies) {
      const std::string slug = "w" + std::to_string(d.wifi) + "l" +
                               std::to_string(d.lte) + "." + policy_slug(p);
      const CellResult r =
          run_cell(d.wifi, d.lte, p, harness, "c11." + slug + ".");
      result_gauges(harness, slug, r);
      result_row(t, coex::to_string(p), r);
    }
    t.print(std::cout);
  }

  std::cout << "\nHidden-terminal stress: two mutually-hidden WiFi BSSs "
               "1800 m apart, one dLTE AP\nat the midpoint hearing both "
               "(the geometry where listening is hardest):\n";
  TextTable stress{{"dLTE policy", "Jain", "WiFi air", "dLTE air",
                    "WiFi p50", "WiFi p95", "dLTE p95", "WiFi rate",
                    "dLTE rate"}};
  double wifi_air_oblivious = 0.0, wifi_air_lbt = 0.0;
  for (const auto p : policies) {
    const std::string slug = std::string{"hidden."} + policy_slug(p);
    const CellResult r = run_hidden(p, harness, "c11." + slug + ".");
    result_gauges(harness, slug, r);
    result_row(stress, coex::to_string(p), r);
    if (p == LteCoexPolicy::kOblivious) wifi_air_oblivious = r.wifi_airtime;
    if (p == LteCoexPolicy::kLbt) wifi_air_lbt = r.wifi_airtime;
  }
  stress.print(std::cout);

  const bool lbt_protects = wifi_air_lbt > wifi_air_oblivious;
  std::cout << "\nShape check: oblivious dLTE takes the whole channel "
               "(WiFi airtime -> 0, Jain -> 1/n);\nLBT restores WiFi "
               "airtime even against hidden terminals ("
            << (lbt_protects ? "holds" : "VIOLATED")
            << " here); duty-cycle\nsplits airtime blindly at its "
               "configured fraction, indifferent to WiFi load.\n";
  return harness.finish(lbt_protects ? 0 : 1);
}
