#include "coex/shared_channel.h"

#include <gtest/gtest.h>

#include <optional>

#include "obs/metrics.h"
#include "phy/wifi_phy.h"

namespace dlte::coex {
namespace {

TransmitterSite ap_site(double ap_x, double client_x) {
  TransmitterSite s;
  s.tx_pos = Position{ap_x, 0.0};
  s.rx_pos = Position{client_x, 0.0};
  s.tx_profile = phy::DeviceProfiles::wifi_ap_outdoor();
  s.rx_profile = phy::DeviceProfiles::wifi_client();
  return s;
}

// Two WiFi BSSs close enough to sense each other, plus one dLTE AP in the
// middle — the benign (non-hidden) coexistence cell.
struct DenseCell {
  SharedChannel ch{/*seed=*/1};
  int a{-1}, b{-1}, l{-1};

  explicit DenseCell(LteCoexPolicy policy, double lte_cca = -82.0,
                     bool with_lte = true) {
    a = ch.add_wifi_station(ap_site(0.0, 40.0));
    b = ch.add_wifi_station(ap_site(100.0, 60.0));
    if (with_lte) {
      LteTransmitterConfig lc;
      lc.site = ap_site(50.0, 80.0);
      lc.policy = policy;
      lc.cca_dbm = lte_cca;
      l = ch.add_lte_transmitter(lc);
    }
  }
};

// 1800 m between the WiFi APs: below the -82 dBm CCA at the 2.6-exponent
// town profile, so the pair is mutually hidden; the dLTE AP at the
// midpoint (900 m from each) hears both at ≈ -75 dBm.
struct HiddenCell {
  SharedChannel ch{/*seed=*/1};
  int a{-1}, b{-1}, l{-1};

  explicit HiddenCell(LteCoexPolicy policy, double lte_cca = -82.0) {
    a = ch.add_wifi_station(ap_site(0.0, 600.0));
    b = ch.add_wifi_station(ap_site(1800.0, 1200.0));
    LteTransmitterConfig lc;
    lc.site = ap_site(900.0, 940.0);
    lc.policy = policy;
    lc.cca_dbm = lte_cca;
    l = ch.add_lte_transmitter(lc);
  }
};

// --- Medium model ---------------------------------------------------------

// Slots a saturated transmitter at `listener` defers behind an always-on
// (oblivious) dLTE AP at `tx`: nonzero exactly when its CCA flags that
// AP's energy. The listener is a dLTE LBT transmitter with energy-detect
// threshold `lte_cca_dbm`, or a WiFi station when that is empty.
std::int64_t defer_behind(const TransmitterSite& listener,
                          std::optional<double> lte_cca_dbm,
                          const TransmitterSite& tx) {
  SharedChannel ch{/*seed=*/1};
  int index = -1;
  if (lte_cca_dbm) {
    LteTransmitterConfig lc;
    lc.site = listener;
    lc.policy = LteCoexPolicy::kLbt;
    lc.cca_dbm = *lte_cca_dbm;
    index = ch.add_lte_transmitter(lc);
  } else {
    index = ch.add_wifi_station(listener);
  }
  LteTransmitterConfig always_on;
  always_on.site = tx;
  always_on.policy = LteCoexPolicy::kOblivious;
  ch.add_lte_transmitter(always_on);
  ch.run(Duration::millis(100));
  return ch.stats(index).defer_slots;
}

TEST(SharedChannel, SensingFollowsGeometry) {
  // HiddenCell's geometry: the WiFi APs 1800 m apart are mutually
  // hidden…
  EXPECT_EQ(defer_behind(ap_site(0.0, 600.0), std::nullopt,
                         ap_site(1800.0, 1200.0)),
            0);
  // …but a WiFi AP hears the midpoint dLTE AP, and (at -82 dBm energy
  // detect) the dLTE AP hears it.
  EXPECT_GT(defer_behind(ap_site(0.0, 600.0), std::nullopt,
                         ap_site(900.0, 940.0)),
            0);
  EXPECT_GT(defer_behind(ap_site(900.0, 940.0), -82.0, ap_site(0.0, 600.0)),
            0);
}

TEST(SharedChannel, LaaDefaultCcaIsDeafWhereWifiStillHears) {
  // Same geometry, LAA's -72 dBm energy-detect default: the dLTE AP no
  // longer hears the WiFi AP 900 m away (≈ -75 dBm), although a WiFi
  // radio at the same spot would. This asymmetry is why the LAA
  // threshold debate existed.
  EXPECT_EQ(defer_behind(ap_site(900.0, 940.0), -72.0, ap_site(0.0, 600.0)),
            0);
  EXPECT_GT(defer_behind(ap_site(900.0, 940.0), std::nullopt,
                         ap_site(0.0, 600.0)),
            0);
}

TEST(SharedChannel, WifiOnlyPairSharesCleanly) {
  DenseCell cell{LteCoexPolicy::kLbt, -82.0, /*with_lte=*/false};
  cell.ch.run(Duration::seconds(1.0));
  // Mutually-sensing saturated stations: high utilisation, near-equal
  // split, perfect fairness within tolerance.
  EXPECT_GT(cell.ch.airtime_share(Waveform::kWifi), 0.85);
  EXPECT_DOUBLE_EQ(cell.ch.airtime_share(Waveform::kDlte), 0.0);
  EXPECT_GT(jain_fairness(cell.ch.airtime_fractions()), 0.95);
}

TEST(SharedChannel, HiddenWifiPairCollidesAtTheirReceivers) {
  SharedChannel ch{/*seed=*/1};
  const int a = ch.add_wifi_station(ap_site(0.0, 600.0));
  const int b = ch.add_wifi_station(ap_site(1800.0, 1200.0));
  ch.run(Duration::seconds(1.0));
  // Neither defers to the other, both clients sit mid-field: overlap is
  // frequent and the capture margin is not met.
  EXPECT_GT(ch.stats(a).collisions + ch.stats(b).collisions, 100);
  EXPECT_GT(ch.stats(a).dropped_frames + ch.stats(b).dropped_frames, 0);
}

// --- dLTE access policies -------------------------------------------------

TEST(SharedChannel, ObliviousLteStarvesWifi) {
  DenseCell cell{LteCoexPolicy::kOblivious};
  cell.ch.run(Duration::seconds(1.0));
  // The scheduled waveform never yields; WiFi senses it and defers
  // forever. This is the LTE-U horror story.
  EXPECT_GT(cell.ch.airtime_share(Waveform::kDlte), 0.99);
  EXPECT_EQ(cell.ch.stats(cell.a).attempts, 0);
  EXPECT_EQ(cell.ch.stats(cell.b).attempts, 0);
  EXPECT_GT(cell.ch.stats(cell.a).defer_slots, 0);
}

TEST(SharedChannel, LbtDefersAndLetsWifiThrough) {
  DenseCell cell{LteCoexPolicy::kLbt};
  cell.ch.run(Duration::seconds(1.0));
  EXPECT_GT(cell.ch.stats(cell.l).defer_slots, 0);
  EXPECT_GT(cell.ch.stats(cell.a).delivered_frames, 0);
  EXPECT_GT(cell.ch.stats(cell.b).delivered_frames, 0);
  EXPECT_GT(cell.ch.airtime_share(Waveform::kWifi), 0.05);
  // LBT still gets real airtime — it is sharing, not abstaining.
  EXPECT_GT(cell.ch.airtime_share(Waveform::kDlte), 0.2);
}

TEST(SharedChannel, DutyCycleHonoursConfiguredSplit) {
  // 20 ms on / 20 ms off, alone on the channel: airtime ≈ 50%.
  SharedChannel ch{/*seed=*/1};
  LteTransmitterConfig lc;
  lc.site = ap_site(0.0, 40.0);
  lc.policy = LteCoexPolicy::kDutyCycle;
  const int l = ch.add_lte_transmitter(lc);
  ch.run(Duration::seconds(1.0));
  const double share = static_cast<double>(ch.stats(l).tx_slots) / 111111.0;
  EXPECT_NEAR(share, 0.5, 0.03);
}

// On-fraction a duty-cycled transmitter has settled at. The controller
// adapts once per cycle, so one second of run-in lets it converge; the
// next second is measured over whole cycles (20 ms on + 20 ms off, which
// adaptation keeps fixed), as the share of slots it sent in.
// A frame starts only if it fits what is left of the on-window, so this
// falls short of the configured fraction by less than one 18-slot frame
// per 4444-slot cycle (0.004).
double settled_on_fraction(SharedChannel& ch, int l) {
  constexpr std::int64_t kCycleSlots = 2 * 2222;
  constexpr std::int64_t kCycles = 25;
  const Duration window =
      Duration::nanos(kCycles * kCycleSlots * phy::kSlot.ns());
  ch.run(window);
  const std::int64_t before = ch.stats(l).tx_slots;
  ch.run(window);
  return static_cast<double>(ch.stats(l).tx_slots - before) /
         static_cast<double>(kCycles * kCycleSlots);
}

TEST(SharedChannel, AdaptiveDutyCycleYieldsToBusyWifi) {
  // Saturated WiFi next door keeps the off-window occupied, so adaptive
  // CSAT shrinks toward its 0.1 floor; blind CSAT never moves.
  auto on_fraction = [](bool adaptive) {
    SharedChannel ch{/*seed=*/1};
    ch.add_wifi_station(ap_site(0.0, 40.0));
    LteTransmitterConfig lc;
    lc.site = ap_site(60.0, 100.0);
    lc.policy = LteCoexPolicy::kDutyCycle;
    lc.adaptive = adaptive;
    const int l = ch.add_lte_transmitter(lc);
    return settled_on_fraction(ch, l);
  };
  EXPECT_NEAR(on_fraction(false), 0.5, 0.005);
  EXPECT_LT(on_fraction(true), 0.2);
}

TEST(SharedChannel, AdaptiveDutyCycleReclaimsIdleChannel) {
  // No WiFi at all: the off-window measures zero occupancy and adaptive
  // CSAT grows to its 0.8 ceiling.
  SharedChannel ch{/*seed=*/1};
  LteTransmitterConfig lc;
  lc.site = ap_site(0.0, 40.0);
  lc.policy = LteCoexPolicy::kDutyCycle;
  lc.adaptive = true;
  const int l = ch.add_lte_transmitter(lc);
  EXPECT_NEAR(settled_on_fraction(ch, l), 0.8, 0.02);
}

// --- The acceptance criterion: hidden-terminal stress ---------------------

TEST(SharedChannel, HiddenTerminalLbtBeatsObliviousForWifi) {
  // Equal density, same geometry, same seeds: LBT must leave WiFi
  // strictly more airtime than the oblivious scheduled waveform.
  HiddenCell oblivious{LteCoexPolicy::kOblivious};
  oblivious.ch.run(Duration::seconds(2.0));
  HiddenCell lbt{LteCoexPolicy::kLbt};
  lbt.ch.run(Duration::seconds(2.0));
  const double wifi_oblivious =
      oblivious.ch.airtime_share(Waveform::kWifi);
  const double wifi_lbt = lbt.ch.airtime_share(Waveform::kWifi);
  EXPECT_GT(wifi_lbt, wifi_oblivious);
  EXPECT_GT(lbt.ch.stats(lbt.a).delivered_frames +
                lbt.ch.stats(lbt.b).delivered_frames,
            0);
  // And fairness across the three transmitters improves.
  EXPECT_GT(jain_fairness(lbt.ch.airtime_fractions()),
            jain_fairness(oblivious.ch.airtime_fractions()));
}

// --- Determinism ----------------------------------------------------------

TEST(SharedChannel, DeterministicForSameSeed) {
  auto fingerprint = [] {
    DenseCell cell{LteCoexPolicy::kLbt};
    cell.ch.run(Duration::seconds(0.5));
    std::vector<double> out = cell.ch.airtime_fractions();
    for (const int i : {cell.a, cell.b, cell.l}) {
      out.push_back(static_cast<double>(cell.ch.stats(i).delivered_frames));
      out.push_back(static_cast<double>(cell.ch.stats(i).collisions));
      out.push_back(cell.ch.stats(i).access_latency_ms.p95());
    }
    return out;
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

TEST(SharedChannel, AddingTransmitterDoesNotPerturbOthersStreams) {
  // Per-transmitter streams are derived by (component, index), so a third
  // transmitter placed out of range changes nothing about the first two.
  auto delivered_by_first_two = [](bool extra) {
    SharedChannel ch{/*seed=*/1};
    const int a = ch.add_wifi_station(ap_site(0.0, 40.0));
    const int b = ch.add_wifi_station(ap_site(100.0, 60.0));
    if (extra) {
      // 50 km away: neither sensed nor interfering.
      ch.add_wifi_station(ap_site(50'000.0, 50'040.0));
    }
    ch.run(Duration::seconds(0.5));
    return std::pair{ch.stats(a).delivered_frames,
                     ch.stats(b).delivered_frames};
  };
  EXPECT_EQ(delivered_by_first_two(false), delivered_by_first_two(true));
}

// --- Integration: metrics ------------------------------------------------

TEST(SharedChannel, MetricsExportPerWaveformCountersAndGauges) {
  obs::MetricsRegistry reg;
  DenseCell cell{LteCoexPolicy::kLbt};
  cell.ch.set_metrics(&reg, "c11.");
  cell.ch.run(Duration::seconds(0.5));
  EXPECT_GT(reg.counter("c11.coex.wifi.attempts").value(), 0u);
  EXPECT_GT(reg.counter("c11.coex.dlte.attempts").value(), 0u);
  EXPECT_GT(reg.counter("c11.coex.dlte.defer_slots").value(), 0u);
  EXPECT_GT(reg.histogram("c11.coex.wifi.access_ms").count(), 0u);
  const double wifi_share = reg.gauge("c11.coex.airtime.wifi").value();
  EXPECT_NEAR(wifi_share, cell.ch.airtime_share(Waveform::kWifi), 1e-12);
  const double fairness = reg.gauge("c11.coex.fairness").value();
  EXPECT_GT(fairness, 0.0);
  EXPECT_LE(fairness, 1.0);
}

}  // namespace
}  // namespace dlte::coex
