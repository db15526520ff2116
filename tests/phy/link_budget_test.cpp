#include "phy/link_budget.h"

#include <gtest/gtest.h>

#include "phy/lte_amc.h"

namespace dlte::phy {
namespace {

TEST(LinkBudget, ReceivedPowerFollowsBudget) {
  FreeSpaceModel fs;
  RadioProfile tx{.tx_power = PowerDbm{30.0},
                  .tx_antenna_gain = Decibels{10.0},
                  .rx_antenna_gain = Decibels{0.0},
                  .noise_figure = Decibels{7.0},
                  .bandwidth = Hertz::mhz(10.0),
                  .antenna_height_m = 30.0};
  RadioProfile rx = DeviceProfiles::lte_ue();
  const PowerDbm p =
      received_power(tx, rx, fs, Hertz::ghz(1.0), 1000.0);
  // 30 + 10 + 0 - FSPL(1km, 1GHz 92.4dB) ≈ -52.4 dBm.
  EXPECT_NEAR(p.value(), -52.4, 0.3);
}

TEST(LinkBudget, ShadowingSubtracts) {
  FreeSpaceModel fs;
  const auto tx = DeviceProfiles::lte_enb_rural();
  const auto rx = DeviceProfiles::lte_ue();
  const auto p0 = received_power(tx, rx, fs, Hertz::mhz(850.0), 5000.0);
  const auto p1 = received_power(tx, rx, fs, Hertz::mhz(850.0), 5000.0,
                                 Decibels{10.0});
  EXPECT_NEAR(p0.value() - p1.value(), 10.0, 1e-9);
}

TEST(LinkBudget, UplinkReciprocity) {
  // Uplink (UE→eNB) and downlink (eNB→UE) see the same path loss; the
  // received power difference equals the EIRP difference.
  const auto enb = DeviceProfiles::lte_enb_rural();
  const auto ue = DeviceProfiles::lte_ue();
  OkumuraHataModel m;
  const auto dl = received_power(enb, ue, m, Hertz::mhz(850.0), 8000.0);
  const auto ul = received_power(ue, enb, m, Hertz::mhz(850.0), 8000.0);
  const double chain_delta =
      (enb.tx_power.value() + enb.tx_antenna_gain.value() +
       ue.rx_antenna_gain.value()) -
      (ue.tx_power.value() + ue.tx_antenna_gain.value() +
       enb.rx_antenna_gain.value());
  EXPECT_NEAR(dl.value() - ul.value(), chain_delta, 1e-9);
}

TEST(LinkBudget, SnrAtCellEdgeIsUsable) {
  // The §5 deployment claim: one band-5 site covers a town. At 5 km in
  // open terrain the downlink SNR must support at least mid CQI.
  const auto enb = DeviceProfiles::lte_enb_rural();
  const auto ue = DeviceProfiles::lte_ue();
  OkumuraHataModel m;
  const auto snr = link_snr(enb, ue, m, Hertz::mhz(850.0), 5000.0);
  EXPECT_GT(snr.value(), 10.0);
  EXPECT_GE(select_cqi(snr), 7);
}

TEST(Profiles, WifiClientHasLessUplinkEirpThanLteUe) {
  // §3.2 uplink asymmetry: SC-FDMA keeps full PA headroom, OFDM backs off.
  const auto lte = DeviceProfiles::lte_ue();
  const auto wifi = DeviceProfiles::wifi_client();
  EXPECT_GT(lte.tx_power.value() + lte.tx_antenna_gain.value(),
            wifi.tx_power.value() + wifi.tx_antenna_gain.value());
}

}  // namespace
}  // namespace dlte::phy
