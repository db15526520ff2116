#include "phy/propagation.h"

#include <gtest/gtest.h>

namespace dlte::phy {
namespace {

const LinkGeometry kRuralGeo{.distance_m = 5000.0,
                             .base_height_m = 30.0,
                             .mobile_height_m = 1.5};

TEST(FreeSpace, KnownValueAt1Km2Ghz) {
  // FSPL(1 km, 2 GHz) ≈ 98.5 dB.
  FreeSpaceModel m;
  const auto loss = m.path_loss(
      Hertz::ghz(2.0), LinkGeometry{.distance_m = 1000.0});
  EXPECT_NEAR(loss.value(), 98.5, 0.2);
}

TEST(FreeSpace, SixDbPerDoubling) {
  FreeSpaceModel m;
  const auto l1 =
      m.path_loss(Hertz::ghz(1.0), LinkGeometry{.distance_m = 1000.0});
  const auto l2 =
      m.path_loss(Hertz::ghz(1.0), LinkGeometry{.distance_m = 2000.0});
  EXPECT_NEAR(l2.value() - l1.value(), 6.02, 0.05);
}

TEST(LogDistance, ExponentControlsSlope) {
  LogDistanceModel m{3.5, 100.0};
  const auto l1 =
      m.path_loss(Hertz::ghz(2.4), LinkGeometry{.distance_m = 1000.0});
  const auto l2 =
      m.path_loss(Hertz::ghz(2.4), LinkGeometry{.distance_m = 10000.0});
  EXPECT_NEAR(l2.value() - l1.value(), 35.0, 0.1);
}

TEST(LogDistance, MatchesFreeSpaceAtReference) {
  LogDistanceModel m{3.0, 50.0};
  FreeSpaceModel fs;
  const LinkGeometry at_ref{.distance_m = 50.0};
  EXPECT_NEAR(m.path_loss(Hertz::ghz(5.8), at_ref).value(),
              fs.path_loss(Hertz::ghz(5.8), at_ref).value(), 1e-9);
}

TEST(OkumuraHata, KnownBallparkAt850Mhz10Km) {
  // Urban Hata, hb=30, hm=1.5, f=850 MHz, d=10 km → ~161 dB, less the
  // ~28.3 dB open-area correction → ~132.7 dB.
  OkumuraHataModel m;
  const auto loss = m.path_loss(
      Hertz::mhz(850.0), LinkGeometry{10'000.0, 30.0, 1.5});
  EXPECT_NEAR(loss.value(), 132.7, 2.0);
}

TEST(OkumuraHata, LossGrowsWithDistance) {
  OkumuraHataModel m;
  double prev = 0.0;
  for (double d : {1000.0, 2000.0, 5000.0, 10000.0, 20000.0}) {
    const auto loss =
        m.path_loss(Hertz::mhz(850.0), LinkGeometry{d, 30.0, 1.5});
    EXPECT_GT(loss.value(), prev);
    prev = loss.value();
  }
}

TEST(OkumuraHata, TallerBaseStationReducesLoss) {
  OkumuraHataModel m;
  const auto low =
      m.path_loss(Hertz::mhz(850.0), LinkGeometry{10'000.0, 15.0, 1.5});
  const auto high =
      m.path_loss(Hertz::mhz(850.0), LinkGeometry{10'000.0, 45.0, 1.5});
  EXPECT_LT(high.value(), low.value());
}

TEST(Cost231, HigherFrequencyCostsMore) {
  Cost231HataModel m;
  const auto l18 = m.path_loss(Hertz::mhz(1800.0), kRuralGeo);
  const auto l26 = m.path_loss(Hertz::mhz(2600.0), kRuralGeo);
  EXPECT_GT(l26.value(), l18.value());
}

// The §3.2 band argument in one assertion: at rural distances, propagation
// alone already favors 850 MHz over 2.4 GHz by several dB (the rest of the
// LTE advantage — EIRP, SC-FDMA headroom, HARQ — is measured in bench C1).
TEST(RuralModels, Band5BeatsIsmAtDistance) {
  const auto lte = make_rural_model(Hertz::mhz(850.0));
  const auto wifi = make_rural_model(Hertz::ghz(2.4));
  const auto l_lte = lte->path_loss(Hertz::mhz(850.0), kRuralGeo);
  const auto l_wifi = wifi->path_loss(Hertz::ghz(2.4), kRuralGeo);
  EXPECT_LT(l_lte.value() + 5.0, l_wifi.value());
}

TEST(RuralModelSelector, PicksByFrequency) {
  EXPECT_STREQ(make_rural_model(Hertz::mhz(850.0))->name(), "okumura-hata");
  EXPECT_STREQ(make_rural_model(Hertz::mhz(1800.0))->name(), "cost231-hata");
  EXPECT_STREQ(make_rural_model(Hertz::ghz(5.8))->name(), "log-distance");
}

}  // namespace
}  // namespace dlte::phy
