#include <gtest/gtest.h>

#include "common/geo.h"
#include "common/time.h"
#include "common/units.h"

namespace dlte {
namespace {

TEST(Duration, Constructors) {
  EXPECT_EQ(Duration::millis(3).ns(), 3'000'000);
  EXPECT_EQ(Duration::micros(5).ns(), 5'000);
  EXPECT_EQ(Duration::seconds(1.5).ns(), 1'500'000'000);
}

TEST(Duration, Arithmetic) {
  const auto a = Duration::millis(10);
  const auto b = Duration::millis(4);
  EXPECT_EQ((a + b).to_millis(), 14.0);
  EXPECT_EQ((a - b).to_millis(), 6.0);
  EXPECT_EQ((a * 3).to_millis(), 30.0);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  EXPECT_EQ((a / 2).to_millis(), 5.0);
}

TEST(TimePoint, OffsetAndDifference) {
  const auto t0 = TimePoint::from_ns(0);
  const auto t1 = t0 + Duration::seconds(2.0);
  EXPECT_DOUBLE_EQ(t1.to_seconds(), 2.0);
  EXPECT_DOUBLE_EQ((t1 - t0).to_seconds(), 2.0);
  EXPECT_LT(t0, t1);
}

TEST(Decibels, LinearRoundTrip) {
  EXPECT_NEAR(Decibels{3.0}.linear(), 2.0, 0.01);
  EXPECT_NEAR(Decibels::from_linear(100.0).value(), 20.0, 1e-9);
  EXPECT_NEAR(Decibels::from_linear(Decibels{7.7}.linear()).value(), 7.7,
              1e-9);
}

TEST(PowerDbm, MilliwattRoundTrip) {
  EXPECT_NEAR(PowerDbm{30.0}.milliwatts(), 1000.0, 1e-6);
}

TEST(PowerDbm, GainAndLossArithmetic) {
  const PowerDbm tx{20.0};
  const PowerDbm rx = tx + Decibels{15.0} - Decibels{120.0};
  EXPECT_DOUBLE_EQ(rx.value(), -85.0);
  EXPECT_DOUBLE_EQ((tx - rx).value(), 105.0);
}

TEST(ThermalNoise, TenMhzAtSevenDbNf) {
  // -174 + 10log10(1e7) + 7 = -97 dBm.
  const PowerDbm n = thermal_noise(Hertz::mhz(10.0), Decibels{7.0});
  EXPECT_NEAR(n.value(), -97.0, 0.01);
}

TEST(Hertz, Conversions) {
  EXPECT_DOUBLE_EQ(Hertz::ghz(2.4).to_mhz(), 2400.0);
}

TEST(DataRate, Conversions) {
  EXPECT_DOUBLE_EQ(DataRate::mbps(10.0).to_kbps(), 10'000.0);
  EXPECT_DOUBLE_EQ((DataRate::kbps(500.0) + DataRate::kbps(500.0)).to_mbps(),
                   1.0);
}

TEST(Geo, Distance) {
  const Position a{0.0, 0.0};
  const Position b{3000.0, 4000.0};
  EXPECT_DOUBLE_EQ(distance_m(a, b), 5000.0);
}

}  // namespace
}  // namespace dlte
