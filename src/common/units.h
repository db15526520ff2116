// Physical-layer units and conversions.
//
// Radio arithmetic in dLTE is done in explicit unit types: transmit powers
// and received signal strengths in dBm, gains and losses in dB, linear
// power in milliwatts only at the point where powers must be summed
// (interference aggregation). Frequencies are hertz, rates are bits per
// second.
#pragma once

#include <cmath>
#include <cstdint>

namespace dlte {

// A power ratio in decibels (gains, losses, SINR).
class Decibels {
 public:
  constexpr Decibels() = default;
  constexpr explicit Decibels(double db) : db_(db) {}

  [[nodiscard]] constexpr double value() const { return db_; }
  [[nodiscard]] double linear() const { return std::pow(10.0, db_ / 10.0); }
  [[nodiscard]] static Decibels from_linear(double ratio) {
    return Decibels{10.0 * std::log10(ratio)};
  }

  friend constexpr Decibels operator+(Decibels a, Decibels b) {
    return Decibels{a.db_ + b.db_};
  }
  friend constexpr Decibels operator-(Decibels a, Decibels b) {
    return Decibels{a.db_ - b.db_};
  }
  friend constexpr Decibels operator-(Decibels a) { return Decibels{-a.db_}; }
  friend constexpr auto operator<=>(Decibels, Decibels) = default;

 private:
  double db_{0.0};
};

// Absolute power referenced to one milliwatt.
class PowerDbm {
 public:
  constexpr PowerDbm() = default;
  constexpr explicit PowerDbm(double dbm) : dbm_(dbm) {}

  [[nodiscard]] constexpr double value() const { return dbm_; }
  [[nodiscard]] double milliwatts() const {
    return std::pow(10.0, dbm_ / 10.0);
  }

  // Power plus a gain (antenna, amplifier) or minus a loss (path, cable).
  friend constexpr PowerDbm operator+(PowerDbm p, Decibels g) {
    return PowerDbm{p.dbm_ + g.value()};
  }
  friend constexpr PowerDbm operator-(PowerDbm p, Decibels l) {
    return PowerDbm{p.dbm_ - l.value()};
  }
  // The ratio of two absolute powers is a relative quantity.
  friend constexpr Decibels operator-(PowerDbm a, PowerDbm b) {
    return Decibels{a.dbm_ - b.dbm_};
  }
  friend constexpr auto operator<=>(PowerDbm, PowerDbm) = default;

 private:
  double dbm_{-300.0};  // Effectively zero power.
};

// Carrier frequency / bandwidth in hertz.
class Hertz {
 public:
  constexpr Hertz() = default;
  constexpr explicit Hertz(double hz) : hz_(hz) {}

  [[nodiscard]] static constexpr Hertz mhz(double m) {
    return Hertz{m * 1e6};
  }
  [[nodiscard]] static constexpr Hertz ghz(double g) {
    return Hertz{g * 1e9};
  }
  [[nodiscard]] constexpr double hz() const { return hz_; }
  [[nodiscard]] constexpr double to_mhz() const { return hz_ / 1e6; }

  friend constexpr auto operator<=>(Hertz, Hertz) = default;
  friend constexpr Hertz operator+(Hertz a, Hertz b) {
    return Hertz{a.hz_ + b.hz_};
  }
  friend constexpr Hertz operator-(Hertz a, Hertz b) {
    return Hertz{a.hz_ - b.hz_};
  }

 private:
  double hz_{0.0};
};

// Data rate in bits per second.
class DataRate {
 public:
  constexpr DataRate() = default;
  constexpr explicit DataRate(double bps) : bps_(bps) {}

  [[nodiscard]] static constexpr DataRate kbps(double k) {
    return DataRate{k * 1e3};
  }
  [[nodiscard]] static constexpr DataRate mbps(double m) {
    return DataRate{m * 1e6};
  }
  [[nodiscard]] constexpr double bps() const { return bps_; }
  [[nodiscard]] constexpr double to_kbps() const { return bps_ / 1e3; }
  [[nodiscard]] constexpr double to_mbps() const { return bps_ / 1e6; }

  friend constexpr auto operator<=>(DataRate, DataRate) = default;
  friend constexpr DataRate operator+(DataRate a, DataRate b) {
    return DataRate{a.bps_ + b.bps_};
  }

 private:
  double bps_{0.0};
};

// Thermal noise floor: kT = -174 dBm/Hz at 290 K.
[[nodiscard]] inline PowerDbm thermal_noise(Hertz bandwidth,
                                            Decibels noise_figure) {
  return PowerDbm{-174.0 + 10.0 * std::log10(bandwidth.hz()) +
                  noise_figure.value()};
}

}  // namespace dlte
