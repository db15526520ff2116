#include "phy/link_budget.h"

#include <algorithm>

namespace dlte::phy {

RadioProfile DeviceProfiles::lte_enb_rural() {
  return RadioProfile{
      .tx_power = PowerDbm{37.0},
      .tx_antenna_gain = Decibels{15.0},
      .rx_antenna_gain = Decibels{15.0},
      .noise_figure = Decibels{5.0},
      .bandwidth = Hertz::mhz(10.0),
      .antenna_height_m = 30.0,
  };
}

RadioProfile DeviceProfiles::lte_ue() {
  return RadioProfile{
      .tx_power = PowerDbm{23.0},
      .tx_antenna_gain = Decibels{0.0},
      .rx_antenna_gain = Decibels{0.0},
      .noise_figure = Decibels{7.0},
      .bandwidth = Hertz::mhz(10.0),
      .antenna_height_m = 1.5,
  };
}

RadioProfile DeviceProfiles::wifi_ap_outdoor() {
  return RadioProfile{
      .tx_power = PowerDbm{30.0},
      .tx_antenna_gain = Decibels{6.0},
      .rx_antenna_gain = Decibels{6.0},
      .noise_figure = Decibels{6.0},
      .bandwidth = Hertz::mhz(20.0),
      .antenna_height_m = 30.0,
  };
}

RadioProfile DeviceProfiles::wifi_client() {
  return RadioProfile{
      // 18 dBm conducted minus 3 dB OFDM PAPR backoff.
      .tx_power = PowerDbm{15.0},
      .tx_antenna_gain = Decibels{0.0},
      .rx_antenna_gain = Decibels{0.0},
      .noise_figure = Decibels{7.0},
      .bandwidth = Hertz::mhz(20.0),
      .antenna_height_m = 1.5,
  };
}

PowerDbm received_power(const RadioProfile& tx, const RadioProfile& rx,
                        const PropagationModel& model, Hertz frequency,
                        double distance_m, Decibels shadowing) {
  // Propagation is reciprocal: the Hata "base" height is whichever end is
  // elevated, regardless of link direction (uplink or downlink).
  const LinkGeometry geo{
      .distance_m = distance_m,
      .base_height_m = std::max(tx.antenna_height_m, rx.antenna_height_m),
      .mobile_height_m = std::min(tx.antenna_height_m, rx.antenna_height_m),
  };
  const Decibels loss = model.path_loss(frequency, geo);
  return tx.tx_power + tx.tx_antenna_gain + rx.rx_antenna_gain - loss -
         shadowing;
}

Decibels link_snr(const RadioProfile& tx, const RadioProfile& rx,
                  const PropagationModel& model, Hertz frequency,
                  double distance_m, Decibels shadowing) {
  const PowerDbm prx =
      received_power(tx, rx, model, frequency, distance_m, shadowing);
  const PowerDbm noise = thermal_noise(rx.bandwidth, rx.noise_figure);
  return prx - noise;
}

}  // namespace dlte::phy
