// Link-budget computation: transmit chain + propagation + noise → SNR/SINR.
//
// Device profiles encode the asymmetry the paper leans on in §3.2: an LTE
// basestation is an advantaged transmitter (high power, high-gain sector
// antenna, on a silo roof), the handset is power-limited but gains uplink
// headroom from SC-FDMA's low PAPR; WiFi devices are bounded by ISM EIRP
// rules and omni antennas.
#pragma once


#include "common/units.h"
#include "phy/propagation.h"

namespace dlte::phy {

struct RadioProfile {
  PowerDbm tx_power{PowerDbm{20.0}};
  Decibels tx_antenna_gain{Decibels{0.0}};
  Decibels rx_antenna_gain{Decibels{0.0}};
  Decibels noise_figure{Decibels{7.0}};
  Hertz bandwidth{Hertz::mhz(10.0)};
  double antenna_height_m{1.5};
};

// Canonical profiles used throughout the experiments. Values are typical
// of the equipment class the paper describes (a commercial rural eNodeB
// with 15 dBi sector antennas, an off-the-shelf handset, outdoor WiFi
// within FCC ISM EIRP limits).
struct DeviceProfiles {
  // LTE rural basestation: ~5 W PA per sector + 15 dBi antenna (paper §5).
  [[nodiscard]] static RadioProfile lte_enb_rural();
  // LTE handset: 23 dBm class-3 UE. SC-FDMA's single-carrier uplink keeps
  // PAPR low, so the full 23 dBm is usable (modelled as zero backoff).
  [[nodiscard]] static RadioProfile lte_ue();
  // Outdoor WiFi AP at the 2.4 GHz FCC point-to-multipoint EIRP cap
  // (36 dBm EIRP = 30 dBm conducted + 6 dBi).
  [[nodiscard]] static RadioProfile wifi_ap_outdoor();
  // WiFi client: 18 dBm conducted, OFDM PAPR backoff of 3 dB applied
  // (the §3.2 uplink-asymmetry counterpart of SC-FDMA headroom).
  [[nodiscard]] static RadioProfile wifi_client();
};

// Received power over one link.
[[nodiscard]] PowerDbm received_power(const RadioProfile& tx,
                                      const RadioProfile& rx,
                                      const PropagationModel& model,
                                      Hertz frequency, double distance_m,
                                      Decibels shadowing = Decibels{0.0});

// Signal-to-noise ratio at the receiver (no interference).
[[nodiscard]] Decibels link_snr(const RadioProfile& tx,
                                const RadioProfile& rx,
                                const PropagationModel& model,
                                Hertz frequency, double distance_m,
                                Decibels shadowing = Decibels{0.0});

}  // namespace dlte::phy
