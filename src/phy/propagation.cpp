#include "phy/propagation.h"

#include <algorithm>
#include <cmath>

namespace dlte::phy {

namespace {
// Mobile antenna height correction a(hm) for a small/medium city
// (Okumura-Hata), in dB. The formula is only valid for 1–10 m mobiles;
// clamping keeps basestation-to-basestation links (both ends elevated)
// from producing absurd negative losses.
double mobile_correction(double f_mhz, double hm) {
  hm = std::clamp(hm, 1.0, 10.0);
  return (1.1 * std::log10(f_mhz) - 0.7) * hm -
         (1.56 * std::log10(f_mhz) - 0.8);
}

// Hata base formula shared by Okumura-Hata and COST-231-Hata.
double hata_core(double f_mhz, const LinkGeometry& geo, double c0,
                 double cf) {
  const double d_km = std::max(geo.distance_m, 20.0) / 1000.0;
  const double hb = std::max(geo.base_height_m, 1.0);
  return c0 + cf * std::log10(f_mhz) - 13.82 * std::log10(hb) -
         mobile_correction(f_mhz, geo.mobile_height_m) +
         (44.9 - 6.55 * std::log10(hb)) * std::log10(d_km);
}

// Okumura's open-area correction, subtracted from the Hata urban loss.
double open_area_correction(double f_mhz) {
  return 4.78 * std::pow(std::log10(f_mhz), 2.0) - 18.33 * std::log10(f_mhz) +
         40.94;
}
}  // namespace

Decibels FreeSpaceModel::path_loss(Hertz frequency,
                                   const LinkGeometry& geo) const {
  const double d = std::max(geo.distance_m, 1.0);
  const double f = frequency.hz();
  // FSPL = 20 log10(4 pi d f / c).
  return Decibels{20.0 * std::log10(4.0 * M_PI * d * f / 299792458.0)};
}

Decibels LogDistanceModel::path_loss(Hertz frequency,
                                     const LinkGeometry& geo) const {
  const double d = std::max(geo.distance_m, reference_m_);
  const double ref_loss =
      FreeSpaceModel{}
          .path_loss(frequency, LinkGeometry{reference_m_, geo.base_height_m,
                                             geo.mobile_height_m})
          .value();
  return Decibels{ref_loss + 10.0 * exponent_ * std::log10(d / reference_m_)};
}

Decibels OkumuraHataModel::path_loss(Hertz frequency,
                                     const LinkGeometry& geo) const {
  const double f = std::clamp(frequency.to_mhz(), 150.0, 1500.0);
  return Decibels{hata_core(f, geo, 69.55, 26.16) - open_area_correction(f)};
}

Decibels Cost231HataModel::path_loss(Hertz frequency,
                                     const LinkGeometry& geo) const {
  const double f = std::clamp(frequency.to_mhz(), 1500.0, 2600.0);
  // COST-231 has no open-area term; apply the Okumura open-area
  // correction, a customary extension for rural planning.
  return Decibels{hata_core(f, geo, 46.3, 33.9) - open_area_correction(f)};
}

std::unique_ptr<PropagationModel> make_rural_model(Hertz frequency) {
  if (frequency.to_mhz() <= 1500.0) {
    return std::make_unique<OkumuraHataModel>();
  }
  if (frequency.to_mhz() <= 2600.0) {
    return std::make_unique<Cost231HataModel>();
  }
  return std::make_unique<LogDistanceModel>(3.0);
}

}  // namespace dlte::phy
