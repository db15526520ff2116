#include "core/radio_env.h"

#include <algorithm>
#include <cmath>

namespace dlte::core {

void RadioEnvironment::add_cell(const CellSiteConfig& config) {
  Site site;
  site.config = config;
  // The band-appropriate empirical model of a rural deployment.
  site.model = phy::make_rural_model(config.frequency);
  cells_.emplace(config.id, std::move(site));
}

void RadioEnvironment::set_coordinated(CellId id, bool coordinated) {
  cells_.at(id).coordinated = coordinated;
}

void RadioEnvironment::set_cell_active(CellId id, bool active) {
  cells_.at(id).active = active;
}

bool RadioEnvironment::cell_active(CellId id) const {
  return cells_.at(id).active;
}

void RadioEnvironment::set_power_backoff_db(CellId id, double backoff_db) {
  cells_.at(id).power_backoff_db = std::max(backoff_db, 0.0);
}

bool RadioEnvironment::co_channel(const Site& a, const Site& b) const {
  const double half = (a.config.profile.bandwidth.hz() +
                       b.config.profile.bandwidth.hz()) /
                      2.0;
  return std::abs(a.config.frequency.hz() - b.config.frequency.hz()) < half;
}

PowerDbm RadioEnvironment::rx_power(const Site& site, Position ue) const {
  // An off-air cell radiates nothing: far below any detection floor, and
  // numerically ~0 mW in interference sums.
  if (!site.active) return PowerDbm{-300.0};
  const double d = distance_m(site.config.position, ue);
  const PowerDbm p = phy::received_power(site.config.profile, ue_profile_,
                                         *site.model, site.config.frequency,
                                         d);
  return PowerDbm{p.value() - site.power_backoff_db};
}

PowerDbm RadioEnvironment::rsrp(CellId cell, Position ue) const {
  return rx_power(cells_.at(cell), ue);
}

Decibels RadioEnvironment::downlink_sinr(CellId serving, Position ue) const {
  const Site& s = cells_.at(serving);
  const PowerDbm desired = rx_power(s, ue);
  const PowerDbm noise =
      thermal_noise(ue_profile_.bandwidth, ue_profile_.noise_figure);

  double denom_mw = noise.milliwatts();
  for (const auto& [id, other] : cells_) {
    if (id == serving) continue;
    if (!co_channel(s, other)) continue;
    // Coordinated cells hold orthogonal shares: no mutual interference.
    if (s.coordinated && other.coordinated) continue;
    denom_mw += rx_power(other, ue).milliwatts();
  }
  return Decibels::from_linear(desired.milliwatts() / denom_mw);
}

std::optional<CellId> RadioEnvironment::best_cell(Position ue) const {
  std::optional<CellId> best;
  double best_dbm = kDetectionFloorDbm;
  for (const auto& [id, site] : cells_) {
    const double p = rx_power(site, ue).value();
    if (p > best_dbm) {
      best_dbm = p;
      best = id;
    }
  }
  return best;
}

double RadioEnvironment::cell_distance_m(CellId id, Position ue) const {
  return distance_m(cells_.at(id).config.position, ue);
}

}  // namespace dlte::core
