// RadioEnvironment: the shared RF world of one geographic area.
//
// Holds every cell site (dLTE AP, telecom macro, or WiFi AP repurposed as
// an LTE comparison point), computes RSRP / SINR for arbitrary UE
// positions, and encodes the coordination semantics of §4.3: cells that
// belong to a coordination domain hold *orthogonal* time-frequency shares
// (no co-channel interference between them — that is the point of the
// agreement), while uncoordinated co-channel cells interfere at full
// power.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>

#include "common/geo.h"
#include "common/ids.h"
#include "common/units.h"
#include "phy/link_budget.h"
#include "phy/propagation.h"

namespace dlte::core {

struct CellSiteConfig {
  CellId id;
  Position position;
  phy::RadioProfile profile{phy::DeviceProfiles::lte_enb_rural()};
  Hertz frequency{Hertz::mhz(850.0)};
};

class RadioEnvironment {
 public:
  void add_cell(const CellSiteConfig& config);

  // Coordination state (driven by the PeerCoordinator / scenario).
  void set_coordinated(CellId id, bool coordinated);

  // Failure state (driven by fault injection): an inactive cell is off the
  // air — it neither serves (RSRP at the noise floor) nor interferes.
  void set_cell_active(CellId id, bool active);
  [[nodiscard]] bool cell_active(CellId id) const;

  // Transmit-power backoff in dB (≥ 0). Used by the registry-lease
  // degraded mode: an AP that cannot renew its grant keeps serving at
  // conservative power instead of going dark.
  void set_power_backoff_db(CellId id, double backoff_db);

  [[nodiscard]] PowerDbm rsrp(CellId cell, Position ue) const;
  [[nodiscard]] Decibels downlink_sinr(CellId serving, Position ue) const;

  // Strongest cell by RSRP, if any is above the detection floor.
  [[nodiscard]] std::optional<CellId> best_cell(Position ue) const;
  [[nodiscard]] double cell_distance_m(CellId id, Position ue) const;

 private:
  struct Site {
    CellSiteConfig config;
    std::unique_ptr<phy::PropagationModel> model;
    bool coordinated{false};
    bool active{true};
    double power_backoff_db{0.0};
  };

  [[nodiscard]] bool co_channel(const Site& a, const Site& b) const;
  [[nodiscard]] PowerDbm rx_power(const Site& site, Position ue) const;

  std::unordered_map<CellId, Site> cells_;
  phy::RadioProfile ue_profile_{phy::DeviceProfiles::lte_ue()};

  static constexpr double kDetectionFloorDbm = -110.0;
};

}  // namespace dlte::core
