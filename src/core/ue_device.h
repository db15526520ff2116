// UeDevice: a complete simulated handset.
//
// Bundles the eSIM store, position/mobility, and (per attachment) a NAS
// client. In dLTE a UE that moves to a new AP simply runs a fresh attach
// there with its open identity (§4.2) — there is no cross-AP context, so
// the device object is deliberately re-attachable.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "ue/mobility.h"
#include "ue/nas_client.h"
#include "ue/usim.h"

namespace dlte::core {

class UeDevice {
 public:
  UeDevice(ue::SimProfile profile,
           std::unique_ptr<ue::MobilityModel> mobility);

  [[nodiscard]] Imsi imsi() const { return esim_.find_open() != nullptr
                                        ? esim_.find_open()->imsi
                                        : primary_imsi_; }

  [[nodiscard]] Position position() const { return mobility_->position(); }

  // Begin an attachment to a network: creates a fresh NAS client bound to
  // that network's serving id. Any previous attachment state is dropped
  // (dLTE semantics — no network-side context follows the UE).
  ue::NasClient& begin_attachment(const std::string& serving_network_id);
  [[nodiscard]] ue::NasClient* nas() { return nas_ ? &*nas_ : nullptr; }
  [[nodiscard]] bool attached() const {
    return nas_.has_value() && nas_->registered();
  }

 private:
  ue::EsimStore esim_;
  Imsi primary_imsi_;
  std::unique_ptr<ue::MobilityModel> mobility_;
  std::optional<ue::NasClient> nas_;
};

}  // namespace dlte::core
