// Radio propagation models.
//
// The paper's §3.2 argument — that LTE's sub-GHz bands cover rural areas
// far better than WiFi's 2.4/5 GHz ISM bands — is a propagation argument,
// so these models carry the load for experiments C1/C2/F2. Implemented:
//
//  * Free-space (Friis) — reference/best case.
//  * Log-distance — tunable exponent, used for ISM-band outdoor links.
//  * Okumura-Hata — the classic empirical macro-cell model, valid
//    150–1500 MHz (covers LTE bands 5/31 and TV whitespace).
//  * COST-231-Hata — the 1500–2000 MHz extension (covers midband LTE;
//    we extrapolate mildly to 2.6 GHz as is common practice).
//
// Both Hata models are the open-rural variant: every deployment the
// paper studies (§5) is a rural site.
//
// All models return a positive path loss in dB.
#pragma once

#include <memory>

#include "common/units.h"

namespace dlte::phy {

// Geometry and antenna heights for one link.
struct LinkGeometry {
  double distance_m{1.0};
  double base_height_m{30.0};    // Transmitter / basestation height.
  double mobile_height_m{1.5};   // Receiver / handset height.
};

class PropagationModel {
 public:
  virtual ~PropagationModel() = default;
  [[nodiscard]] virtual Decibels path_loss(Hertz frequency,
                                           const LinkGeometry& geo) const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
};

class FreeSpaceModel final : public PropagationModel {
 public:
  [[nodiscard]] Decibels path_loss(Hertz frequency,
                                   const LinkGeometry& geo) const override;
  [[nodiscard]] const char* name() const override { return "free-space"; }
};

class LogDistanceModel final : public PropagationModel {
 public:
  // Free-space loss up to `reference_m`, then 10*n*log10(d/ref) beyond.
  explicit LogDistanceModel(double exponent, double reference_m = 1.0)
      : exponent_(exponent), reference_m_(reference_m) {}

  [[nodiscard]] Decibels path_loss(Hertz frequency,
                                   const LinkGeometry& geo) const override;
  [[nodiscard]] const char* name() const override { return "log-distance"; }

 private:
  double exponent_;
  double reference_m_;
};

class OkumuraHataModel final : public PropagationModel {
 public:
  [[nodiscard]] Decibels path_loss(Hertz frequency,
                                   const LinkGeometry& geo) const override;
  [[nodiscard]] const char* name() const override { return "okumura-hata"; }
};

class Cost231HataModel final : public PropagationModel {
 public:
  [[nodiscard]] Decibels path_loss(Hertz frequency,
                                   const LinkGeometry& geo) const override;
  [[nodiscard]] const char* name() const override { return "cost231-hata"; }
};

// Picks the customary model for a carrier frequency in a rural/open
// deployment: Okumura-Hata below 1.5 GHz, COST-231-Hata to 2.6 GHz,
// log-distance (n = 3.0) above — covering 5 GHz ISM.
[[nodiscard]] std::unique_ptr<PropagationModel> make_rural_model(
    Hertz frequency);

}  // namespace dlte::phy
