// UE mobility models.
//
// The C5 experiment sweeps a UE down a road through a string of APs at
// increasing speed until its dwell time per AP approaches the RTT to the
// OTT service — the breakdown regime the paper itself predicts for dLTE
// (§4.2).
#pragma once

#include <cmath>

#include "common/geo.h"
#include "common/time.h"

namespace dlte::ue {

class MobilityModel {
 public:
  virtual ~MobilityModel() = default;
  // Advance the model by dt and return the new position.
  virtual Position advance(Duration dt) = 0;
  [[nodiscard]] virtual Position position() const = 0;
};

class StaticMobility final : public MobilityModel {
 public:
  explicit StaticMobility(Position p) : pos_(p) {}
  Position advance(Duration) override { return pos_; }
  [[nodiscard]] Position position() const override { return pos_; }

 private:
  Position pos_;
};

// Constant-velocity straight-line motion (vehicle on a road).
class LinearMobility final : public MobilityModel {
 public:
  LinearMobility(Position start, double vx_mps, double vy_mps)
      : pos_(start), vx_(vx_mps), vy_(vy_mps) {}

  Position advance(Duration dt) override {
    pos_.x_m += vx_ * dt.to_seconds();
    pos_.y_m += vy_ * dt.to_seconds();
    return pos_;
  }
  [[nodiscard]] Position position() const override { return pos_; }
  [[nodiscard]] double speed_mps() const {
    return std::sqrt(vx_ * vx_ + vy_ * vy_);
  }

 private:
  Position pos_;
  double vx_;
  double vy_;
};

}  // namespace dlte::ue
