// Planar geometry for site placement and mobility.
//
// dLTE deployments are modelled on a local tangent plane in meters; at the
// scales involved (a rural town to a few tens of km) earth curvature is
// irrelevant to propagation modelling.
#pragma once

#include <cmath>

namespace dlte {

struct Position {
  double x_m{0.0};
  double y_m{0.0};

  friend constexpr bool operator==(Position, Position) = default;
};

[[nodiscard]] inline double distance_m(Position a, Position b) {
  const double dx = a.x_m - b.x_m;
  const double dy = a.y_m - b.y_m;
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace dlte
