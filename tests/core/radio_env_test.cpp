#include "core/radio_env.h"

#include <gtest/gtest.h>

#include "phy/lte_amc.h"

namespace dlte::core {
namespace {

CellSiteConfig cell_at(std::uint32_t id, double x_m,
                       double freq_mhz = 850.0) {
  CellSiteConfig c;
  c.id = CellId{id};
  c.position = Position{x_m, 0.0};
  c.frequency = Hertz::mhz(freq_mhz);
  return c;
}

TEST(RadioEnv, RsrpDecreasesWithDistance) {
  RadioEnvironment env;
  env.add_cell(cell_at(1, 0.0));
  double prev = 100.0;
  for (double d : {500.0, 1000.0, 3000.0, 8000.0}) {
    const double p = env.rsrp(CellId{1}, Position{d, 0.0}).value();
    EXPECT_LT(p, prev);
    prev = p;
  }
}

TEST(RadioEnv, BestCellIsNearest) {
  RadioEnvironment env;
  env.add_cell(cell_at(1, 0.0));
  env.add_cell(cell_at(2, 10'000.0));
  EXPECT_EQ(env.best_cell(Position{1'000.0, 0.0}), CellId{1});
  EXPECT_EQ(env.best_cell(Position{9'000.0, 0.0}), CellId{2});
}

TEST(RadioEnv, NoCellInRangeReturnsNothing) {
  RadioEnvironment env;
  env.add_cell(cell_at(1, 0.0));
  EXPECT_FALSE(env.best_cell(Position{500'000.0, 0.0}).has_value());
  EXPECT_FALSE(RadioEnvironment{}.best_cell(Position{}).has_value());
}

TEST(RadioEnv, UncoordinatedCochannelNeighborsInterfere) {
  RadioEnvironment env;
  env.add_cell(cell_at(1, 0.0));
  const Position ue{2'000.0, 0.0};
  const double clean = env.downlink_sinr(CellId{1}, ue).value();
  env.add_cell(cell_at(2, 6'000.0));
  const double interfered = env.downlink_sinr(CellId{1}, ue).value();
  EXPECT_LT(interfered, clean - 3.0);
}

TEST(RadioEnv, CoordinationRemovesMutualInterference) {
  RadioEnvironment env;
  env.add_cell(cell_at(1, 0.0));
  env.add_cell(cell_at(2, 6'000.0));
  const Position ue{2'000.0, 0.0};
  const double interfered = env.downlink_sinr(CellId{1}, ue).value();
  env.set_coordinated(CellId{1}, true);
  env.set_coordinated(CellId{2}, true);
  const double coordinated = env.downlink_sinr(CellId{1}, ue).value();
  EXPECT_GT(coordinated, interfered + 3.0);
}

TEST(RadioEnv, OneSidedCoordinationDoesNotHelp) {
  RadioEnvironment env;
  env.add_cell(cell_at(1, 0.0));
  env.add_cell(cell_at(2, 6'000.0));
  env.set_coordinated(CellId{1}, true);  // Peer refuses.
  const Position ue{2'000.0, 0.0};
  env.set_coordinated(CellId{2}, false);
  const double one_sided = env.downlink_sinr(CellId{1}, ue).value();
  env.set_coordinated(CellId{2}, true);
  const double mutual = env.downlink_sinr(CellId{1}, ue).value();
  EXPECT_LT(one_sided, mutual);
}

TEST(RadioEnv, DifferentBandsDoNotInterfere) {
  RadioEnvironment env;
  env.add_cell(cell_at(1, 0.0, 850.0));
  const Position ue{2'000.0, 0.0};
  const double clean = env.downlink_sinr(CellId{1}, ue).value();
  env.add_cell(cell_at(2, 6'000.0, 900.0));
  const double with_other_band = env.downlink_sinr(CellId{1}, ue).value();
  EXPECT_NEAR(with_other_band, clean, 0.01);
}

TEST(RadioEnv, CellAccessors) {
  RadioEnvironment env;
  env.add_cell(cell_at(7, 1'000.0));
  EXPECT_TRUE(env.has_cell(CellId{7}));
  EXPECT_FALSE(env.has_cell(CellId{8}));
  EXPECT_DOUBLE_EQ(env.cell_distance_m(CellId{7}, Position{4'000.0, 0.0}),
                   3'000.0);
}

}  // namespace
}  // namespace dlte::core
