#include <gtest/gtest.h>

#include "ue/mobility.h"
#include "ue/usim.h"

namespace dlte::ue {
namespace {

SimProfile open_profile() {
  crypto::Key128 k{};
  k[0] = 0x46;
  crypto::Block128 op{};
  op[0] = 0xcd;
  return SimProfile{Imsi{100}, k, crypto::derive_opc(k, op), true, "dlte"};
}

SimProfile carrier_profile() {
  crypto::Key128 k{};
  k[0] = 0x99;
  crypto::Block128 op{};
  return SimProfile{Imsi{200}, k, crypto::derive_opc(k, op), false,
                    "carrier"};
}

TEST(EsimStore, HoldsMultipleIdentities) {
  // §4.2: an open dLTE SIM alongside a secured carrier SIM.
  EsimStore store;
  store.add_profile(open_profile());
  store.add_profile(carrier_profile());
  ASSERT_NE(store.find_open(), nullptr);
  EXPECT_EQ(store.find_open()->imsi, Imsi{100});
  ASSERT_NE(store.find_by_imsi(Imsi{200}), nullptr);
  EXPECT_FALSE(store.find_by_imsi(Imsi{200})->open_identity);
  EXPECT_EQ(store.find_by_imsi(Imsi{300}), nullptr);
}

TEST(EsimStore, NoOpenProfile) {
  EsimStore store;
  store.add_profile(carrier_profile());
  EXPECT_EQ(store.find_open(), nullptr);
}

TEST(Usim, RejectsForgedAutn) {
  Usim usim{open_profile()};
  crypto::Rand128 rand{};
  lte::Autn forged{};  // All zeros: MAC cannot match.
  auto result = usim.run_aka(rand, forged, "net");
  EXPECT_FALSE(result.ok());
}

TEST(StaticMobility, NeverMoves) {
  StaticMobility m{Position{10.0, 20.0}};
  m.advance(Duration::seconds(100.0));
  EXPECT_EQ(m.position(), (Position{10.0, 20.0}));
}

TEST(LinearMobility, MovesAtConfiguredSpeed) {
  LinearMobility m{Position{0.0, 0.0}, 10.0, 0.0};
  m.advance(Duration::seconds(5.0));
  EXPECT_NEAR(m.position().x_m, 50.0, 1e-9);
  EXPECT_NEAR(m.position().y_m, 0.0, 1e-9);
}

TEST(LinearMobility, DiagonalSpeed) {
  // 5 m/s along (3, 4): 10 m in 2 s.
  LinearMobility m{Position{0.0, 0.0}, 3.0, 4.0};
  m.advance(Duration::seconds(2.0));
  EXPECT_NEAR(m.position().x_m, 6.0, 1e-9);
  EXPECT_NEAR(m.position().y_m, 8.0, 1e-9);
}

}  // namespace
}  // namespace dlte::ue
