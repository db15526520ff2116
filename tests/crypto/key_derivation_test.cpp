#include "crypto/key_derivation.h"

#include <gtest/gtest.h>

namespace dlte::crypto {
namespace {

Ck128 test_ck() {
  Ck128 ck{};
  for (std::size_t i = 0; i < 16; ++i) ck[i] = static_cast<std::uint8_t>(i);
  return ck;
}

Ik128 test_ik() {
  Ik128 ik{};
  for (std::size_t i = 0; i < 16; ++i) {
    ik[i] = static_cast<std::uint8_t>(0xf0 + i);
  }
  return ik;
}

TEST(KeyDerivation, KasmeIsDeterministic) {
  const Sqn48 sa{1, 2, 3, 4, 5, 6};
  const auto k1 = derive_kasme(test_ck(), test_ik(), "dlte-ap-001", sa);
  const auto k2 = derive_kasme(test_ck(), test_ik(), "dlte-ap-001", sa);
  EXPECT_EQ(k1, k2);
}

// The serving-network binding: a session key derived for one AP is useless
// at another — this is what scopes a dLTE session to one local core even
// with published (open) subscriber keys.
TEST(KeyDerivation, KasmeBoundToServingNetwork) {
  const Sqn48 sa{1, 2, 3, 4, 5, 6};
  const auto k1 = derive_kasme(test_ck(), test_ik(), "dlte-ap-001", sa);
  const auto k2 = derive_kasme(test_ck(), test_ik(), "dlte-ap-002", sa);
  EXPECT_NE(k1, k2);
}

TEST(KeyDerivation, KasmeDependsOnSqn) {
  const auto k1 =
      derive_kasme(test_ck(), test_ik(), "net", Sqn48{0, 0, 0, 0, 0, 1});
  const auto k2 =
      derive_kasme(test_ck(), test_ik(), "net", Sqn48{0, 0, 0, 0, 0, 2});
  EXPECT_NE(k1, k2);
}

TEST(KeyDerivation, KenbDependsOnNasCount) {
  const auto kasme =
      derive_kasme(test_ck(), test_ik(), "net", Sqn48{1, 2, 3, 4, 5, 6});
  EXPECT_NE(derive_kenb(kasme, 0), derive_kenb(kasme, 1));
  EXPECT_EQ(derive_kenb(kasme, 7), derive_kenb(kasme, 7));
}

}  // namespace
}  // namespace dlte::crypto
