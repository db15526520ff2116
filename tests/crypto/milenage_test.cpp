#include "crypto/milenage.h"

#include <gtest/gtest.h>

#include <string>

namespace dlte::crypto {
namespace {

template <std::size_t N>
std::array<std::uint8_t, N> from_hex_n(const std::string& hex) {
  std::array<std::uint8_t, N> out{};
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = static_cast<std::uint8_t>(
        std::stoul(hex.substr(i * 2, 2), nullptr, 16));
  }
  return out;
}

template <std::size_t N>
std::string to_hex(const std::array<std::uint8_t, N>& b) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (std::uint8_t byte : b) {
    s += digits[byte >> 4];
    s += digits[byte & 0xf];
  }
  return s;
}

// 3GPP TS 35.207 §4 Test Set 1.
struct TestSet1 {
  Key128 k = from_hex_n<16>("465b5ce8b199b49faa5f0a2ee238a6bc");
  Rand128 rand = from_hex_n<16>("23553cbe9637a89d218ae64dae47bf35");
  Sqn48 sqn = from_hex_n<6>("ff9bb4d0b607");
  Amf16 amf = from_hex_n<2>("b9b9");
  Block128 op = from_hex_n<16>("cdc202d5123e20f62b6d676ac72cb318");
};

TEST(Milenage, OpcDerivation) {
  TestSet1 t;
  EXPECT_EQ(to_hex(derive_opc(t.k, t.op)),
            "cd63cb71954a9f4e48a5994e37a02baf");
}

TEST(Milenage, F1MacA) {
  TestSet1 t;
  const Milenage m{t.k, derive_opc(t.k, t.op)};
  const auto out = m.challenge(t.rand).f1(t.sqn, t.amf);
  EXPECT_EQ(to_hex(out.mac_a), "4a9ffac354dfafb3");
}

TEST(Milenage, F2Response) {
  TestSet1 t;
  const Milenage m{t.k, derive_opc(t.k, t.op)};
  EXPECT_EQ(to_hex(m.challenge(t.rand).f2_f5().res), "a54211d5e3ba50bf");
}

TEST(Milenage, F5AnonymityKey) {
  TestSet1 t;
  const Milenage m{t.k, derive_opc(t.k, t.op)};
  EXPECT_EQ(to_hex(m.challenge(t.rand).f2_f5().ak), "aa689c648370");
}

TEST(Milenage, F3CipherKey) {
  TestSet1 t;
  const Milenage m{t.k, derive_opc(t.k, t.op)};
  EXPECT_EQ(to_hex(m.challenge(t.rand).f3()),
            "b40ba9a3c58b2a05bbf0d987b21bf8cb");
}

TEST(Milenage, F4IntegrityKey) {
  TestSet1 t;
  const Milenage m{t.k, derive_opc(t.k, t.op)};
  EXPECT_EQ(to_hex(m.challenge(t.rand).f4()),
            "f769bcd751044604127672711c6d3441");
}

// The mutual-authentication property dLTE's open-key mode rests on: any
// party holding (K, OPc) — e.g. an AP that fetched published keys from
// the registry — computes the same vector the USIM expects.
TEST(Milenage, TwoPartiesAgree) {
  TestSet1 t;
  const Block128 opc = derive_opc(t.k, t.op);
  const Milenage hss{t.k, opc};
  const Milenage usim{t.k, opc};
  const auto hc = hss.challenge(t.rand);
  const auto uc = usim.challenge(t.rand);
  EXPECT_EQ(to_hex(hc.f2_f5().res), to_hex(uc.f2_f5().res));
  EXPECT_EQ(to_hex(hc.f3()), to_hex(uc.f3()));
  EXPECT_EQ(to_hex(hc.f1(t.sqn, t.amf).mac_a),
            to_hex(uc.f1(t.sqn, t.amf).mac_a));
}

TEST(Milenage, WrongKeyFailsAgreement) {
  TestSet1 t;
  const Block128 opc = derive_opc(t.k, t.op);
  Key128 wrong = t.k;
  wrong[0] ^= 0x01;
  const Milenage hss{t.k, opc};
  const Milenage impostor{wrong, opc};
  EXPECT_NE(to_hex(hss.challenge(t.rand).f2_f5().res),
            to_hex(impostor.challenge(t.rand).f2_f5().res));
}

// One Milenage serves many challenges: each RAND gets its own TEMP, and a
// challenge's outputs do not depend on which challenges came before it.
TEST(Milenage, ChallengesAreIndependent) {
  TestSet1 t;
  const Milenage m{t.k, derive_opc(t.k, t.op)};
  Rand128 other = t.rand;
  other[15] ^= 0x01;
  const auto first = m.challenge(t.rand);
  const auto second = m.challenge(other);
  EXPECT_NE(to_hex(first.f3()), to_hex(second.f3()));
  EXPECT_EQ(to_hex(first.f3()), "b40ba9a3c58b2a05bbf0d987b21bf8cb");
  EXPECT_EQ(to_hex(m.challenge(other).f3()), to_hex(second.f3()));
}

}  // namespace
}  // namespace dlte::crypto
