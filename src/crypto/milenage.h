// Milenage authentication-and-key-agreement kernel (3GPP TS 35.205/35.206).
//
// The HSS uses f1–f5 to build authentication vectors; the USIM uses the
// same functions to verify the network and answer the challenge. Both
// take the functions from one Milenage::Challenge per RAND, which holds
// the TEMP block they all share. dLTE's
// "open key" mode (paper §4.2) publishes K/OPc in the registry so any AP's
// local core can run this same procedure — the cryptography is unchanged,
// only the key distribution differs.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/aes128.h"

namespace dlte::crypto {

using Rand128 = Block128;
using Sqn48 = std::array<std::uint8_t, 6>;
using Amf16 = std::array<std::uint8_t, 2>;
using Mac64 = std::array<std::uint8_t, 8>;
using Res64 = std::array<std::uint8_t, 8>;
using Ak48 = std::array<std::uint8_t, 6>;
using Ck128 = Block128;
using Ik128 = Block128;

// Derive OPc from the operator variant constant OP and subscriber key K:
//   OPc = OP xor E_K(OP).
[[nodiscard]] Block128 derive_opc(const Key128& k, const Block128& op);

class Milenage {
 public:
  // K is the subscriber secret key; opc the precomputed operator constant.
  Milenage(const Key128& k, const Block128& opc);

  struct F1Output {
    // Network authentication code (f1). Re-synchronisation (f1*) is not
    // modelled.
    Mac64 mac_a;
  };
  struct F2F5Output {
    Res64 res;  // Expected user response (f2).
    Ak48 ak;    // Anonymity key (f5).
  };

  // The functions of one RAND. Every one of them starts from
  // TEMP = E_K(RAND xor OPc), so a Challenge computes TEMP once, at
  // construction, and each function costs one more AES block: an HSS
  // vector or a USIM answer (f1, f2/f5, f3, f4) is 5 blocks. A Challenge
  // refers to its Milenage and must not outlive it.
  class Challenge {
   public:
    [[nodiscard]] F1Output f1(const Sqn48& sqn, const Amf16& amf) const;
    [[nodiscard]] F2F5Output f2_f5() const;
    // The cipher key (f3) and the integrity key (f4). Re-synchronisation
    // (f5*) is not modelled.
    [[nodiscard]] Ck128 f3() const;
    [[nodiscard]] Ik128 f4() const;

   private:
    friend class Milenage;
    Challenge(const Milenage& m, const Block128& temp) : m_(&m), temp_(temp) {}

    [[nodiscard]] Block128 out_block(int rotate_bits,
                                     std::uint8_t c_last_byte) const;

    const Milenage* m_;
    Block128 temp_;
  };

  [[nodiscard]] Challenge challenge(const Rand128& rand) const&;
  // A Challenge of a temporary Milenage would dangle.
  Challenge challenge(const Rand128& rand) const&& = delete;

 private:
  Aes128 cipher_;
  Block128 opc_;
};

}  // namespace dlte::crypto
