// AES-128 block cipher (FIPS-197), encryption direction only.
//
// Milenage (the 3GPP authentication-and-key-agreement kernel) is defined
// purely in terms of AES-128 encryption, so decryption is intentionally
// not implemented. The state is four 32-bit big-endian column words; each
// of the nine full rounds is SubBytes+ShiftRows+MixColumns done as four
// lookups per column into 32-bit T-tables built from the S-box at compile
// time, and the last round goes through the S-box alone. The lookups are
// data-dependent, so this is not constant-time; side-channel hardening is
// out of scope for a simulator.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace dlte::crypto {

using Block128 = std::array<std::uint8_t, 16>;
using Key128 = std::array<std::uint8_t, 16>;

class Aes128 {
 public:
  explicit Aes128(const Key128& key);

  // Encrypt one 16-byte block (ECB, single block).
  [[nodiscard]] Block128 encrypt(const Block128& plaintext) const;

 private:
  // The 11 round keys as the 44 big-endian words w[0..43] of FIPS-197
  // §5.2.
  std::array<std::uint32_t, 44> round_keys_{};
};

// XOR of two 128-bit blocks; used pervasively by Milenage.
[[nodiscard]] Block128 xor_blocks(const Block128& a, const Block128& b);

}  // namespace dlte::crypto
