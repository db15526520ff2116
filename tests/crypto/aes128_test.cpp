#include "crypto/aes128.h"

#include <gtest/gtest.h>

#include <string>

namespace dlte::crypto {
namespace {

Block128 from_hex(const std::string& hex) {
  Block128 out{};
  for (std::size_t i = 0; i < 16; ++i) {
    out[i] = static_cast<std::uint8_t>(
        std::stoul(hex.substr(i * 2, 2), nullptr, 16));
  }
  return out;
}

std::string to_hex(const Block128& b) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (std::uint8_t byte : b) {
    s += digits[byte >> 4];
    s += digits[byte & 0xf];
  }
  return s;
}

// FIPS-197 Appendix C.1 known-answer vector.
TEST(Aes128, Fips197AppendixC1) {
  const Key128 key = from_hex("000102030405060708090a0b0c0d0e0f");
  const Block128 pt = from_hex("00112233445566778899aabbccddeeff");
  Aes128 aes{key};
  EXPECT_EQ(to_hex(aes.encrypt(pt)), "69c4e0d86a7b0430d8cdb78070b4c55a");
}

// FIPS-197 Appendix B example.
TEST(Aes128, Fips197AppendixB) {
  const Key128 key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block128 pt = from_hex("3243f6a8885a308d313198a2e0370734");
  Aes128 aes{key};
  EXPECT_EQ(to_hex(aes.encrypt(pt)), "3925841d02dc09fbdc118597196a0b32");
}

// NIST SP 800-38A F.1.1 (ECB-AES128), block 1.
TEST(Aes128, Sp80038aF11Block1) {
  const Key128 key = from_hex("2b7e151628aed2a6abf7158809cf4f3c");
  const Block128 pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  Aes128 aes{key};
  EXPECT_EQ(to_hex(aes.encrypt(pt)), "3ad77bb40d7a3660a89ecaf32466ef97");
}

TEST(Aes128, DifferentKeysDifferentCiphertext) {
  const Block128 pt = from_hex("00000000000000000000000000000000");
  Aes128 a{from_hex("00000000000000000000000000000001")};
  Aes128 b{from_hex("00000000000000000000000000000002")};
  EXPECT_NE(to_hex(a.encrypt(pt)), to_hex(b.encrypt(pt)));
}

TEST(Aes128, DeterministicEncryption) {
  const Key128 key = from_hex("465b5ce8b199b49faa5f0a2ee238a6bc");
  const Block128 pt = from_hex("23553cbe9637a89d218ae64dae47bf35");
  Aes128 aes{key};
  EXPECT_EQ(to_hex(aes.encrypt(pt)), to_hex(aes.encrypt(pt)));
}

TEST(XorBlocks, BasicProperties) {
  const Block128 a = from_hex("ffffffffffffffffffffffffffffffff");
  const Block128 b = from_hex("0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f");
  EXPECT_EQ(to_hex(xor_blocks(a, b)), "f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0");
  EXPECT_EQ(to_hex(xor_blocks(a, a)), "00000000000000000000000000000000");
}

}  // namespace
}  // namespace dlte::crypto
