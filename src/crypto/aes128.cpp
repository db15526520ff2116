#include "crypto/aes128.h"

namespace dlte::crypto {

namespace {

constexpr std::uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr std::uint8_t kRcon[10] = {0x01, 0x02, 0x04, 0x08, 0x10,
                                    0x20, 0x40, 0x80, 0x1b, 0x36};

// Multiply by x (i.e. {02}) in GF(2^8) with the AES polynomial.
constexpr std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
}

// A column of the state is a big-endian word: row 0 in the top byte.
constexpr std::uint32_t be_word(std::uint8_t b0, std::uint8_t b1,
                                std::uint8_t b2, std::uint8_t b3) {
  return (std::uint32_t{b0} << 24) | (std::uint32_t{b1} << 16) |
         (std::uint32_t{b2} << 8) | b3;
}

constexpr std::uint8_t row(std::uint32_t column, int r) {
  return static_cast<std::uint8_t>(column >> (24 - 8 * r));
}

// T-tables: kTe[r][x] is the column that byte x entering row r of a column
// contributes after SubBytes and MixColumns, i.e. {02,01,01,03}·S[x]
// rotated down by r rows. A full round of one column is then four lookups
// XORed with the round key.
using TTable = std::array<std::uint32_t, 256>;
constexpr std::array<TTable, 4> make_t_tables() {
  std::array<TTable, 4> t{};
  for (std::size_t x = 0; x < 256; ++x) {
    const std::uint8_t s = kSbox[x];
    const std::uint8_t s2 = xtime(s);
    const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
    t[0][x] = be_word(s2, s, s, s3);
    t[1][x] = be_word(s3, s2, s, s);
    t[2][x] = be_word(s, s3, s2, s);
    t[3][x] = be_word(s, s, s3, s2);
  }
  return t;
}
constexpr std::array<TTable, 4> kTe = make_t_tables();

// ShiftRows moves row r of column c to column c - r, so the new column c
// takes row r from column c + r: a, b, c, d are those four columns.
std::uint32_t round_column(std::uint32_t a, std::uint32_t b, std::uint32_t c,
                           std::uint32_t d, std::uint32_t rk) {
  return kTe[0][row(a, 0)] ^ kTe[1][row(b, 1)] ^ kTe[2][row(c, 2)] ^
         kTe[3][row(d, 3)] ^ rk;
}

// SubBytes and ShiftRows without MixColumns: the last round, and (with
// a = b = c = d) the key schedule's SubWord.
constexpr std::uint32_t sub_rows(std::uint32_t a, std::uint32_t b,
                                 std::uint32_t c, std::uint32_t d) {
  return be_word(kSbox[row(a, 0)], kSbox[row(b, 1)], kSbox[row(c, 2)],
                 kSbox[row(d, 3)]);
}

std::uint32_t load_column(const std::uint8_t* p) {
  return be_word(p[0], p[1], p[2], p[3]);
}

void store_column(std::uint8_t* p, std::uint32_t column) {
  for (int r = 0; r < 4; ++r) p[r] = row(column, r);
}

}  // namespace

Aes128::Aes128(const Key128& key) {
  for (std::size_t i = 0; i < 4; ++i) {
    round_keys_[i] = load_column(key.data() + 4 * i);
  }
  for (std::size_t i = 4; i < round_keys_.size(); ++i) {
    std::uint32_t t = round_keys_[i - 1];
    if (i % 4 == 0) {
      // RotWord, SubWord and Rcon.
      t = (t << 8) | (t >> 24);
      t = sub_rows(t, t, t, t) ^ (std::uint32_t{kRcon[i / 4 - 1]} << 24);
    }
    round_keys_[i] = round_keys_[i - 4] ^ t;
  }
}

Block128 Aes128::encrypt(const Block128& plaintext) const {
  const std::uint32_t* rk = round_keys_.data();
  std::uint32_t s0 = load_column(plaintext.data()) ^ rk[0];
  std::uint32_t s1 = load_column(plaintext.data() + 4) ^ rk[1];
  std::uint32_t s2 = load_column(plaintext.data() + 8) ^ rk[2];
  std::uint32_t s3 = load_column(plaintext.data() + 12) ^ rk[3];
  for (int round = 1; round < 10; ++round) {
    rk += 4;
    const std::uint32_t t0 = round_column(s0, s1, s2, s3, rk[0]);
    const std::uint32_t t1 = round_column(s1, s2, s3, s0, rk[1]);
    const std::uint32_t t2 = round_column(s2, s3, s0, s1, rk[2]);
    const std::uint32_t t3 = round_column(s3, s0, s1, s2, rk[3]);
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }
  rk += 4;
  Block128 out;
  store_column(out.data(), sub_rows(s0, s1, s2, s3) ^ rk[0]);
  store_column(out.data() + 4, sub_rows(s1, s2, s3, s0) ^ rk[1]);
  store_column(out.data() + 8, sub_rows(s2, s3, s0, s1) ^ rk[2]);
  store_column(out.data() + 12, sub_rows(s3, s0, s1, s2) ^ rk[3]);
  return out;
}

Block128 xor_blocks(const Block128& a, const Block128& b) {
  Block128 out;
  for (std::size_t i = 0; i < 16; ++i) {
    out[i] = static_cast<std::uint8_t>(a[i] ^ b[i]);
  }
  return out;
}

}  // namespace dlte::crypto
