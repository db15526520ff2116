#include "crypto/sha256.h"

#include <cstring>

namespace dlte::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

struct Sha256State {
  std::uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

  void process_block(const std::uint8_t* p) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(p[i * 4]) << 24) |
             (static_cast<std::uint32_t>(p[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(p[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(p[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
    std::uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = hh + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      hh = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
    h[5] += f;
    h[6] += g;
    h[7] += hh;
  }
};

}  // namespace

Digest256 sha256(std::span<const std::uint8_t> data) {
  Sha256State st;
  std::size_t i = 0;
  for (; i + 64 <= data.size(); i += 64) {
    st.process_block(data.data() + i);
  }
  // Final padded block(s).
  std::uint8_t tail[128] = {};
  const std::size_t rem = data.size() - i;
  // An empty span's data() may be null, and memcpy from null is UB.
  if (rem > 0) std::memcpy(tail, data.data() + i, rem);
  tail[rem] = 0x80;
  const std::size_t tail_len = rem + 9 <= 64 ? 64 : 128;
  const std::uint64_t bit_len = static_cast<std::uint64_t>(data.size()) * 8;
  for (int b = 0; b < 8; ++b) {
    tail[tail_len - 1 - static_cast<std::size_t>(b)] =
        static_cast<std::uint8_t>(bit_len >> (8 * b));
  }
  st.process_block(tail);
  if (tail_len == 128) st.process_block(tail + 64);

  Digest256 out;
  for (int w = 0; w < 8; ++w) {
    out[static_cast<std::size_t>(w * 4 + 0)] =
        static_cast<std::uint8_t>(st.h[w] >> 24);
    out[static_cast<std::size_t>(w * 4 + 1)] =
        static_cast<std::uint8_t>(st.h[w] >> 16);
    out[static_cast<std::size_t>(w * 4 + 2)] =
        static_cast<std::uint8_t>(st.h[w] >> 8);
    out[static_cast<std::size_t>(w * 4 + 3)] =
        static_cast<std::uint8_t>(st.h[w]);
  }
  return out;
}

Digest256 hmac_sha256(std::span<const std::uint8_t> key,
                      std::span<const std::uint8_t> message) {
  std::array<std::uint8_t, 64> k_block{};
  if (key.size() > 64) {
    const Digest256 kh = sha256(key);
    std::memcpy(k_block.data(), kh.data(), kh.size());
  } else {
    std::memcpy(k_block.data(), key.data(), key.size());
  }
  std::vector<std::uint8_t> inner;
  inner.reserve(64 + message.size());
  for (std::uint8_t b : k_block) inner.push_back(b ^ 0x36);
  inner.insert(inner.end(), message.begin(), message.end());
  const Digest256 inner_hash = sha256(inner);

  std::vector<std::uint8_t> outer;
  outer.reserve(64 + 32);
  for (std::uint8_t b : k_block) outer.push_back(b ^ 0x5c);
  outer.insert(outer.end(), inner_hash.begin(), inner_hash.end());
  return sha256(outer);
}

}  // namespace dlte::crypto
