#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "crypto/sha256_internal.h"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace dlte::crypto {

namespace detail {

namespace {

alignas(16) constexpr std::uint32_t kK[64] = {
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

#if defined(__x86_64__)
// The SHA-NI compression. The state lives in two registers as ABEF and
// CDGH, the layout sha256rnds2 works on; each sha256rnds2 runs two rounds,
// and sha256msg1/msg2 extend the message schedule four words at a time.
__attribute__((target("sha,ssse3,sse4.1"))) void sha256_compress_ni(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t n_blocks) {
  // Byte-swaps each 32-bit word: the message is big-endian.
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0b, 0x0405060700010203);

  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  const auto* k = reinterpret_cast<const __m128i*>(kK);
  for (; n_blocks > 0; --n_blocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[g & 3] holds schedule words 4g..4g+3 for rounds 4g..4g+3: a ring
    // of the last four groups.
    const auto* in = reinterpret_cast<const __m128i*>(blocks);
    __m128i w[4];
    for (int g = 0; g < 4; ++g) {
      w[g] = _mm_shuffle_epi8(_mm_loadu_si128(in + g), bswap);
    }
    for (int g = 0; g < 16; ++g) {
      if (g >= 4) {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], four at
        // once; t7 holds W[t-7].
        __m128i& next = w[g & 3];
        const __m128i& prev = w[(g - 1) & 3];
        const __m128i t7 = _mm_alignr_epi8(prev, w[(g - 2) & 3], 4);
        next = _mm_sha256msg1_epu32(next, w[(g - 3) & 3]);
        next = _mm_sha256msg2_epu32(_mm_add_epi32(next, t7), prev);
      }
      const __m128i wk = _mm_add_epi32(w[g & 3], _mm_load_si128(k + g));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

bool cpu_has_sha_ni() {
  constexpr unsigned kLeaf1EcxSsse3 = 1u << 9;
  constexpr unsigned kLeaf1EcxSse41 = 1u << 19;
  constexpr unsigned kLeaf7EbxSha = 1u << 29;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & kLeaf1EcxSsse3) == 0 || (ecx & kLeaf1EcxSse41) == 0) {
    return false;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & kLeaf7EbxSha) != 0;
}
#endif

}  // namespace

void sha256_compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t n_blocks) {
  for (; n_blocks > 0; --n_blocks, blocks += 64) {
    const std::uint8_t* p = blocks;
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
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], hh = state[7];
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
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += hh;
  }
}

Sha256Compress sha256_compress() {
#if defined(__x86_64__)
  static const Sha256Compress chosen =
      cpu_has_sha_ni() ? sha256_compress_ni : sha256_compress_scalar;
  return chosen;
#else
  return sha256_compress_scalar;
#endif
}

void Sha256Stream::update(std::span<const std::uint8_t> data) {
  // An empty span's data() may be null, and memcpy from null is UB.
  if (data.empty()) return;
  total_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffered_ > 0) {
    const std::size_t take = std::min(n, sizeof buffer_ - buffered_);
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ < sizeof buffer_) return;
    compress_(h_, buffer_, 1);
    buffered_ = 0;
  }
  const std::size_t whole = n / 64;
  if (whole > 0) compress_(h_, p, whole);
  buffered_ = n - whole * 64;
  if (buffered_ > 0) std::memcpy(buffer_, p + whole * 64, buffered_);
}

Digest256 Sha256Stream::finish() {
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length, in one
  // block or, when fewer than 9 bytes are left, two.
  std::uint8_t tail[128] = {};
  if (buffered_ > 0) std::memcpy(tail, buffer_, buffered_);
  tail[buffered_] = 0x80;
  const std::size_t tail_len = buffered_ + 9 <= 64 ? 64 : 128;
  const std::uint64_t bit_len = total_ * 8;
  for (std::size_t b = 0; b < 8; ++b) {
    tail[tail_len - 1 - b] = static_cast<std::uint8_t>(bit_len >> (8 * b));
  }
  compress_(h_, tail, tail_len / 64);

  Digest256 out;
  for (std::size_t w = 0; w < 8; ++w) {
    out[w * 4 + 0] = static_cast<std::uint8_t>(h_[w] >> 24);
    out[w * 4 + 1] = static_cast<std::uint8_t>(h_[w] >> 16);
    out[w * 4 + 2] = static_cast<std::uint8_t>(h_[w] >> 8);
    out[w * 4 + 3] = static_cast<std::uint8_t>(h_[w]);
  }
  return out;
}

HmacSha256::HmacSha256(Sha256Compress compress,
                       std::span<const std::uint8_t> key)
    : compress_(compress), inner_(compress) {
  // K0: the key zero-padded to one block, or its digest if longer.
  std::uint8_t k0[64] = {};
  if (key.size() > sizeof k0) {
    Sha256Stream kh{compress};
    kh.update(key);
    const Digest256 digest = kh.finish();
    std::memcpy(k0, digest.data(), digest.size());
  } else if (!key.empty()) {
    std::memcpy(k0, key.data(), key.size());
  }
  std::uint8_t inner_pad[64] = {};
  for (std::size_t i = 0; i < sizeof k0; ++i) {
    inner_pad[i] = static_cast<std::uint8_t>(k0[i] ^ 0x36);
    outer_pad_[i] = static_cast<std::uint8_t>(k0[i] ^ 0x5c);
  }
  inner_.update(inner_pad);
}

Digest256 HmacSha256::finish() {
  const Digest256 inner_hash = inner_.finish();
  Sha256Stream outer{compress_};
  outer.update(outer_pad_);
  outer.update(inner_hash);
  return outer.finish();
}

}  // namespace detail

Digest256 sha256(std::span<const std::uint8_t> data) {
  detail::Sha256Stream stream{detail::sha256_compress()};
  stream.update(data);
  return stream.finish();
}

Digest256 hmac_sha256(std::span<const std::uint8_t> key,
                      std::span<const std::uint8_t> message) {
  detail::HmacSha256 mac{detail::sha256_compress(), key};
  mac.update(message);
  return mac.finish();
}

}  // namespace dlte::crypto
