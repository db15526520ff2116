// Internals of sha256.cpp, shared with the key derivation and the tests:
// the SHA-256 compressions and the streaming SHA-256 and HMAC states that
// run on one of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "crypto/sha256.h"

namespace dlte::crypto::detail {

// Folds `n_blocks` consecutive 64-byte blocks into the eight-word chaining
// state.
using Sha256Compress = void (*)(std::uint32_t* state,
                                const std::uint8_t* blocks,
                                std::size_t n_blocks);

// The FIPS-180-4 §6.2.2 compression in portable C++: the only path on a
// CPU without the SHA extensions, and the reference the other path is
// tested against.
void sha256_compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t n_blocks);

// The compression sha256() and hmac_sha256() run: on x86-64 the one on
// the SHA-NI instructions when CPUID reports SHA, SSSE3 and SSE4.1, else
// the scalar one. Chosen once, on first use.
[[nodiscard]] Sha256Compress sha256_compress();

// Incremental SHA-256 over one compression: whole blocks of the input go
// straight to the compression, only a partial block is buffered.
class Sha256Stream {
 public:
  explicit Sha256Stream(Sha256Compress compress) : compress_(compress) {}

  void update(std::span<const std::uint8_t> data);
  // Pads the message and returns its digest; the stream is spent after.
  [[nodiscard]] Digest256 finish();

 private:
  Sha256Compress compress_;
  std::uint32_t h_[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::uint8_t buffer_[64] = {};
  std::size_t buffered_ = 0;
  std::uint64_t total_ = 0;
};

// HMAC-SHA-256 (RFC 2104) of a message fed in pieces, so a caller can
// MAC a framed string without concatenating it first.
class HmacSha256 {
 public:
  HmacSha256(Sha256Compress compress, std::span<const std::uint8_t> key);

  void update(std::span<const std::uint8_t> data) { inner_.update(data); }
  // Returns the MAC; like Sha256Stream::finish, it ends the stream.
  [[nodiscard]] Digest256 finish();

 private:
  Sha256Compress compress_;
  std::uint8_t outer_pad_[64] = {};  // K0 xor opad.
  Sha256Stream inner_;
};

}  // namespace dlte::crypto::detail
