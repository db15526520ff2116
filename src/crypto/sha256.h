// SHA-256 and HMAC-SHA-256 (FIPS-180-4 / RFC 2104).
//
// Used by the key-derivation function (3GPP TS 33.401 Annex A style) that
// turns CK/IK from Milenage into the session key hierarchy, and by the
// blockchain-like registry's block hashing.
//
// There are two block compressions, chosen once from CPUID: on x86-64
// CPUs with the SHA extensions (plus SSSE3 and SSE4.1) it runs on the
// SHA-NI instructions, elsewhere it is the portable scalar one, which is
// also the reference the tests check the other against. Both give the
// same digest. HMAC streams its key block and message through the
// compression without a heap allocation.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace dlte::crypto {

using Digest256 = std::array<std::uint8_t, 32>;

[[nodiscard]] Digest256 sha256(std::span<const std::uint8_t> data);

[[nodiscard]] Digest256 hmac_sha256(std::span<const std::uint8_t> key,
                                    std::span<const std::uint8_t> message);

}  // namespace dlte::crypto
