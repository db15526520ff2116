// EPS key hierarchy derivation (3GPP TS 33.401 Annex A style).
//
// KASME is derived from CK/IK and the serving network identity with the
// standard FC-prefixed HMAC-SHA-256 KDF; the eNodeB key descends from it
// (NAS security is not simulated, so NAS keys are not derived). In dLTE
// each AP's local core is its own "serving network", so the
// serving-network binding is what scopes a session key to one AP.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "crypto/milenage.h"
#include "crypto/sha256.h"

namespace dlte::crypto {

using Kasme = Digest256;  // 256-bit root session key.

// KDF input framing per TS 33.401: FC byte, then (parameter, 2-byte length)
// pairs, keyed by CK || IK.
[[nodiscard]] Kasme derive_kasme(const Ck128& ck, const Ik128& ik,
                                 std::string_view serving_network_id,
                                 const Sqn48& sqn_xor_ak);

// K_eNB derived from KASME and the NAS uplink count.
[[nodiscard]] Digest256 derive_kenb(const Kasme& kasme,
                                    std::uint32_t nas_uplink_count);

}  // namespace dlte::crypto
