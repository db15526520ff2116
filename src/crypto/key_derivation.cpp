#include "crypto/key_derivation.h"

#include <cstring>

#include "crypto/sha256_internal.h"

namespace dlte::crypto {

namespace {
// The two-byte big-endian length L of a KDF parameter.
void put_length(std::uint8_t* out, std::size_t length) {
  out[0] = static_cast<std::uint8_t>(length >> 8);
  out[1] = static_cast<std::uint8_t>(length);
}
}  // namespace

Kasme derive_kasme(const Ck128& ck, const Ik128& ik,
                   std::string_view serving_network_id,
                   const Sqn48& sqn_xor_ak) {
  std::uint8_t key[32];
  std::memcpy(key, ck.data(), ck.size());
  std::memcpy(key + ck.size(), ik.data(), ik.size());

  // S = FC || P0 || L0 || P1 || L1, with P0 the serving network id and P1
  // SQN xor AK. P0 has no fixed size, so S goes to the MAC in three
  // pieces: FC, P0 as the caller's bytes, and L0 || P1 || L1.
  const std::uint8_t fc = 0x10;  // FC for KASME derivation.
  std::uint8_t rest[2 + 6 + 2];
  put_length(rest, serving_network_id.size());
  std::memcpy(rest + 2, sqn_xor_ak.data(), sqn_xor_ak.size());
  put_length(rest + 8, sqn_xor_ak.size());

  const auto* sn =
      reinterpret_cast<const std::uint8_t*>(serving_network_id.data());
  detail::HmacSha256 mac{detail::sha256_compress(), key};
  mac.update({&fc, 1});
  mac.update({sn, serving_network_id.size()});
  mac.update(rest);
  return mac.finish();
}

Digest256 derive_kenb(const Kasme& kasme, std::uint32_t nas_uplink_count) {
  // S = FC || uplink NAS COUNT || L0, with FC 0x11 for K_eNB derivation.
  std::uint8_t s[1 + 4 + 2] = {0x11};
  for (std::size_t i = 0; i < 4; ++i) {
    s[1 + i] = static_cast<std::uint8_t>(nas_uplink_count >> (24 - 8 * i));
  }
  put_length(s + 5, 4);
  return hmac_sha256(kasme, s);
}

}  // namespace dlte::crypto
