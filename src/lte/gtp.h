// GTP: the tunneling protocol between radio and core.
//
// GTP-U carries user IP packets through the access network. In telecom LTE
// every user packet is GTP-encapsulated all the way to the remote P-GW —
// the "trombone" of Fig. 1; in dLTE the tunnel terminates a few
// centimetres away in the AP's local core stub, and the encapsulation
// overhead + detour this module models is exactly what experiment F1
// quantifies. GTP-C is not modelled: the local core stub collapses the
// S11/S5 session set-up into function calls (§4.1).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/result.h"

namespace dlte::lte {

// GTP-U v1 header (simplified: no extension headers).
struct GtpUHeader {
  Teid teid;
  std::uint16_t length{0};      // Payload bytes.
  std::uint16_t sequence{0};
};

inline constexpr int kGtpUHeaderBytes = 12;
// Full per-packet tunnel overhead on the wire: outer IP + UDP + GTP-U.
inline constexpr int kGtpTunnelOverheadBytes = 20 + 8 + kGtpUHeaderBytes;

[[nodiscard]] std::vector<std::uint8_t> encode_gtpu(const GtpUHeader& h);
[[nodiscard]] Result<GtpUHeader> decode_gtpu(
    std::span<const std::uint8_t> bytes);

// One-line "teid=<t> seq=<s> len=<l>" description for span annotations.
[[nodiscard]] std::string gtpu_brief(const GtpUHeader& h);

}  // namespace dlte::lte
