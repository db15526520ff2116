// NAS (Non-Access Stratum) messages: the UE ↔ core control dialogue.
//
// This is the protocol a standard handset speaks regardless of who runs
// the core — which is exactly the compatibility constraint dLTE's local
// core stub must honour (§4.1: "the AP must perform all functions the
// client expects from a standard EPC"). The subset implemented covers
// attach, EPS-AKA mutual authentication, security mode, session setup and
// detach. Wire format is a simplified but fully round-trippable encoding.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "crypto/milenage.h"

namespace dlte::lte {

// AUTN = SQN⊕AK (6) || AMF (2) || MAC-A (8), per TS 33.401.
struct Autn {
  std::array<std::uint8_t, 6> sqn_xor_ak{};
  crypto::Amf16 amf{};
  crypto::Mac64 mac_a{};
};

struct AttachRequest {
  Imsi imsi;  // Cleartext IMSI attach (GUTI attach via tmsi when nonzero).
  Tmsi tmsi{0};
};

struct AuthenticationRequest {
  crypto::Rand128 rand{};
  Autn autn{};
};

struct AuthenticationResponse {
  crypto::Res64 res{};
};

struct AuthenticationReject {};

struct SecurityModeCommand {
  std::uint8_t integrity_algorithm{1};  // EIA1-like.
  std::uint8_t ciphering_algorithm{1};  // EEA1-like.
};

struct SecurityModeComplete {};

struct AttachAccept {
  Tmsi tmsi;
  std::uint32_t ue_ip{0};     // Assigned IPv4 (PDN address).
  BearerId default_bearer{5};
};

struct AttachComplete {};

struct AttachReject {
  std::uint8_t cause{0};
};

using NasMessage =
    std::variant<AttachRequest, AuthenticationRequest, AuthenticationResponse,
                 AuthenticationReject, SecurityModeCommand,
                 SecurityModeComplete, AttachAccept, AttachComplete,
                 AttachReject>;

[[nodiscard]] std::vector<std::uint8_t> encode_nas(const NasMessage& message);
// The same bytes written over `out`, reusing its capacity.
void encode_nas(const NasMessage& message, std::vector<std::uint8_t>& out);
[[nodiscard]] Result<NasMessage> decode_nas(
    std::span<const std::uint8_t> bytes);

// Human-readable message name, for traces and tests.
[[nodiscard]] const char* nas_message_name(const NasMessage& message);

// One-line description with the salient fields (IMSI, cause, UE IP, …)
// — what span annotations record so a trace shows *which* NAS exchange
// happened, not just that one did.
[[nodiscard]] std::string nas_brief(const NasMessage& message);

}  // namespace dlte::lte
