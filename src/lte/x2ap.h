// X2AP: the peer-to-peer eNodeB ↔ eNodeB interface, plus dLTE extensions.
//
// Standard X2 already lets eNodeBs exchange handover context and load /
// interference information peer-to-peer [19]. The paper's §4.3 proposes
// running "a version of X2 extended with information about the dLTE
// operating mode and dLTE peer status" between *administratively
// independent* APs over the Internet. The extension IEs here are exactly
// that: hello/mode negotiation, periodic peer status, and the
// time-frequency share agreements of fair-sharing mode.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "common/result.h"

namespace dlte::lte {

// ------------------------------------------------------- Standard X2 --

struct X2HandoverRequest {
  CellId source_cell;
  CellId target_cell;
  Imsi imsi;
  Tmsi tmsi;
  // Forwarded security context (K_eNB*), opaque here.
  std::vector<std::uint8_t> security_context;
};

struct X2HandoverRequestAck {
  CellId target_cell;
  Imsi imsi;
  Teid forwarding_teid;  // For downlink data forwarding during HO.
  // dLTE extension: the target AP's address assignment for the UE. dLTE
  // never hides the address change (§4.2); signalling it in the ack lets
  // the endpoint transport rebind without waiting for DHCP-style setup.
  std::uint32_t new_ue_ip{0};
};

struct X2UeContextRelease {
  CellId source_cell;
  Imsi imsi;
};

// Periodic load report (standard X2 Load Information / Resource Status).
struct X2LoadInformation {
  CellId cell;
  double prb_utilization{0.0};   // 0..1.
  std::uint32_t active_ues{0};
};

// ------------------------------------------------------ dLTE extension --

// Coordination posture of an AP (§4.3): fair sharing achieves a WiFi-like
// equilibrium with minimal exchange; cooperative mode fuses resources.
// The coexistence modes (DESIGN.md §12) apply when the granted band is
// unlicensed spectrum shared with WiFi BSSs the registry knows about:
// arbitration then happens on the air (coex/shared_channel.h), not in X2
// share rounds, so coordinators in these modes stop leading rounds.
enum class DlteMode : std::uint8_t {
  kIsolated = 0,     // No peering (legacy-WiFi-like independence).
  kFairShare = 1,
  kCooperative = 2,
  kLbt = 3,          // LAA-style listen-before-talk on a shared band.
  kDutyCycle = 4,    // CSAT-style on/off airtime sharing.
};

// True for the modes that arbitrate a WiFi-shared channel on the air.
[[nodiscard]] constexpr bool is_coexistence_mode(DlteMode mode) {
  return mode == DlteMode::kLbt || mode == DlteMode::kDutyCycle;
}

struct DlteHello {
  ApId ap;
  DlteMode mode{DlteMode::kFairShare};
  std::string operator_contact;  // The license registry's recourse channel.
};

struct DltePeerStatus {
  ApId ap;
  DlteMode mode{DlteMode::kFairShare};
  double offered_load{0.0};      // Demand estimate (0..1 of a full cell).
  double prb_utilization{0.0};
  std::uint32_t active_ues{0};
};

// Proposed time-frequency split for one contention domain: share[i] is
// the PRB fraction for member ap_ids[i]. Sums to ≤ 1.
struct DlteShareProposal {
  std::uint32_t round{0};
  std::vector<std::uint32_t> ap_ids;
  std::vector<double> shares;
};

struct DlteShareAccept {
  std::uint32_t round{0};
  ApId ap;
};

using X2Message =
    std::variant<X2HandoverRequest, X2HandoverRequestAck, X2UeContextRelease,
                 X2LoadInformation, DlteHello, DltePeerStatus,
                 DlteShareProposal, DlteShareAccept>;

[[nodiscard]] std::vector<std::uint8_t> encode_x2(const X2Message& m);
[[nodiscard]] Result<X2Message> decode_x2(std::span<const std::uint8_t> bytes);

// SCTP/IP framing a message carries on the backhaul, on top of its
// encoded bytes.
inline constexpr int kX2FramingBytes = 48;

// Wire size of a message (bytes): its encoded size plus kX2FramingBytes,
// computed without encoding it. Used by the C7 X2-bandwidth experiment.
[[nodiscard]] int x2_wire_size(const X2Message& m);

}  // namespace dlte::lte
