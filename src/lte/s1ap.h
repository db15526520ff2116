// S1AP: the eNodeB ↔ MME control interface.
//
// In telecom LTE these messages cross the backhaul to a distant core; in
// dLTE the same dialogue happens in-process between the eNodeB and the
// AP's local core stub (§4.1). Using one codec for both deployments keeps
// the architectural comparison honest: the *protocol work* is identical,
// only the distance differs.
#pragma once

#include <cstdint>
#include <span>
#include <variant>
#include <vector>

#include "common/ids.h"
#include "common/result.h"

namespace dlte::lte {

// Carries a NAS PDU from the eNodeB toward the MME (initial attach).
struct InitialUeMessage {
  EnbUeId enb_ue_id;
  CellId cell;
  std::vector<std::uint8_t> nas_pdu;
};

struct UplinkNasTransport {
  EnbUeId enb_ue_id;
  MmeUeId mme_ue_id;
  std::vector<std::uint8_t> nas_pdu;
};

struct DownlinkNasTransport {
  EnbUeId enb_ue_id;
  MmeUeId mme_ue_id;
  std::vector<std::uint8_t> nas_pdu;
};

// MME → eNodeB: establish the radio-side context and the S1-U tunnel.
struct InitialContextSetupRequest {
  EnbUeId enb_ue_id;
  MmeUeId mme_ue_id;
  Teid sgw_uplink_teid;  // Where the eNodeB sends uplink GTP-U.
  std::vector<std::uint8_t> security_key;  // K_eNB.
};

struct InitialContextSetupResponse {
  EnbUeId enb_ue_id;
  MmeUeId mme_ue_id;
  Teid enb_downlink_teid;  // Where the S-GW sends downlink GTP-U.
};

using S1apMessage =
    std::variant<InitialUeMessage, UplinkNasTransport, DownlinkNasTransport,
                 InitialContextSetupRequest, InitialContextSetupResponse>;

[[nodiscard]] std::vector<std::uint8_t> encode_s1ap(const S1apMessage& m);
[[nodiscard]] Result<S1apMessage> decode_s1ap(
    std::span<const std::uint8_t> bytes);

}  // namespace dlte::lte
