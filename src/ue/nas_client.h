// Client-side NAS state machine: what a standard handset's modem runs.
//
// The dLTE compatibility requirement (§4.1) is that this machine — which
// we do not get to modify on real phones — completes successfully against
// the local core stub. It therefore implements the strict EPS-AKA
// dialogue with no dLTE-specific shortcuts.
#pragma once

#include <optional>
#include <string>

#include "common/time.h"
#include "lte/nas.h"
#include "sim/random.h"
#include "ue/usim.h"

namespace dlte::ue {

// Retry schedule for a failed or timed-out attach. Real basebands do not
// hammer the network when an attach dies — they back off exponentially
// with jitter so that a mass re-attach (every UE of a crashed AP arriving
// at the neighbor at once) spreads out instead of synchronizing into a
// thundering herd.
inline constexpr int kMaxAttachAttempts = 8;

// Wait before retry number `attempt` (1 = first retry): 0.5 s doubling
// per retry up to 8 s, scaled by a uniform draw from [0.8, 1.2].
// Deterministic given the stream — UEs derive their own substreams, so
// the fleet de-synchronizes while any single run stays reproducible.
[[nodiscard]] Duration attach_backoff(int attempt, sim::RngStream& rng);

enum class NasClientState {
  kIdle,
  kAwaitingAuth,
  kAwaitingSecurityMode,
  kAwaitingAccept,
  kRegistered,
  kRejected,
};

class NasClient {
 public:
  // `serving_network_id` comes from the cell broadcast of the network the
  // UE is camping on — it keys the session to this network.
  NasClient(Usim usim, std::string serving_network_id);

  // Begin attach: returns the AttachRequest to send up.
  [[nodiscard]] lte::NasMessage start_attach();

  // Feed a downlink NAS message; returns the uplink reply, if any.
  [[nodiscard]] std::optional<lte::NasMessage> handle(
      const lte::NasMessage& message);

  [[nodiscard]] NasClientState state() const { return state_; }
  [[nodiscard]] bool registered() const {
    return state_ == NasClientState::kRegistered;
  }
  [[nodiscard]] std::uint32_t ue_ip() const { return ue_ip_; }
  [[nodiscard]] Tmsi tmsi() const { return tmsi_; }
  [[nodiscard]] const crypto::Kasme& kasme() const { return kasme_; }

 private:
  Usim usim_;
  std::string serving_network_id_;
  NasClientState state_{NasClientState::kIdle};
  crypto::Kasme kasme_{};
  std::uint32_t ue_ip_{0};
  Tmsi tmsi_{0};
};

}  // namespace dlte::ue
