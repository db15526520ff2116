#include "ue/nas_client.h"

#include <algorithm>

namespace dlte::ue {

namespace {
constexpr Duration kInitialBackoff = Duration::millis(500);
constexpr double kBackoffMultiplier = 2.0;
constexpr Duration kMaxBackoff = Duration::seconds(8.0);
// Each wait is scaled by a uniform draw from [1-kJitter, 1+kJitter].
constexpr double kJitter = 0.2;
}  // namespace

Duration attach_backoff(int attempt, sim::RngStream& rng) {
  double wait_s = kInitialBackoff.to_seconds();
  for (int i = 1; i < attempt; ++i) wait_s *= kBackoffMultiplier;
  wait_s = std::min(wait_s, kMaxBackoff.to_seconds());
  wait_s *= rng.uniform(1.0 - kJitter, 1.0 + kJitter);
  return Duration::seconds(wait_s);
}

NasClient::NasClient(Usim usim, std::string serving_network_id)
    : usim_(std::move(usim)),
      serving_network_id_(std::move(serving_network_id)) {}

lte::NasMessage NasClient::start_attach() {
  state_ = NasClientState::kAwaitingAuth;
  return lte::AttachRequest{usim_.profile().imsi, Tmsi{0}};
}

std::optional<lte::NasMessage> NasClient::handle(
    const lte::NasMessage& message) {
  switch (state_) {
    case NasClientState::kAwaitingAuth: {
      if (const auto* auth =
              std::get_if<lte::AuthenticationRequest>(&message)) {
        auto aka = usim_.run_aka(auth->rand, auth->autn,
                                 serving_network_id_);
        if (!aka) {
          // Network failed mutual authentication; abort.
          state_ = NasClientState::kRejected;
          return std::nullopt;
        }
        kasme_ = aka->kasme;
        state_ = NasClientState::kAwaitingSecurityMode;
        return lte::NasMessage{lte::AuthenticationResponse{aka->res}};
      }
      if (std::holds_alternative<lte::AttachReject>(message)) {
        state_ = NasClientState::kRejected;
      }
      return std::nullopt;
    }
    case NasClientState::kAwaitingSecurityMode: {
      if (std::holds_alternative<lte::SecurityModeCommand>(message)) {
        state_ = NasClientState::kAwaitingAccept;
        return lte::NasMessage{lte::SecurityModeComplete{}};
      }
      if (const auto* auth =
              std::get_if<lte::AuthenticationRequest>(&message)) {
        // Duplicate challenge: our response was lost — answer again.
        auto aka = usim_.run_aka(auth->rand, auth->autn,
                                 serving_network_id_);
        if (!aka) return std::nullopt;
        kasme_ = aka->kasme;
        return lte::NasMessage{lte::AuthenticationResponse{aka->res}};
      }
      if (std::holds_alternative<lte::AuthenticationReject>(message)) {
        state_ = NasClientState::kRejected;
      }
      return std::nullopt;
    }
    case NasClientState::kAwaitingAccept: {
      if (const auto* accept = std::get_if<lte::AttachAccept>(&message)) {
        tmsi_ = accept->tmsi;
        ue_ip_ = accept->ue_ip;
        state_ = NasClientState::kRegistered;
        return lte::NasMessage{lte::AttachComplete{}};
      }
      if (std::holds_alternative<lte::SecurityModeCommand>(message)) {
        // Duplicate: re-acknowledge.
        return lte::NasMessage{lte::SecurityModeComplete{}};
      }
      return std::nullopt;
    }
    case NasClientState::kRegistered: {
      if (const auto* accept = std::get_if<lte::AttachAccept>(&message)) {
        // Duplicate accept: our AttachComplete was lost.
        tmsi_ = accept->tmsi;
        ue_ip_ = accept->ue_ip;
        return lte::NasMessage{lte::AttachComplete{}};
      }
      return std::nullopt;
    }
    case NasClientState::kIdle:
    case NasClientState::kRejected:
      return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace dlte::ue
