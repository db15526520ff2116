// HSS: the subscriber database and authentication-vector factory.
//
// Standard operation keeps (K, OPc) secret inside the operator's vault —
// the paper's §2.1 argument for why symmetric-key auth cements central
// cores. dLTE's alternative (§4.2) is the *published key*: a subscriber
// marks an identity open, its keys appear in the registry, and any AP's
// local core can then run the same Milenage AKA. Both flows use the same
// vector generation below.
#pragma once

#include <optional>
#include <string>

#include "common/flat_map.h"
#include "common/ids.h"
#include "common/result.h"
#include "crypto/key_derivation.h"
#include "crypto/milenage.h"
#include "sim/random.h"

namespace dlte::epc {

struct AuthVector {
  crypto::Rand128 rand{};
  crypto::Res64 xres{};
  std::array<std::uint8_t, 6> sqn_xor_ak{};
  crypto::Amf16 amf{};
  crypto::Mac64 mac_a{};
  crypto::Kasme kasme{};
};

// What gets published to the registry for an open identity: enough for
// any AP to authenticate the subscriber, nothing more.
struct PublishedKeys {
  Imsi imsi;
  crypto::Key128 k{};
  crypto::Block128 opc{};
};

class Hss {
 public:
  explicit Hss(sim::RngStream rng) : rng_(std::move(rng)) {}

  // Provision a subscriber; OPc is derived from the operator constant.
  void provision(Imsi imsi, const crypto::Key128& k,
                 const crypto::Block128& op);
  void provision_with_opc(Imsi imsi, const crypto::Key128& k,
                          const crypto::Block128& opc);

  [[nodiscard]] bool has_subscriber(Imsi imsi) const {
    return subscribers_.contains(imsi);
  }
  [[nodiscard]] std::size_t subscriber_count() const {
    return subscribers_.size();
  }

  // Generate one EPS authentication vector bound to `serving_network_id`.
  // Advances the subscriber's SQN.
  [[nodiscard]] Result<AuthVector> generate_auth_vector(
      Imsi imsi, const std::string& serving_network_id);

 private:
  struct Subscriber {
    crypto::Key128 k{};
    crypto::Block128 opc{};
    std::uint64_t sqn{0};
  };

  FlatMap<Imsi, Subscriber> subscribers_;
  sim::RngStream rng_;
};

}  // namespace dlte::epc
