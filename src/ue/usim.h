// USIM / eSIM: subscriber identity and the client side of EPS-AKA.
//
// §4.2: e-SIMs "allow for holding multiple identities on different
// networks simultaneously … end users could simultaneously maintain an
// open dLTE SIM alongside other secured SIMs." EsimStore models exactly
// that: several profiles, one selected per network. The USIM verifies the
// network's AUTN (detecting impostors that lack K) and answers the
// challenge — identical cryptography whether the keys are operator-secret
// or registry-published.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/result.h"
#include "crypto/key_derivation.h"
#include "crypto/milenage.h"
#include "lte/nas.h"

namespace dlte::ue {

struct SimProfile {
  Imsi imsi;
  crypto::Key128 k{};
  crypto::Block128 opc{};
  // Open (dLTE) profiles have their keys published in the registry; a
  // handset may carry both open and operator-locked profiles.
  bool open_identity{false};
  std::string label;
};

struct AkaResult {
  crypto::Res64 res{};
  crypto::Kasme kasme{};
};

class Usim {
 public:
  explicit Usim(SimProfile profile) : profile_(std::move(profile)) {}

  [[nodiscard]] const SimProfile& profile() const { return profile_; }

  // Verify AUTN and compute the response + session root key. Fails when
  // MAC-A does not match (network is not in possession of K) — mutual
  // authentication, the part dLTE keeps even with open keys.
  [[nodiscard]] Result<AkaResult> run_aka(
      const crypto::Rand128& rand, const lte::Autn& autn,
      const std::string& serving_network_id) const;

 private:
  SimProfile profile_;
};

// A remotely-provisionable multi-profile store.
class EsimStore {
 public:
  void add_profile(SimProfile profile);

  // Select by predicate: the open profile for dLTE networks, the matching
  // operator profile otherwise.
  [[nodiscard]] const SimProfile* find_open() const;
  [[nodiscard]] const SimProfile* find_by_imsi(Imsi imsi) const;

 private:
  std::vector<SimProfile> profiles_;
};

}  // namespace dlte::ue
