#include "ue/usim.h"

namespace dlte::ue {

Result<AkaResult> Usim::run_aka(const crypto::Rand128& rand,
                                const lte::Autn& autn,
                                const std::string& serving_network_id) const {
  const crypto::Milenage m{profile_.k, profile_.opc};
  const auto c = m.challenge(rand);

  // Recover SQN: AK from f5, SQN = (SQN⊕AK) ⊕ AK.
  const auto f25 = c.f2_f5();
  crypto::Sqn48 sqn{};
  for (std::size_t i = 0; i < 6; ++i) {
    sqn[i] = static_cast<std::uint8_t>(autn.sqn_xor_ak[i] ^ f25.ak[i]);
  }

  // Verify the network's MAC-A.
  const auto f1 = c.f1(sqn, autn.amf);
  if (f1.mac_a != autn.mac_a) {
    return fail("AUTN MAC mismatch: network failed authentication");
  }

  AkaResult out;
  out.res = f25.res;
  const auto ck = c.f3();
  const auto ik = c.f4();
  out.kasme =
      crypto::derive_kasme(ck, ik, serving_network_id, autn.sqn_xor_ak);
  return out;
}

void EsimStore::add_profile(SimProfile profile) {
  profiles_.push_back(std::move(profile));
}

const SimProfile* EsimStore::find_open() const {
  for (const auto& p : profiles_) {
    if (p.open_identity) return &p;
  }
  return nullptr;
}

const SimProfile* EsimStore::find_by_imsi(Imsi imsi) const {
  for (const auto& p : profiles_) {
    if (p.imsi == imsi) return &p;
  }
  return nullptr;
}

}  // namespace dlte::ue
