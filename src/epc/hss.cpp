#include "epc/hss.h"

#include <cstring>

namespace dlte::epc {

namespace {
crypto::Sqn48 to_sqn48(std::uint64_t sqn) {
  crypto::Sqn48 out{};
  for (int i = 0; i < 6; ++i) {
    out[static_cast<std::size_t>(5 - i)] =
        static_cast<std::uint8_t>(sqn >> (8 * i));
  }
  return out;
}
}  // namespace

void Hss::provision(Imsi imsi, const crypto::Key128& k,
                    const crypto::Block128& op) {
  provision_with_opc(imsi, k, crypto::derive_opc(k, op));
}

void Hss::provision_with_opc(Imsi imsi, const crypto::Key128& k,
                             const crypto::Block128& opc) {
  subscribers_[imsi] = Subscriber{k, opc, 0};
}

Result<AuthVector> Hss::generate_auth_vector(
    Imsi imsi, const std::string& serving_network_id) {
  Subscriber* found = subscribers_.find(imsi);
  if (found == nullptr) return fail("unknown IMSI");
  Subscriber& sub = *found;

  AuthVector v;
  for (auto& b : v.rand) {
    b = static_cast<std::uint8_t>(rng_.uniform_int(0, 255));
  }
  sub.sqn += 1;
  const crypto::Sqn48 sqn = to_sqn48(sub.sqn);
  v.amf = {0x80, 0x00};

  const crypto::Milenage m{sub.k, sub.opc};
  const auto c = m.challenge(v.rand);
  v.mac_a = c.f1(sqn, v.amf).mac_a;
  const auto f25 = c.f2_f5();
  v.xres = f25.res;
  for (std::size_t i = 0; i < 6; ++i) {
    v.sqn_xor_ak[i] = static_cast<std::uint8_t>(sqn[i] ^ f25.ak[i]);
  }
  const auto ck = c.f3();
  const auto ik = c.f4();
  v.kasme = crypto::derive_kasme(ck, ik, serving_network_id, v.sqn_xor_ak);
  return v;
}

}  // namespace dlte::epc
