// The eNodeB's attach guard timer.
#include <gtest/gtest.h>

#include "core/enodeb.h"
#include "core/s1_fabric.h"
#include "epc/epc.h"
#include "ue/nas_client.h"

namespace dlte::core {
namespace {

crypto::Key128 key_for(std::uint64_t imsi) {
  crypto::Key128 k{};
  for (std::size_t i = 0; i < 16; ++i) {
    k[i] = static_cast<std::uint8_t>(imsi * 5 + i);
  }
  return k;
}

const crypto::Block128 kOp = [] {
  crypto::Block128 op{};
  op[0] = 0xcd;
  return op;
}();

struct Rig {
  sim::Simulator sim;
  epc::EpcCore core{sim, epc::EpcConfig{.network_id = "n"},
                    sim::RngStream{9}};
  S1Fabric fabric{sim, core.mme()};
  EnodeB enb{sim, fabric, EnbConfig{.cell = CellId{1}}};
  bool wired{false};

  void wire() {
    fabric.register_enb_direct(CellId{1}, Duration::micros(50),
                               [this](const lte::S1apMessage& m) {
                                 enb.on_s1ap(m);
                               });
    wired = true;
  }

  ue::NasClient make_client(std::uint64_t imsi) {
    core.hss().provision(Imsi{imsi}, key_for(imsi), kOp);
    ue::SimProfile p{Imsi{imsi}, key_for(imsi),
                     crypto::derive_opc(key_for(imsi), kOp), true, "t"};
    return ue::NasClient{ue::Usim{p}, "n"};
  }
};

TEST(AttachGuard, FiresWhenCoreUnreachable) {
  // No fabric endpoint registered: InitialUeMessage goes nowhere.
  Rig rig;  // Note: wire() NOT called.
  auto client = rig.make_client(900004);
  AttachOutcome out;
  out.success = true;
  rig.enb.attach_ue(client, [&](AttachOutcome o) { out = o; });
  rig.sim.run_all();
  EXPECT_FALSE(out.success);
  EXPECT_NEAR(out.elapsed.to_seconds(), 15.0, 0.1);
  EXPECT_EQ(rig.enb.attaches_failed(), 1);
}

TEST(AttachGuard, DoesNotFireOnSuccess) {
  Rig rig;
  rig.wire();
  auto client = rig.make_client(900005);
  int callbacks = 0;
  rig.enb.attach_ue(client, [&](AttachOutcome) { ++callbacks; });
  rig.sim.run_all();  // Runs past the 15 s guard too.
  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(rig.enb.attaches_failed(), 0);
  EXPECT_EQ(rig.enb.attaches_succeeded(), 1);
}

}  // namespace
}  // namespace dlte::core
