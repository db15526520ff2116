// S1Fabric: identical MME behind two pipes — in-process stub vs backhaul.
#include "core/s1_fabric.h"

#include <gtest/gtest.h>

#include "core/enodeb.h"
#include "epc/epc.h"
#include "ue/nas_client.h"

namespace dlte::core {
namespace {

crypto::Key128 key_for(std::uint64_t imsi) {
  crypto::Key128 k{};
  for (std::size_t i = 0; i < 16; ++i) {
    k[i] = static_cast<std::uint8_t>(imsi + i);
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
  net::Network net{sim};
  obs::MetricsRegistry metrics;
  epc::EpcCore core;
  S1Fabric fabric{sim, core.mme()};
  EnodeB enb;

  explicit Rig(epc::CoreDeployment dep)
      : core(sim, epc::EpcConfig{.deployment = dep, .network_id = "n"},
             sim::RngStream{3}),
        enb(sim, fabric, EnbConfig{.cell = CellId{1}}) {
    core.set_metrics(&metrics);
  }

  ue::NasClient make_client(std::uint64_t imsi) {
    core.hss().provision(Imsi{imsi}, key_for(imsi), kOp);
    ue::SimProfile p{Imsi{imsi}, key_for(imsi),
                     crypto::derive_opc(key_for(imsi), kOp), true, "t"};
    return ue::NasClient{ue::Usim{p}, "n"};
  }
};

TEST(S1Fabric, DirectAttachFastPath) {
  Rig rig{epc::CoreDeployment::kLocalStub};
  rig.fabric.register_enb_direct(CellId{1}, Duration::micros(50),
                                 [&](const lte::S1apMessage& m) {
                                   rig.enb.on_s1ap(m);
                                 });
  auto client = rig.make_client(100);
  AttachOutcome out;
  rig.enb.attach_ue(client, [&](AttachOutcome o) { out = o; });
  rig.sim.run_all();
  ASSERT_TRUE(out.success);
  // 50ms RRC + ~4 radio round trips (20ms each) + negligible S1.
  EXPECT_LT(out.elapsed.to_millis(), 200.0);
}

TEST(S1Fabric, NetworkedAttachPaysBackhaulLatency) {
  Rig local{epc::CoreDeployment::kLocalStub};
  local.fabric.register_enb_direct(CellId{1}, Duration::micros(50),
                                   [&](const lte::S1apMessage& m) {
                                     local.enb.on_s1ap(m);
                                   });
  auto lc = local.make_client(100);
  AttachOutcome local_out;
  local.enb.attach_ue(lc, [&](AttachOutcome o) { local_out = o; });
  local.sim.run_all();

  Rig remote{epc::CoreDeployment::kCentralized};
  const NodeId enb_node = remote.net.add_node("enb");
  const NodeId core_node = remote.net.add_node("core");
  // 25 ms one way to the regional core.
  remote.net.add_link(enb_node, core_node,
                      net::LinkConfig{DataRate::mbps(100.0),
                                      Duration::millis(25)});
  remote.fabric.register_enb_networked(remote.net, CellId{1}, enb_node,
                                       core_node,
                                       [&](const lte::S1apMessage& m) {
                                         remote.enb.on_s1ap(m);
                                       });
  auto rc = remote.make_client(100);
  AttachOutcome remote_out;
  remote.enb.attach_ue(rc, [&](AttachOutcome o) { remote_out = o; });
  remote.sim.run_all();

  ASSERT_TRUE(local_out.success);
  ASSERT_TRUE(remote_out.success);
  // The attach dialogue's critical path crosses the 25 ms backhaul six
  // times: expect ≈150 ms of extra latency vs the on-box stub.
  EXPECT_GT(remote_out.elapsed.to_millis(),
            local_out.elapsed.to_millis() + 120.0);
}

TEST(S1Fabric, TwoCellsShareOneCore) {
  Rig rig{epc::CoreDeployment::kCentralized};
  EnodeB enb2{rig.sim, rig.fabric, EnbConfig{.cell = CellId{2}}};
  rig.fabric.register_enb_direct(CellId{1}, Duration::millis(5),
                                 [&](const lte::S1apMessage& m) {
                                   rig.enb.on_s1ap(m);
                                 });
  rig.fabric.register_enb_direct(CellId{2}, Duration::millis(5),
                                 [&](const lte::S1apMessage& m) {
                                   enb2.on_s1ap(m);
                                 });
  auto c1 = rig.make_client(201);
  auto c2 = rig.make_client(202);
  int ok = 0;
  rig.enb.attach_ue(c1, [&](AttachOutcome o) { ok += o.success; });
  enb2.attach_ue(c2, [&](AttachOutcome o) { ok += o.success; });
  rig.sim.run_all();
  EXPECT_EQ(ok, 2);
  EXPECT_TRUE(rig.core.mme().is_registered(Imsi{201}));
  EXPECT_TRUE(rig.core.mme().is_registered(Imsi{202}));
}

TEST(S1Fabric, UnregisteredCellDropsSilently) {
  Rig rig{epc::CoreDeployment::kLocalStub};
  // No endpoint registered: sends must not crash.
  rig.fabric.enb_send(CellId{9}, lte::S1apMessage{lte::InitialUeMessage{}});
  rig.sim.run_all();
  EXPECT_EQ(rig.metrics.counter("epc.messages_processed").value(), 0u);
}


TEST(S1Fabric, GarbageOnTheWireIsDropped) {
  // Corrupted S1AP frames on the backhaul must not reach the MME or
  // crash the deframer (framing and body corruption both).
  Rig rig{epc::CoreDeployment::kCentralized};
  const NodeId enb_node = rig.net.add_node("enb");
  const NodeId core_node = rig.net.add_node("core");
  rig.net.add_link(enb_node, core_node, net::LinkConfig{});
  rig.fabric.register_enb_networked(rig.net, CellId{1}, enb_node, core_node,
                                    [&](const lte::S1apMessage& m) {
                                      rig.enb.on_s1ap(m);
                                    });
  rig.net.send(net::Packet{enb_node, core_node, 10, kS1apProtocol,
                           {0xff, 0xfe}});
  rig.net.send(net::Packet{enb_node, core_node, 10, kS1apProtocol,
                           {0, 0, 0, 1, 0x63, 0x00}});
  rig.net.send(net::Packet{core_node, enb_node, 10, kS1apProtocol, {}});
  rig.sim.run_all();
  EXPECT_EQ(rig.metrics.counter("epc.messages_processed").value(), 0u);
}

}  // namespace
}  // namespace dlte::core
