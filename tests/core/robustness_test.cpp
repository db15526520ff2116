// Failure injection & garbage tolerance: a network component lives on
// hostile input. Every stack here must shrug off truncated, corrupted
// or out-of-order protocol traffic and infrastructure failures without
// crashing or corrupting unrelated state.
#include <gtest/gtest.h>

#include "core/access_point.h"
#include "core/s1_fabric.h"
#include "spectrum/coordinator.h"
#include "transport/transport.h"
#include "ue/mobility.h"

namespace dlte::core {
namespace {

TEST(Robustness, MmeIgnoresGarbageNasPdus) {
  sim::Simulator sim;
  epc::EpcCore core{sim, epc::EpcConfig{}, sim::RngStream{1}};
  S1Fabric fabric{sim, core.mme()};
  fabric.register_enb_direct(CellId{1}, Duration::micros(10),
                             [](const lte::S1apMessage&) {});
  // Garbage NAS inside a valid S1AP envelope.
  lte::InitialUeMessage init;
  init.enb_ue_id = EnbUeId{1};
  init.cell = CellId{1};
  init.nas_pdu = {0xde, 0xad, 0xbe};
  core.mme().handle_s1ap(CellId{1}, lte::S1apMessage{init});
  // NAS transport for a UE the MME has never seen.
  lte::UplinkNasTransport up;
  up.enb_ue_id = EnbUeId{9};
  up.mme_ue_id = MmeUeId{999};
  up.nas_pdu = lte::encode_nas(lte::NasMessage{lte::AttachComplete{}});
  core.mme().handle_s1ap(CellId{1}, lte::S1apMessage{up});
  sim.run_all();
  EXPECT_EQ(core.mme().stats().attaches_completed, 0u);
  EXPECT_EQ(core.mme().stats().messages_processed, 2u);
}

TEST(Robustness, MmeIgnoresOutOfOrderDialogue) {
  // SecurityModeComplete before any attach; context-setup response for a
  // phantom UE.
  sim::Simulator sim;
  epc::EpcCore core{sim, epc::EpcConfig{}, sim::RngStream{2}};
  S1Fabric fabric{sim, core.mme()};
  fabric.register_enb_direct(CellId{1}, Duration::micros(10),
                             [](const lte::S1apMessage&) {});
  lte::InitialContextSetupResponse resp;
  resp.enb_ue_id = EnbUeId{1};
  resp.mme_ue_id = MmeUeId{42};
  resp.enb_downlink_teid = Teid{7};
  core.mme().handle_s1ap(CellId{1}, lte::S1apMessage{resp});
  sim.run_all();
  EXPECT_EQ(core.mme().stats().attaches_completed, 0u);
}

TEST(Robustness, EnodebIgnoresUnknownUeIds) {
  sim::Simulator sim;
  epc::EpcCore core{sim, epc::EpcConfig{}, sim::RngStream{3}};
  S1Fabric fabric{sim, core.mme()};
  EnodeB enb{sim, fabric, EnbConfig{.cell = CellId{1}}};
  lte::DownlinkNasTransport down;
  down.enb_ue_id = EnbUeId{777};  // Never allocated.
  down.mme_ue_id = MmeUeId{1};
  down.nas_pdu = lte::encode_nas(
      lte::NasMessage{lte::AuthenticationRequest{}});
  enb.on_s1ap(lte::S1apMessage{down});
  lte::InitialContextSetupRequest ctx;
  ctx.enb_ue_id = EnbUeId{777};
  enb.on_s1ap(lte::S1apMessage{ctx});
  sim.run_all();
  EXPECT_EQ(enb.attaches_succeeded(), 0);
}

TEST(Robustness, CoordinatorSurvivesCorruptedX2) {
  sim::Simulator sim;
  net::Network net{sim};
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, net::LinkConfig{});
  spectrum::PeerCoordinator coord{
      sim, net, b,
      spectrum::CoordinatorConfig{ApId{2}, lte::DlteMode::kFairShare}};
  // Raw garbage with the X2 protocol tag.
  net.send(net::Packet{a, b, 10, spectrum::kX2Protocol,
                       {0xff, 0x00, 0x13, 0x37}});
  // A truncated but well-typed message.
  auto bytes = lte::encode_x2(lte::X2Message{lte::DltePeerStatus{}});
  bytes.resize(bytes.size() / 2);
  net.send(net::Packet{a, b, 10, spectrum::kX2Protocol, bytes});
  sim.run_all();
  EXPECT_EQ(coord.peer_count(), 0u);
  EXPECT_DOUBLE_EQ(coord.current_share(), 1.0);
}

TEST(Robustness, TransportIgnoresForeignAndGarbageSegments) {
  sim::Simulator sim;
  net::Network net{sim};
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, net::LinkConfig{});
  transport::TransportHost host{sim, net, b};
  // No listener: unsolicited data segment for an unknown connection.
  net.send(net::Packet{
      a, b, 60, transport::kTransportProtocol,
      transport::encode_segment(transport::SegmentHeader{
          12345, transport::kSegData, 0.0, 100})});
  // Garbage payload under the transport tag.
  net.send(net::Packet{a, b, 60, transport::kTransportProtocol,
                       {0x01, 0x02}});
  sim.run_all();
  SUCCEED();  // No crash, no state.
}

TEST(Robustness, AttachSurvivesBackhaulFlap) {
  // Centralized attach with the S1 path flapping mid-dialogue: messages
  // in flight are lost, and the MME's NAS retransmission timers recover
  // the dialogue once the path heals.
  sim::Simulator sim;
  net::Network net{sim};
  epc::EpcCore core{sim,
                    epc::EpcConfig{.deployment =
                                       epc::CoreDeployment::kCentralized,
                                   .network_id = "n"},
                    sim::RngStream{4}};
  S1Fabric fabric{sim, core.mme()};
  EnodeB enb{sim, fabric, EnbConfig{.cell = CellId{1}}};
  const NodeId e = net.add_node("enb");
  const NodeId c = net.add_node("core");
  net.add_link(e, c, net::LinkConfig{DataRate::mbps(100.0),
                                     Duration::millis(25)});
  fabric.register_enb_networked(net, CellId{1}, e, c,
                                [&](const lte::S1apMessage& m) {
                                  enb.on_s1ap(m);
                                });
  crypto::Key128 k{};
  crypto::Block128 op{};
  core.hss().provision(Imsi{5}, k, op);
  ue::SimProfile p{Imsi{5}, k, crypto::derive_opc(k, op), true, "t"};
  ue::NasClient client{ue::Usim{p}, "n"};
  AttachOutcome out;
  int done = 0;
  enb.attach_ue(client, [&](AttachOutcome o) {
    ++done;
    out = o;
  });
  // Cut the backhaul 100 ms in — after the attach request reached the
  // core, mid-AKA (the UE's authentication response gets lost).
  sim.schedule(Duration::millis(100), [&] {
    net.set_link_enabled(e, c, false);
  });
  // Still down after the radio leg delivered the lost message window.
  sim.schedule(Duration::millis(400), [&] {
    EXPECT_EQ(done, 0);
    EXPECT_FALSE(client.registered());
    net.set_link_enabled(e, c, true);
  });
  sim.run_all();
  // NAS retransmission healed the dialogue — same attach, no fresh start.
  EXPECT_EQ(done, 1);
  EXPECT_TRUE(out.success);
  EXPECT_TRUE(client.registered());
  EXPECT_GT(core.mme().stats().nas_retransmissions, 0u);
}

TEST(Robustness, UeMovingOutOfCoverageStopsService) {
  // A served UE drives away; the SINR provider tracks it and the MAC
  // stops delivering (no stale-rate artifacts, no crash).
  sim::Simulator sim;
  net::Network net{sim};
  RadioEnvironment radio;
  spectrum::Registry registry{sim, spectrum::RegistryKind::kCentralizedSas};
  const NodeId internet = net.add_node("internet");
  const NodeId ap_node = net.add_node("ap");
  net.add_link(ap_node, internet, net::LinkConfig{});
  ApConfig cfg;
  cfg.id = ApId{1};
  cfg.cell = CellId{1};
  DlteAccessPoint ap{sim, net, ap_node, radio, cfg};
  ap.bring_up(registry);
  sim.run_until(sim.now() + Duration::seconds(1.0));

  crypto::Key128 k{};
  crypto::Block128 op{};
  registry.publish_subscriber(
      epc::PublishedKeys{Imsi{9}, k, crypto::derive_opc(k, op)});
  ap.import_published_subscribers(registry);
  UeDevice car{ue::SimProfile{Imsi{9}, k, crypto::derive_opc(k, op), true,
                              "car"},
               std::make_unique<ue::LinearMobility>(Position{1'000.0, 0.0},
                                                    400.0, 0.0)};
  bool attached = false;
  ap.attach(car, mac::UeTrafficConfig{.full_buffer = true},
            [&](AttachOutcome o) { attached = o.success; });
  sim.run_until(sim.now() + Duration::seconds(1.0));
  ASSERT_TRUE(attached);

  // In coverage: deliver.
  ap.cell_mac().run(Duration::seconds(1.0));
  const auto ids = ap.cell_mac().ue_ids();
  ASSERT_EQ(ids.size(), 1u);
  const double near_bits = ap.cell_mac().stats(ids[0]).delivered_bits;
  EXPECT_GT(near_bits, 0.0);

  // Drive 400 m/s for 5 minutes: 120+ km out, beyond any budget.
  car.advance(Duration::seconds(300.0));
  ap.cell_mac().run(Duration::seconds(1.0));
  const double far_bits =
      ap.cell_mac().stats(ids[0]).delivered_bits - near_bits;
  EXPECT_EQ(far_bits, 0.0);
}

}  // namespace
}  // namespace dlte::core
