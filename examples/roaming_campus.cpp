// Roaming: endpoint mobility across two independently-owned dLTE APs.
//
// A student walks from the farm co-op's AP to the school's AP. The two
// APs never share core state — there is no MME handover. Instead (§4.2):
// the phone re-attaches at the new AP, gets a new public address, and the
// QUIC-like transport migrates the application connection. We narrate the
// timeline and measure the application-visible gap.
#include <iostream>

#include "core/access_point.h"
#include "transport/transport.h"
#include "ue/mobility.h"
#include "workload/ott_service.h"
#include "workload/sources.h"

using namespace dlte;

int main() {
  sim::Simulator sim;
  net::Network net{sim};
  core::RadioEnvironment radio;
  spectrum::Registry registry{sim, spectrum::RegistryKind::kCentralizedSas};

  const NodeId internet = net.add_node("internet");
  const NodeId coop_node = net.add_node("coop-ap");
  const NodeId school_node = net.add_node("school-ap");
  const NodeId chat_node = net.add_node("chat-service");
  const net::LinkConfig isp{DataRate::mbps(50.0), Duration::millis(15)};
  net.add_link(coop_node, internet, isp);
  net.add_link(school_node, internet, isp);
  net.add_link(internet, chat_node,
               net::LinkConfig{DataRate::mbps(1000.0), Duration::millis(20)});

  auto make_ap = [&](std::uint32_t id, NodeId node, double x,
                     const char* contact) {
    core::ApConfig cfg;
    cfg.id = ApId{id};
    cfg.cell = CellId{id};
    cfg.position = Position{x, 0.0};
    cfg.operator_contact = contact;
    return std::make_unique<core::DlteAccessPoint>(sim, net, node, radio,
                                                   cfg);
  };
  auto coop = make_ap(1, coop_node, 0.0, "coop@valley.example");
  auto school = make_ap(2, school_node, 7'000.0, "it@school.example");
  coop->bring_up(registry);
  school->bring_up(registry);
  sim.run_until(sim.now() + Duration::seconds(1.0));

  // The student's phone, walking toward the school.
  crypto::Key128 k{};
  k[0] = 0x31;
  crypto::Block128 op{};
  op[0] = 0xcd;
  const Imsi imsi{510991234500042ULL};
  const crypto::Block128 opc = crypto::derive_opc(k, op);
  registry.publish_subscriber(epc::PublishedKeys{imsi, k, opc});
  coop->import_published_subscribers(registry);
  school->import_published_subscribers(registry);

  core::UeDevice phone{
      ue::SimProfile{imsi, k, opc, true, "open"},
      std::make_unique<ue::LinearMobility>(Position{1'000.0, 100.0}, 1.5,
                                           0.0)};

  // Attach at the co-op, then start a chat/voice stream to the service.
  // The UE's data plane breaks out at its serving AP, so its transport
  // endpoint lives on that AP's node and moves when it re-attaches.
  workload::OttService chat{sim, net, chat_node};
  transport::TransportHost at_coop{sim, net, coop_node};
  transport::TransportHost at_school{sim, net, school_node};

  transport::Connection* conn = nullptr;
  coop->attach(phone, mac::UeTrafficConfig{.offered = DataRate::kbps(128.0)},
               [&](core::AttachOutcome o) {
                 std::cout << "[" << sim.now().to_seconds()
                           << "s] attached at co-op ("
                           << o.elapsed.to_millis() << " ms), address "
                           << net::Ipv4{o.ue_ip}.to_string() << "\n";
                 conn = &at_coop.connect(chat_node,
                                         transport::TransportConfig{});
               });
  sim.run_until(sim.now() + Duration::seconds(1.0));

  workload::CbrSource voice{sim, *conn, DataRate::kbps(128.0)};
  voice.start();
  sim.run_until(sim.now() + Duration::seconds(10.0));
  std::cout << "[" << sim.now().to_seconds() << "s] streaming 128 kb/s, "
            << chat.delivered_bytes(conn->id()) / 1000.0
            << " kB delivered so far\n";

  // Walk out of co-op coverage: re-attach at the school and migrate.
  const TimePoint move_at = sim.now();
  school->attach(phone, mac::UeTrafficConfig{.offered = DataRate::kbps(128.0)},
                 [&](core::AttachOutcome o) {
                   std::cout << "[" << sim.now().to_seconds()
                             << "s] re-attached at school ("
                             << o.elapsed.to_millis()
                             << " ms), new address "
                             << net::Ipv4{o.ue_ip}.to_string()
                             << " — migrating the chat connection\n";
                   conn->rebind(at_school);
                 });
  sim.run_until(sim.now() + Duration::seconds(10.0));

  const Duration gap = chat.longest_stall(conn->id(), move_at,
                                          move_at + Duration::seconds(5.0));
  std::cout << "[" << sim.now().to_seconds() << "s] stream continued: "
            << chat.delivered_bytes(conn->id()) / 1000.0
            << " kB total; application-visible gap during the move: "
            << gap.to_millis() << " ms\n";
  std::cout << "\nNo state was shared between the APs: co-op sessions="
            << coop->core().gateway().session_count()
            << ", school sessions="
            << school->core().gateway().session_count()
            << ". Continuity came from the endpoint transport (§4.2).\n";
  return 0;
}
