// S1Fabric: the control-plane wiring between eNodeBs and an MME.
//
// The same MME code serves both architectures; what differs is the pipe:
//   * a dLTE local core stub sits on the AP itself — S1 is an in-process
//     call with microseconds of latency;
//   * a centralized core is across the backhaul — S1 rides real packets
//     through the Network substrate, paying serialization + propagation
//     and sharing links with user traffic.
// The fabric installs itself as the MME's sender and routes downlink
// S1AP by cell to the registered eNodeB handler.
//
// A message is moved, never copied, from its sender to its handler: on
// the in-process path the fabric parks it in an in-flight record for the
// S1 latency, and the delivery event captures only the record's address.
#pragma once

#include <deque>
#include <functional>

#include "common/flat_map.h"
#include "common/ids.h"
#include "common/pool.h"
#include "epc/mme.h"
#include "lte/s1ap.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace dlte::core {

// Network protocol tag for S1AP packets.
inline constexpr std::uint16_t kS1apProtocol = 0x5331;  // "S1".

class S1Fabric {
 public:
  // Takes the delivered message; a handler that wants a const reference
  // (`[](const lte::S1apMessage&)`) binds to it just as well.
  using EnbHandler = std::function<void(lte::S1apMessage&&)>;

  S1Fabric(sim::Simulator& sim, epc::Mme& mme);

  // In-process stub attachment (dLTE local core): one-way `latency`.
  void register_enb_direct(CellId cell, Duration latency,
                           EnbHandler handler);

  // Backhaul attachment (centralized core): S1AP rides `net` between the
  // eNodeB's node and the core site's node.
  void register_enb_networked(net::Network& net, CellId cell,
                              NodeId enb_node, NodeId core_node,
                              EnbHandler handler);

  // eNodeB → MME direction.
  void enb_send(CellId cell, lte::S1apMessage message);

 private:
  struct Endpoint {
    bool networked{false};
    Duration latency{};
    net::Network* net{nullptr};
    NodeId enb_node;
    NodeId core_node;
    EnbHandler handler;
  };

  // One message on the in-process path, parked for the S1 latency.
  struct InFlight {
    CellId cell;
    std::uint32_t endpoint{0};
    lte::S1apMessage message;
  };

  void mme_send(CellId cell, lte::S1apMessage message);
  void install_core_handler(net::Network& net, NodeId core_node);
  void add_endpoint(CellId cell, Endpoint endpoint);

  sim::Simulator& sim_;
  std::uint32_t ev_label_{0};
  epc::Mme& mme_;
  // Endpoints keep their address (a handler may register another cell
  // while it runs); endpoint_of_ maps a cell to its index here.
  std::deque<Endpoint> endpoints_;
  FlatMap<CellId, std::uint32_t> endpoint_of_;
  ObjectPool<InFlight> in_flight_;
  bool core_handler_installed_{false};
};

}  // namespace dlte::core
