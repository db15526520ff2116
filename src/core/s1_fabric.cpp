#include "core/s1_fabric.h"

#include <optional>

#include "common/bytes.h"

namespace dlte::core {

namespace {
// S1AP packets carry a cell-id prefix so one core node can serve many
// eNodeBs and one eNodeB node can host several cells.
std::vector<std::uint8_t> frame(CellId cell, const lte::S1apMessage& m) {
  const auto body = lte::encode_s1ap(m);
  ByteWriter w;
  w.reserve(4 + body.size());
  w.u32(cell.value());
  w.bytes(body);
  return w.take();
}

struct Deframed {
  CellId cell;
  lte::S1apMessage message;
};

std::optional<Deframed> deframe(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  auto cell = r.u32();
  if (!cell) return std::nullopt;
  auto rest = r.bytes(r.remaining());
  if (!rest) return std::nullopt;
  auto msg = lte::decode_s1ap(*rest);
  if (!msg) return std::nullopt;
  return Deframed{CellId{*cell}, std::move(*msg)};
}
}  // namespace

S1Fabric::S1Fabric(sim::Simulator& sim, epc::Mme& mme)
    : sim_(sim), mme_(mme) {
  ev_label_ = sim_.label("core.s1");
  mme_.set_sender([this](CellId cell, lte::S1apMessage m) {
    mme_send(cell, std::move(m));
  });
}

void S1Fabric::add_endpoint(CellId cell, Endpoint endpoint) {
  const auto [index, inserted] = endpoint_of_.try_emplace(cell);
  if (!inserted) {
    endpoints_[*index] = std::move(endpoint);
    return;
  }
  *index = static_cast<std::uint32_t>(endpoints_.size());
  endpoints_.push_back(std::move(endpoint));
}

void S1Fabric::register_enb_direct(CellId cell, Duration latency,
                                   EnbHandler handler) {
  Endpoint ep;
  ep.networked = false;
  ep.latency = latency;
  ep.handler = std::move(handler);
  add_endpoint(cell, std::move(ep));
}

void S1Fabric::register_enb_networked(net::Network& net, CellId cell,
                                      NodeId enb_node, NodeId core_node,
                                      EnbHandler handler) {
  Endpoint ep;
  ep.networked = true;
  ep.net = &net;
  ep.enb_node = enb_node;
  ep.core_node = core_node;
  ep.handler = std::move(handler);

  // eNodeB-side dispatch for downlink S1AP arriving at its node.
  net.set_protocol_handler(enb_node, kS1apProtocol,
                           [this](net::Packet&& p) {
                             auto d = deframe(p.payload);
                             if (!d) return;
                             const std::uint32_t* index =
                                 endpoint_of_.find(d->cell);
                             if (index == nullptr) return;
                             endpoints_[*index].handler(
                                 std::move(d->message));
                           });
  install_core_handler(net, core_node);
  add_endpoint(cell, std::move(ep));
}

void S1Fabric::install_core_handler(net::Network& net, NodeId core_node) {
  if (core_handler_installed_) return;
  core_handler_installed_ = true;
  net.set_protocol_handler(core_node, kS1apProtocol,
                           [this](net::Packet&& p) {
                             auto d = deframe(p.payload);
                             if (!d) return;
                             mme_.handle_s1ap(d->cell, std::move(d->message));
                           });
}

void S1Fabric::enb_send(CellId cell, lte::S1apMessage message) {
  const std::uint32_t* index = endpoint_of_.find(cell);
  if (index == nullptr) return;
  const Endpoint& ep = endpoints_[*index];
  if (!ep.networked) {
    InFlight* rec = in_flight_.acquire();
    rec->cell = cell;
    rec->message = std::move(message);
    sim_.schedule(
        ep.latency,
        [this, rec] {
          const CellId from = rec->cell;
          lte::S1apMessage m = std::move(rec->message);
          in_flight_.release(rec);
          mme_.handle_s1ap(from, std::move(m));
        },
        ev_label_);
    return;
  }
  auto payload = frame(cell, message);
  const int size = static_cast<int>(payload.size()) + 56;  // SCTP/IP.
  ep.net->send(net::Packet{ep.enb_node, ep.core_node, size, kS1apProtocol,
                           std::move(payload)});
}

void S1Fabric::mme_send(CellId cell, lte::S1apMessage message) {
  const std::uint32_t* index = endpoint_of_.find(cell);
  if (index == nullptr) return;
  const Endpoint& ep = endpoints_[*index];
  if (!ep.networked) {
    InFlight* rec = in_flight_.acquire();
    rec->endpoint = *index;
    rec->message = std::move(message);
    sim_.schedule(
        ep.latency,
        [this, rec] {
          const Endpoint& to = endpoints_[rec->endpoint];
          lte::S1apMessage m = std::move(rec->message);
          in_flight_.release(rec);
          to.handler(std::move(m));
        },
        ev_label_);
    return;
  }
  auto payload = frame(cell, message);
  const int size = static_cast<int>(payload.size()) + 56;
  ep.net->send(net::Packet{ep.core_node, ep.enb_node, size, kS1apProtocol,
                           std::move(payload)});
}

}  // namespace dlte::core
