// GTP-U data plane: real encapsulation between eNodeB and gateway.
//
// In the centralized architecture every user datagram rides a GTP-U
// tunnel across the backhaul to the S/P-GW before touching the Internet;
// in dLTE the "tunnel" is a loopback inside the AP. These endpoints make
// that concrete on the packet substrate: uplink datagrams are wrapped
// (teid + 40 B of outer headers), carried to the gateway node,
// de-capsulated, accounted against the bearer, and forwarded; downlink
// traffic addressed to a UE address is matched to its bearer and
// tunnelled back to the serving eNodeB.
#pragma once

#include <unordered_map>

#include "epc/gateway.h"
#include "lte/gtp.h"
#include "net/network.h"
#include "obs/span.h"

namespace dlte::epc {

// Network protocol tags.
inline constexpr std::uint16_t kGtpUProtocol = 0x4755;   // "GU".
inline constexpr std::uint16_t kUserIpProtocol = 0x0800;

// The de/encapsulated user datagram: who it belongs to and where it is
// ultimately headed (payload bytes themselves are synthetic).
struct InnerDatagram {
  net::Ipv4 ue_ip{};
  NodeId remote;        // Internet endpoint.
  int size_bytes{0};
};

[[nodiscard]] std::vector<std::uint8_t> encode_inner(const InnerDatagram& d);
[[nodiscard]] Result<InnerDatagram> decode_inner(
    std::span<const std::uint8_t> bytes);

// Gateway-side endpoint (S/P-GW user plane).
class GatewayDataPlane {
 public:
  GatewayDataPlane(net::Network& net, NodeId gw_node, Gateway& gateway);

  // Downlink tunnelling needs to know which eNodeB node serves a bearer.
  void bind_enb(Teid enb_downlink_teid, NodeId enb_node);

  // Causal tracing: closes the eNodeB's stashed "gtp_uplink" span at
  // decapsulation and opens a "gtp_downlink" span per tunnelled downlink
  // datagram (closed by the eNodeB endpoint). Category `<prefix>gtp`.
  void set_tracer(obs::SpanTracer* tracer, const std::string& prefix = "");

 private:
  void on_gtp(const net::Packet& packet);     // Uplink from eNodeBs.
  void on_user_ip(const net::Packet& packet); // Downlink from the Internet.

  net::Network& net_;
  NodeId node_;
  Gateway& gateway_;
  std::unordered_map<Teid, NodeId> enb_nodes_;
  // Downlink GTP-U sequence numbers (uplink seqs live in EnbDataPlane):
  // they key the per-packet span handoff, so "always 0" would alias.
  std::uint16_t next_seq_{0};
  obs::SpanTracer* tracer_{nullptr};
  std::string span_cat_{"gtp"};
};

// eNodeB-side endpoint.
class EnbDataPlane {
 public:
  EnbDataPlane(net::Network& net, NodeId enb_node, NodeId gw_node);

  // Per-bearer uplink tunnel (the S-GW TEID from context setup).
  void configure_bearer(net::Ipv4 ue_ip, Teid sgw_uplink_teid);

  // A UE's uplink datagram: encapsulate toward the gateway.
  void send_uplink(net::Ipv4 ue_ip, NodeId remote, int size_bytes);

  // Causal tracing: send_uplink opens a "gtp_uplink" span stashed under
  // span_key("gtpu", teid, seq) for the gateway endpoint to close; the
  // gateway's "gtp_downlink" spans are closed here. Category
  // `<prefix>gtp`. Both planes must share one tracer.
  void set_tracer(obs::SpanTracer* tracer, const std::string& prefix = "");

 private:
  void on_gtp(const net::Packet& packet);  // Downlink tunnel traffic.

  net::Network& net_;
  NodeId node_;
  NodeId gw_node_;
  std::unordered_map<std::uint32_t, Teid> uplink_teids_;  // By UE address.
  std::uint16_t next_seq_{0};
  obs::SpanTracer* tracer_{nullptr};
  std::string span_cat_{"gtp"};
};

}  // namespace dlte::epc
