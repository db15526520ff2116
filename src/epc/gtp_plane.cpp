#include "epc/gtp_plane.h"

#include "common/bytes.h"

namespace dlte::epc {

std::vector<std::uint8_t> encode_inner(const InnerDatagram& d) {
  ByteWriter w;
  w.u32(d.ue_ip.addr);
  w.u32(d.remote.value());
  w.u32(static_cast<std::uint32_t>(d.size_bytes));
  return w.take();
}

Result<InnerDatagram> decode_inner(std::span<const std::uint8_t> bytes) {
  ByteReader r{bytes};
  InnerDatagram d;
  auto ip = r.u32();
  if (!ip) return Err{ip.error()};
  d.ue_ip = net::Ipv4{*ip};
  auto remote = r.u32();
  if (!remote) return Err{remote.error()};
  d.remote = NodeId{*remote};
  auto size = r.u32();
  if (!size) return Err{size.error()};
  d.size_bytes = static_cast<int>(*size);
  return d;
}

namespace {
// GTP-U frame: the real 12-byte header followed by the inner descriptor.
std::vector<std::uint8_t> frame_gtp(Teid teid, std::uint16_t seq,
                                    const InnerDatagram& inner) {
  auto bytes = lte::encode_gtpu(lte::GtpUHeader{
      teid, static_cast<std::uint16_t>(inner.size_bytes), seq});
  const auto inner_bytes = encode_inner(inner);
  bytes.insert(bytes.end(), inner_bytes.begin(), inner_bytes.end());
  return bytes;
}

struct DeframedGtp {
  lte::GtpUHeader header;
  InnerDatagram inner;
};

Result<DeframedGtp> deframe_gtp(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < static_cast<std::size_t>(lte::kGtpUHeaderBytes)) {
    return fail("short GTP-U frame");
  }
  auto header = lte::decode_gtpu(bytes.first(
      static_cast<std::size_t>(lte::kGtpUHeaderBytes)));
  if (!header) return Err{header.error()};
  auto inner = decode_inner(bytes.subspan(
      static_cast<std::size_t>(lte::kGtpUHeaderBytes)));
  if (!inner) return Err{inner.error()};
  return DeframedGtp{*header, *inner};
}
}  // namespace

// ------------------------------------------------------------ Gateway --

GatewayDataPlane::GatewayDataPlane(net::Network& net, NodeId gw_node,
                                   Gateway& gateway)
    : net_(net), node_(gw_node), gateway_(gateway) {
  net_.set_protocol_handler(node_, kGtpUProtocol,
                            [this](net::Packet&& p) { on_gtp(p); });
  net_.set_protocol_handler(node_, kUserIpProtocol,
                            [this](net::Packet&& p) { on_user_ip(p); });
}

void GatewayDataPlane::bind_enb(Teid enb_downlink_teid, NodeId enb_node) {
  enb_nodes_[enb_downlink_teid] = enb_node;
}

void GatewayDataPlane::set_tracer(obs::SpanTracer* tracer,
                                  const std::string& prefix) {
  tracer_ = tracer;
  span_cat_ = prefix + "gtp";
}

void GatewayDataPlane::on_gtp(const net::Packet& packet) {
  auto frame = deframe_gtp(packet.payload);
  if (!frame) return;
  // The eNodeB endpoint stashed the packet's "gtp_uplink" span under its
  // (teid, seq) — decapsulation here is where the tunnel leg ends.
  const obs::SpanId span = obs::span_take(
      tracer_, obs::span_key("gtpu", frame->header.teid.value(),
                             frame->header.sequence));
  const auto* bearer = gateway_.find_by_uplink_teid(frame->header.teid);
  if (bearer == nullptr) {
    ++unknown_teid_;
    obs::span_annotate(tracer_, span, "drop", "unknown uplink teid");
    obs::span_end(tracer_, span);
    return;
  }
  gateway_.count_uplink(frame->inner.size_bytes);
  ++up_count_;
  obs::span_annotate(tracer_, span, "decapsulated",
                     [&] { return lte::gtpu_brief(frame->header); });
  {
    // The decapsulated datagram's delivery is causally part of the
    // uplink: the span closes once it is on its way to the Internet.
    obs::ScopedActivation act{tracer_, span};
    net_.send(net::Packet{node_, frame->inner.remote,
                          frame->inner.size_bytes, kUserIpProtocol,
                          encode_inner(frame->inner)});
  }
  obs::span_end(tracer_, span);
}

void GatewayDataPlane::on_user_ip(const net::Packet& packet) {
  auto inner = decode_inner(packet.payload);
  if (!inner) return;
  const auto* bearer = gateway_.find_by_ue_ip(inner->ue_ip);
  if (bearer == nullptr) {
    ++unknown_ue_;
    return;
  }
  const auto node_it = enb_nodes_.find(bearer->downlink_teid);
  if (node_it == enb_nodes_.end()) {
    ++unknown_ue_;
    return;
  }
  gateway_.count_downlink(inner->size_bytes);
  ++down_count_;
  const std::uint16_t seq = next_seq_++;
  const obs::SpanId span =
      obs::span_begin(tracer_, "gtp_downlink", span_cat_);
  obs::span_annotate(tracer_, span, "tunnel", [&] {
    return lte::gtpu_brief(lte::GtpUHeader{
        bearer->downlink_teid, static_cast<std::uint16_t>(inner->size_bytes),
        seq});
  });
  obs::span_stash(tracer_,
                  obs::span_key("gtpd", bearer->downlink_teid.value(), seq),
                  span);
  obs::ScopedActivation act{tracer_, span};
  net_.send(net::Packet{
      node_, node_it->second,
      inner->size_bytes + lte::kGtpTunnelOverheadBytes, kGtpUProtocol,
      frame_gtp(bearer->downlink_teid, seq, *inner)});
}

// ---------------------------------------------------------------- eNB --

EnbDataPlane::EnbDataPlane(net::Network& net, NodeId enb_node,
                           NodeId gw_node)
    : net_(net), node_(enb_node), gw_node_(gw_node) {
  net_.set_protocol_handler(node_, kGtpUProtocol,
                            [this](net::Packet&& p) { on_gtp(p); });
}

void EnbDataPlane::configure_bearer(net::Ipv4 ue_ip, Teid sgw_uplink_teid) {
  uplink_teids_[ue_ip.addr] = sgw_uplink_teid;
}

void EnbDataPlane::set_tracer(obs::SpanTracer* tracer,
                              const std::string& prefix) {
  tracer_ = tracer;
  span_cat_ = prefix + "gtp";
}

void EnbDataPlane::send_uplink(net::Ipv4 ue_ip, NodeId remote,
                               int size_bytes) {
  const auto it = uplink_teids_.find(ue_ip.addr);
  if (it == uplink_teids_.end()) {
    ++unconfigured_;
    // Zero-duration marker: the datagram died here, trace says why.
    const obs::SpanId s = obs::span_begin(tracer_, "gtp_uplink", span_cat_);
    obs::span_annotate(tracer_, s, "drop", "no uplink teid for ue");
    obs::span_end(tracer_, s);
    return;
  }
  InnerDatagram inner{ue_ip, remote, size_bytes};
  ++up_count_;
  const std::uint16_t seq = next_seq_++;
  const obs::SpanId span = obs::span_begin(tracer_, "gtp_uplink", span_cat_);
  obs::span_annotate(tracer_, span, "tunnel", [&] {
    return lte::gtpu_brief(lte::GtpUHeader{
        it->second, static_cast<std::uint16_t>(size_bytes), seq});
  });
  // The gateway endpoint closes this span at decapsulation.
  obs::span_stash(tracer_, obs::span_key("gtpu", it->second.value(), seq),
                  span);
  obs::ScopedActivation act{tracer_, span};
  net_.send(net::Packet{node_, gw_node_,
                        size_bytes + lte::kGtpTunnelOverheadBytes,
                        kGtpUProtocol, frame_gtp(it->second, seq, inner)});
}

void EnbDataPlane::on_gtp(const net::Packet& packet) {
  auto frame = deframe_gtp(packet.payload);
  if (!frame) return;
  ++down_count_;
  // Close the gateway's stashed "gtp_downlink" span: the tunnel leg
  // ends where the datagram reaches the serving eNodeB.
  const obs::SpanId span = obs::span_take(
      tracer_, obs::span_key("gtpd", frame->header.teid.value(),
                             frame->header.sequence));
  obs::span_annotate(tracer_, span, "delivered",
                     [&] { return lte::gtpu_brief(frame->header); });
  obs::span_end(tracer_, span);
  if (on_downlink_) on_downlink_(frame->inner);
}

}  // namespace dlte::epc
