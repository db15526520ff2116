// GTP-U user plane over the packet substrate: the Fig.-1 tunnel made of
// actual packets.
#include "epc/gtp_plane.h"

#include <gtest/gtest.h>

namespace dlte::epc {
namespace {

struct Rig {
  sim::Simulator sim;
  net::Network net{sim};
  NodeId enb = net.add_node("enb");
  NodeId gw = net.add_node("pgw");
  NodeId internet = net.add_node("internet");
  Gateway gateway{0x0A2D0000};
  GatewayDataPlane gw_plane{net, gw, gateway};
  EnbDataPlane enb_plane{net, enb, gw};
  obs::MetricsRegistry metrics;
  // The eNodeB endpoint closes a downlink datagram's "gtp_downlink" span
  // where it arrives: the one record of a downlink delivery.
  obs::SpanTracer tracer{[this] { return sim.now(); }};

  Rig() {
    net.add_link(enb, gw,
                 net::LinkConfig{DataRate::mbps(100.0), Duration::millis(25)});
    net.add_link(gw, internet,
                 net::LinkConfig{DataRate::mbps(1000.0), Duration::millis(5)});
    gateway.set_metrics(&metrics);
    gw_plane.set_tracer(&tracer);
    enb_plane.set_tracer(&tracer);
  }

  std::uint64_t counter(const std::string& name) {
    return metrics.counter(name).value();
  }

  // The closed "gtp_downlink" spans, in delivery order.
  std::vector<const obs::Span*> downlinks_delivered() const {
    std::vector<const obs::Span*> out;
    for (const obs::Span& s : tracer.spans()) {
      if (s.name == "gtp_downlink" && !s.open) out.push_back(&s);
    }
    return out;
  }

  BearerContext& attach_ue(std::uint64_t imsi) {
    BearerContext& b = gateway.create_session(Imsi{imsi}, BearerId{5});
    gateway.complete_session(Imsi{imsi}, Teid{5000 + b.uplink_teid.value()});
    const auto* ctx = gateway.find_by_imsi(Imsi{imsi});
    gw_plane.bind_enb(ctx->downlink_teid, enb);
    enb_plane.configure_bearer(ctx->ue_ip, ctx->uplink_teid);
    return b;
  }
};

TEST(GtpPlane, InnerCodecRoundTrip) {
  InnerDatagram d{net::Ipv4{0x0A2D0001}, NodeId{7}, 1400};
  auto back = decode_inner(encode_inner(d));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ue_ip, d.ue_ip);
  EXPECT_EQ(back->remote, d.remote);
  EXPECT_EQ(back->size_bytes, 1400);
  EXPECT_FALSE(decode_inner({}).ok());
}

TEST(GtpPlane, UplinkDecapsulatesAndForwards) {
  Rig rig;
  rig.net.set_metrics(&rig.metrics);
  rig.attach_ue(1);
  const auto* bearer = rig.gateway.find_by_imsi(Imsi{1});

  int arrived = 0;
  int arrived_size = 0;
  rig.net.set_protocol_handler(rig.internet, kUserIpProtocol,
                               [&](net::Packet&& p) {
                                 ++arrived;
                                 arrived_size = p.size_bytes;
                               });
  rig.enb_plane.send_uplink(bearer->ue_ip, rig.internet, 1200);
  rig.sim.run_all();

  EXPECT_EQ(arrived, 1);
  EXPECT_EQ(arrived_size, 1200);  // Overhead stripped at the gateway.
  EXPECT_EQ(rig.counter("epc.gw.uplink_bytes"), 1200u);
  // The tunnel leg carried the overhead, the Internet leg did not.
  EXPECT_EQ(rig.counter("net.packets_sent"), 2u);
  EXPECT_EQ(rig.counter("net.bytes_sent"),
            1200u + static_cast<unsigned>(lte::kGtpTunnelOverheadBytes) +
                1200u);
}

TEST(GtpPlane, DownlinkEncapsulatesByUeAddress) {
  Rig rig;
  rig.attach_ue(1);
  const auto* bearer = rig.gateway.find_by_imsi(Imsi{1});

  // Internet host sends toward the UE's address (routed to the P-GW).
  rig.net.send(net::Packet{rig.internet, rig.gw, 900, kUserIpProtocol,
                           encode_inner(InnerDatagram{bearer->ue_ip,
                                                      rig.internet, 900})});
  rig.sim.run_all();

  EXPECT_EQ(rig.counter("epc.gw.downlink_bytes"), 900u);
  // Tunnelled on the UE's bearer and delivered at the eNodeB.
  const auto delivered = rig.downlinks_delivered();
  ASSERT_EQ(delivered.size(), 1u);
  ASSERT_FALSE(delivered[0]->annotations.empty());
  EXPECT_EQ(delivered[0]->annotations.back().key, "delivered");
  EXPECT_EQ(delivered[0]->annotations.back().value,
            "teid=" + std::to_string(bearer->downlink_teid.value()) +
                " seq=0 len=900");
}

TEST(GtpPlane, UnknownTeidDropped) {
  Rig rig;
  rig.attach_ue(1);
  // Hand-craft a GTP frame with a bogus TEID.
  auto bytes = lte::encode_gtpu(lte::GtpUHeader{Teid{0xbad}, 100, 0});
  const auto inner = encode_inner(
      InnerDatagram{net::Ipv4{1}, rig.internet, 100});
  bytes.insert(bytes.end(), inner.begin(), inner.end());
  rig.net.send(net::Packet{rig.enb, rig.gw, 140, kGtpUProtocol, bytes});
  rig.sim.run_all();
  EXPECT_EQ(rig.counter("epc.gw.uplink_bytes"), 0u);
}

TEST(GtpPlane, UnknownUeAddressDropped) {
  Rig rig;
  rig.attach_ue(1);
  rig.net.send(net::Packet{
      rig.internet, rig.gw, 100, kUserIpProtocol,
      encode_inner(InnerDatagram{net::Ipv4{0xdeadbeef}, rig.internet, 100})});
  rig.sim.run_all();
  EXPECT_EQ(rig.counter("epc.gw.downlink_bytes"), 0u);
  EXPECT_TRUE(rig.downlinks_delivered().empty());
}

TEST(GtpPlane, UnconfiguredBearerRefusesUplink) {
  Rig rig;
  rig.enb_plane.send_uplink(net::Ipv4{0x01020304}, rig.internet, 500);
  rig.sim.run_all();
  EXPECT_EQ(rig.counter("epc.gw.uplink_bytes"), 0u);
}

TEST(GtpPlane, MultipleBearersKeptSeparate) {
  Rig rig;
  rig.attach_ue(1);
  rig.attach_ue(2);
  const auto* b1 = rig.gateway.find_by_imsi(Imsi{1});
  const auto* b2 = rig.gateway.find_by_imsi(Imsi{2});
  rig.enb_plane.send_uplink(b1->ue_ip, rig.internet, 100);
  rig.enb_plane.send_uplink(b2->ue_ip, rig.internet, 200);
  rig.enb_plane.send_uplink(b2->ue_ip, rig.internet, 200);
  rig.sim.run_all();
  EXPECT_EQ(rig.counter("epc.gw.uplink_bytes"), 500u);
}

TEST(GtpPlane, TromboneLatencyIsVisible) {
  // Downlink internet→gw is 5 ms; tunnel gw→enb is 25 ms. The UE-visible
  // arrival reflects both legs — the measured trombone.
  Rig rig;
  rig.attach_ue(1);
  const auto* bearer = rig.gateway.find_by_imsi(Imsi{1});
  rig.net.send(net::Packet{rig.internet, rig.gw, 1000, kUserIpProtocol,
                           encode_inner(InnerDatagram{bearer->ue_ip,
                                                      rig.internet, 1000})});
  rig.sim.run_all();
  const auto delivered = rig.downlinks_delivered();
  ASSERT_EQ(delivered.size(), 1u);
  const double arrival_ms = (delivered[0]->end - TimePoint{}).to_millis();
  EXPECT_GT(arrival_ms, 30.0);
  EXPECT_LT(arrival_ms, 32.0);
}

}  // namespace
}  // namespace dlte::epc
