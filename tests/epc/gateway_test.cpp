#include "epc/gateway.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace dlte::epc {
namespace {

TEST(Gateway, SessionLifecycle) {
  Gateway gw{0x0A2D0000};
  EXPECT_EQ(gw.session_count(), 0u);
  BearerContext& b = gw.create_session(Imsi{1}, BearerId{5});
  EXPECT_EQ(b.imsi, Imsi{1});
  EXPECT_NE(b.uplink_teid.value(), 0u);
  EXPECT_EQ(b.ue_ip.to_string(), "10.45.0.1");
  gw.complete_session(Imsi{1}, Teid{99});
  EXPECT_EQ(gw.find_by_imsi(Imsi{1})->downlink_teid, Teid{99});
  gw.delete_session(Imsi{1});
  EXPECT_EQ(gw.session_count(), 0u);
  EXPECT_EQ(gw.find_by_imsi(Imsi{1}), nullptr);
}

TEST(Gateway, DistinctAddressesAndTeids) {
  Gateway gw{0x0A2D0000};
  // Copies: a session reference is valid only until the next create.
  const BearerContext a = gw.create_session(Imsi{1}, BearerId{5});
  const BearerContext b = gw.create_session(Imsi{2}, BearerId{5});
  EXPECT_NE(a.ue_ip, b.ue_ip);
  EXPECT_NE(a.uplink_teid, b.uplink_teid);
}

TEST(Gateway, LookupByTeidAndIp) {
  Gateway gw{0x0A2D0000};
  const auto& a = gw.create_session(Imsi{7}, BearerId{5});
  EXPECT_EQ(gw.find_by_uplink_teid(a.uplink_teid)->imsi, Imsi{7});
  EXPECT_EQ(gw.find_by_ue_ip(a.ue_ip)->imsi, Imsi{7});
  EXPECT_EQ(gw.find_by_uplink_teid(Teid{0xdead}), nullptr);
  EXPECT_EQ(gw.find_by_ue_ip(net::Ipv4{0x01010101}), nullptr);
}

TEST(Gateway, ReattachReplacesSession) {
  // A re-attach (e.g. after a crash-reboot of the UE) replaces the
  // session rather than leaking a second one.
  Gateway gw{0x0A2D0000};
  const Teid first = gw.create_session(Imsi{3}, BearerId{5}).uplink_teid;
  const Teid second = gw.create_session(Imsi{3}, BearerId{5}).uplink_teid;
  EXPECT_EQ(gw.session_count(), 1u);
  EXPECT_NE(first, second);
  EXPECT_EQ(gw.find_by_uplink_teid(first), nullptr);
}

TEST(Gateway, AccountingAccumulates) {
  Gateway gw{0x0A2D0000};
  obs::MetricsRegistry metrics;
  gw.set_metrics(&metrics);
  gw.count_uplink(100);
  gw.count_uplink(200);
  gw.count_downlink(50);
  EXPECT_EQ(metrics.counter("epc.gw.uplink_bytes").value(), 300u);
  EXPECT_EQ(metrics.counter("epc.gw.downlink_bytes").value(), 50u);
}

TEST(Gateway, DeleteUnknownIsNoop) {
  Gateway gw{0x0A2D0000};
  gw.delete_session(Imsi{404});
  EXPECT_EQ(gw.session_count(), 0u);
}

}  // namespace
}  // namespace dlte::epc
