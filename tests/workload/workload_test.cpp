#include <gtest/gtest.h>

#include <algorithm>

#include "obs/prof.h"
#include "workload/ott_service.h"
#include "workload/sources.h"

namespace dlte::workload {
namespace {

struct Fixture {
  sim::Simulator sim;
  net::Network net{sim};
  NodeId client_node = net.add_node("client");
  NodeId server_node = net.add_node("server");
  transport::TransportHost client{sim, net, client_node};
  OttService ott{sim, net, server_node};

  Fixture() {
    net.add_link(client_node, server_node,
                 net::LinkConfig{DataRate::mbps(20.0), Duration::millis(15)});
  }

  void run_for(double s) { sim.run_until(sim.now() + Duration::seconds(s)); }
};

TEST(CbrSource, OffersConfiguredRate) {
  Fixture f;
  auto& conn = f.client.connect(f.server_node, transport::TransportConfig{});
  CbrSource cbr{f.sim, conn, DataRate::kbps(64.0)};
  cbr.start();
  f.run_for(10.0);
  // 64 kb/s for 10 s = 80 kB offered (one tick of slack).
  EXPECT_NEAR(cbr.bytes_offered(), 80'000.0, 500.0);
  EXPECT_NEAR(f.ott.delivered_bytes(conn.id()), 80'000.0, 2'000.0);
}

TEST(CbrSource, StopHalts) {
  Fixture f;
  auto& conn = f.client.connect(f.server_node, transport::TransportConfig{});
  CbrSource cbr{f.sim, conn, DataRate::kbps(64.0)};
  cbr.start();
  f.run_for(1.0);
  cbr.stop();
  const double at_stop = cbr.bytes_offered();
  f.run_for(2.0);
  EXPECT_EQ(cbr.bytes_offered(), at_stop);
}

// Every event a CBR call schedules is attributed to a label: its ticks
// ("workload.cbr"), the connection's retransmission timer
// ("transport.rto"), and the network and server events they drive.
TEST(CbrSource, TicksAndRetransmitTimersAreLabeled) {
  sim::Simulator sim;
  obs::EventProfiler profiler;
  sim.set_profiler(&profiler);  // Before any component interns a label.
  net::Network net{sim};
  const NodeId client_node = net.add_node("client");
  const NodeId server_node = net.add_node("server");
  transport::TransportHost client{sim, net, client_node};
  OttService ott{sim, net, server_node};
  net.add_link(client_node, server_node,
               net::LinkConfig{DataRate::mbps(20.0), Duration::millis(15)});
  auto& conn = client.connect(server_node, transport::TransportConfig{});
  CbrSource cbr{sim, conn, DataRate::kbps(64.0)};
  cbr.start();
  sim.run_until(TimePoint{} + Duration::seconds(2.0));

  EXPECT_GT(profiler.stats(sim.label("workload.cbr")).executed, 0u);
  EXPECT_GT(profiler.stats(sim.label("transport.rto")).executed, 0u);
  EXPECT_EQ(profiler.stats(obs::kUnlabeledEvent).schedules, 0u);
  EXPECT_EQ(profiler.stats(obs::kUnlabeledEvent).executed, 0u);
}

TEST(OttService, ProgressTimelineMonotone) {
  Fixture f;
  auto& conn = f.client.connect(f.server_node, transport::TransportConfig{});
  conn.send(200'000.0);
  f.run_for(5.0);
  const auto& samples = f.ott.progress(conn.id());
  ASSERT_GT(samples.size(), 10u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].bytes, samples[i - 1].bytes);
    EXPECT_GE(samples[i].when, samples[i - 1].when);
  }
}

TEST(OttService, LongestStallDetectsGap) {
  Fixture f;
  auto& conn = f.client.connect(f.server_node, transport::TransportConfig{});
  CbrSource cbr{f.sim, conn, DataRate::kbps(256.0)};
  cbr.start();
  f.run_for(2.0);
  // Pause the source for 1 s: that's the stall.
  cbr.stop();
  f.run_for(1.0);
  CbrSource cbr2{f.sim, conn, DataRate::kbps(256.0)};
  cbr2.start();
  f.run_for(2.0);
  const auto stall = f.ott.longest_stall(
      conn.id(), TimePoint::from_ns(0) + Duration::seconds(1.0),
      TimePoint::from_ns(0) + Duration::seconds(4.5));
  EXPECT_GT(stall.to_seconds(), 0.8);
  EXPECT_LT(stall.to_seconds(), 1.4);
}

TEST(OttService, FirstProgressAfter) {
  Fixture f;
  auto& conn = f.client.connect(f.server_node, transport::TransportConfig{});
  f.sim.schedule(Duration::seconds(2.0), [&] { conn.send(10'000.0); });
  f.run_for(5.0);
  // The first progress sample after t = 1 s comes with the first byte.
  const auto& samples = f.ott.progress(conn.id());
  const auto first = std::find_if(
      samples.begin(), samples.end(),
      [](const auto& s) { return s.when.to_seconds() >= 1.0; });
  ASSERT_NE(first, samples.end());
  const TimePoint t = first->when;
  EXPECT_GT(t.to_seconds(), 2.0);
  EXPECT_LT(t.to_seconds(), 2.2);
}

TEST(OttService, UnknownConnectionIsEmpty) {
  Fixture f;
  EXPECT_EQ(f.ott.delivered_bytes(ConnectionId{999}), 0.0);
  EXPECT_TRUE(f.ott.progress(ConnectionId{999}).empty());
}

}  // namespace
}  // namespace dlte::workload
