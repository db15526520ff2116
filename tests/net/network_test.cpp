#include "net/network.h"

#include <gtest/gtest.h>

namespace dlte::net {
namespace {

struct Fixture {
  Fixture() { net.set_metrics(&metrics); }

  [[nodiscard]] std::uint64_t count(const std::string& name) {
    return metrics.counter(name).value();
  }

  sim::Simulator sim;
  Network net{sim};
  obs::MetricsRegistry metrics;
};

TEST(Ipv4, Formatting) {
  EXPECT_EQ(Ipv4{0xC0A80001}.to_string(), "192.168.0.1");
  EXPECT_EQ(Ipv4{0}.to_string(), "0.0.0.0");
}

TEST(Network, DirectDelivery) {
  Fixture f;
  const NodeId a = f.net.add_node("a");
  const NodeId b = f.net.add_node("b");
  f.net.add_link(a, b, LinkConfig{DataRate::mbps(10.0), Duration::millis(5)});

  int received = 0;
  TimePoint arrival;
  f.net.set_protocol_handler(b, 0, [&](Packet&& p) {
    ++received;
    arrival = f.sim.now();
    EXPECT_EQ(p.src, a);
  });
  f.net.send(Packet{a, b, 1250, 0, {}});
  f.sim.run_all();
  EXPECT_EQ(received, 1);
  // 1250 B at 10 Mb/s = 1 ms serialization + 5 ms propagation.
  EXPECT_NEAR((arrival - TimePoint{}).to_millis(), 6.0, 0.01);
}

TEST(Network, MultiHopRoutesViaShortestDelay) {
  Fixture f;
  const NodeId a = f.net.add_node("a");
  const NodeId m1 = f.net.add_node("m1");
  const NodeId m2 = f.net.add_node("m2");
  const NodeId b = f.net.add_node("b");
  // Short path a-m1-b (2+2), long path a-m2-b (10+10).
  f.net.add_link(a, m1, LinkConfig{DataRate::mbps(100.0), Duration::millis(2)});
  f.net.add_link(m1, b, LinkConfig{DataRate::mbps(100.0), Duration::millis(2)});
  f.net.add_link(a, m2, LinkConfig{DataRate::mbps(100.0), Duration::millis(10)});
  f.net.add_link(m2, b, LinkConfig{DataRate::mbps(100.0), Duration::millis(10)});

  EXPECT_EQ(f.net.hop_count(a, b), 2);
  EXPECT_NEAR(f.net.path_latency(a, b, 0).to_millis(), 4.0, 0.01);

  TimePoint arrival;
  f.net.set_protocol_handler(b, 0, [&](Packet&&) { arrival = f.sim.now(); });
  f.net.send(Packet{a, b, 100, 0, {}});
  f.sim.run_all();
  // Two 2 ms hops (plus 8 us of serialization each), not two 10 ms ones.
  EXPECT_NEAR((arrival - TimePoint{}).to_millis(), 4.016, 0.001);
  EXPECT_EQ(f.count("net.packets_sent"), 2u);
}

TEST(Network, NoRouteDropsSilently) {
  Fixture f;
  const NodeId a = f.net.add_node("a");
  const NodeId b = f.net.add_node("b");  // Unconnected.
  EXPECT_EQ(f.net.hop_count(a, b), -1);
  int received = 0;
  f.net.set_protocol_handler(b, 0, [&](Packet&&) { ++received; });
  f.net.send(Packet{a, b, 100, 0, {}});
  f.sim.run_all();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.count("net.unroutable_drops"), 1u);
}

TEST(Network, SelfDeliveryIsImmediate) {
  Fixture f;
  const NodeId a = f.net.add_node("a");
  int received = 0;
  f.net.set_protocol_handler(a, 0, [&](Packet&&) { ++received; });
  f.net.send(Packet{a, a, 100, 0, {}});
  f.sim.run_all();
  EXPECT_EQ(received, 1);
}

TEST(Network, SerializationQueuesBackToBackPackets) {
  Fixture f;
  const NodeId a = f.net.add_node("a");
  const NodeId b = f.net.add_node("b");
  // 1 Mb/s: a 1250 B packet takes 10 ms on the wire.
  f.net.add_link(a, b, LinkConfig{DataRate::mbps(1.0), Duration::millis(0)});
  std::vector<double> arrivals;
  f.net.set_protocol_handler(b, 0, [&](Packet&&) {
    arrivals.push_back((f.sim.now() - TimePoint{}).to_millis());
  });
  for (int i = 0; i < 3; ++i) f.net.send(Packet{a, b, 1250, 0, {}});
  f.sim.run_all();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(arrivals[0], 10.0, 0.1);
  EXPECT_NEAR(arrivals[1], 20.0, 0.1);
  EXPECT_NEAR(arrivals[2], 30.0, 0.1);
}

TEST(Network, QueueOverflowDrops) {
  Fixture f;
  const NodeId a = f.net.add_node("a");
  const NodeId b = f.net.add_node("b");
  // The 256 KiB drop-tail queue holds about 210 packets of 1250 B: a
  // burst of 300 overflows it.
  f.net.add_link(a, b, LinkConfig{DataRate::mbps(1.0), Duration::millis(0)});
  int received = 0;
  f.net.set_protocol_handler(b, 0, [&](Packet&&) { ++received; });
  for (int i = 0; i < 300; ++i) f.net.send(Packet{a, b, 1250, 0, {}});
  f.sim.run_all();
  EXPECT_LT(received, 300);
  EXPECT_GT(received, 200);
  EXPECT_GT(f.count("net.queue_drops"), 0u);
  EXPECT_EQ(f.count("net.packets_sent"),
            static_cast<std::uint64_t>(received));
  EXPECT_EQ(f.count("net.packets_sent") + f.count("net.queue_drops"), 300u);
}

TEST(Network, PathLatencyAccountsForPacketSize) {
  Fixture f;
  const NodeId a = f.net.add_node("a");
  const NodeId b = f.net.add_node("b");
  f.net.add_link(a, b, LinkConfig{DataRate::mbps(8.0), Duration::millis(1)});
  // 1000 B at 8 Mb/s = 1 ms + 1 ms propagation.
  EXPECT_NEAR(f.net.path_latency(a, b, 1000).to_millis(), 2.0, 0.01);
  EXPECT_NEAR(f.net.path_latency(a, b, 0).to_millis(), 1.0, 0.01);
}

TEST(Network, TopologyGrowsAfterTraffic) {
  // dLTE's openness claim depends on the substrate tolerating organic
  // growth: adding a node after routes were computed must work.
  Fixture f;
  const NodeId a = f.net.add_node("a");
  const NodeId b = f.net.add_node("b");
  f.net.add_link(a, b, LinkConfig{});
  f.net.send(Packet{a, b, 10, 0, {}});
  f.sim.run_all();

  const NodeId c = f.net.add_node("c");
  f.net.add_link(b, c, LinkConfig{});
  int received = 0;
  f.net.set_protocol_handler(c, 0, [&](Packet&&) { ++received; });
  f.net.send(Packet{a, c, 10, 0, {}});
  f.sim.run_all();
  EXPECT_EQ(received, 1);
}

TEST(Network, NodeNamesStored) {
  Fixture f;
  const NodeId a = f.net.add_node("ap-papua-1");
  EXPECT_EQ(f.net.node_name(a), "ap-papua-1");
}

TEST(Network, ReenabledLinkDeliversAgainAndAccruesPartitionSeconds) {
  // Disabling a link (a radio handoff, a partition) drops what it would
  // carry; re-enabling it restores delivery and adds the down time to
  // net.partition_seconds, once per bidirectional link.
  Fixture f;
  const NodeId a = f.net.add_node("a");
  const NodeId b = f.net.add_node("b");
  f.net.add_link(a, b, LinkConfig{DataRate::mbps(100.0),
                                  Duration::millis(1)});
  int received = 0;
  f.net.set_protocol_handler(b, 0, [&](Packet&&) { ++received; });
  const auto at = [](double s) { return TimePoint{} + Duration::seconds(s); };
  const auto partition_seconds = [&f] {
    return f.metrics.gauge("net.partition_seconds").value();
  };

  f.sim.schedule_at(at(1.0), [&] { f.net.set_link_enabled(a, b, false); });
  f.sim.schedule_at(at(1.5), [&] { f.net.send(Packet{a, b, 100, 0, {}}); });
  f.sim.schedule_at(at(3.5), [&] { f.net.set_link_enabled(a, b, true); });
  f.sim.run_until(at(3.0));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.count("net.unroutable_drops"), 1u);
  // Nothing accrues while the link is still down.
  EXPECT_DOUBLE_EQ(partition_seconds(), 0.0);

  f.sim.run_until(at(4.0));
  EXPECT_DOUBLE_EQ(partition_seconds(), 2.5);
  for (int i = 0; i < 10; ++i) f.net.send(Packet{a, b, 100, 0, {}});
  f.sim.run_all();
  EXPECT_EQ(received, 10);

  // A second window adds to the first; re-enabling a live link and
  // disabling from the other end count nothing extra.
  f.sim.schedule_at(at(10.0), [&] { f.net.set_link_enabled(b, a, false); });
  f.sim.schedule_at(at(10.25), [&] { f.net.set_link_enabled(a, b, true); });
  f.sim.schedule_at(at(11.0), [&] { f.net.set_link_enabled(a, b, true); });
  f.sim.run_all();
  EXPECT_DOUBLE_EQ(partition_seconds(), 2.75);
}

TEST(Network, RemoteNodeHandsDeliveredPacketsToEgress) {
  Fixture f;
  const NodeId a = f.net.add_node("a");
  int egressed = 0;
  TimePoint at;
  const NodeId xg = f.net.add_remote_node("xg", [&](Packet&& p) {
    ++egressed;
    at = f.sim.now();
    EXPECT_EQ(p.protocol, 7);  // Payload tag survives the hand-off.
  });
  f.net.add_link(a, xg, LinkConfig{DataRate::mbps(100.0),
                                   Duration::millis(3)});
  f.net.send(Packet{a, xg, 0, 7, {}});
  f.sim.run_all();
  EXPECT_EQ(egressed, 1);
  EXPECT_NEAR((at - TimePoint{}).to_millis(), 3.0, 0.01);
  EXPECT_EQ(f.count("net.remote_forwards"), 1u);
}

}  // namespace
}  // namespace dlte::net
