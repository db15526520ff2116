#include "transport/transport.h"

#include <gtest/gtest.h>

#include <map>

namespace dlte::transport {
namespace {

// Client --- 20ms/50Mb --- router --- 20ms/50Mb --- server. The second
// client node models the AP the UE roams to.
struct Fixture {
  sim::Simulator sim;
  net::Network net{sim};
  NodeId client_node = net.add_node("client@ap1");
  NodeId client_node2 = net.add_node("client@ap2");
  NodeId router = net.add_node("router");
  NodeId server_node = net.add_node("server");
  TransportHost client{sim, net, client_node};
  TransportHost client2{sim, net, client_node2};
  TransportHost server{sim, net, server_node};

  Fixture() {
    const net::LinkConfig edge{DataRate::mbps(50.0), Duration::millis(20),
                               1 << 20};
    net.add_link(client_node, router, edge);
    net.add_link(client_node2, router, edge);
    net.add_link(router, server_node, edge);
    server.listen([this](ServerConnection& sc) { accepted[sc.id] = &sc; });
  }

  void run_for(Duration d) { sim.run_until(sim.now() + d); }

  // The server's side of a connection, as handed out at accept.
  [[nodiscard]] const ServerConnection* server_connection(
      ConnectionId id) const {
    const auto it = accepted.find(id);
    return it == accepted.end() ? nullptr : it->second;
  }

  std::map<ConnectionId, const ServerConnection*> accepted;
};

TEST(SegmentCodec, RoundTrip) {
  const SegmentHeader h{0xdeadbeefULL, kSegData, 123456.0, 1200};
  const auto bytes = encode_segment(h);
  const auto back = decode_segment(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->connection_id, h.connection_id);
  EXPECT_EQ(back->type, h.type);
  EXPECT_DOUBLE_EQ(back->offset, h.offset);
  EXPECT_EQ(back->length, h.length);
}

TEST(SegmentCodec, TruncatedFails) {
  const auto bytes = encode_segment(SegmentHeader{1, kSegData, 0.0, 0});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(decode_segment(std::span(bytes.data(), cut)).has_value());
  }
}

TEST(Transport, QuicFreshHandshakeTakesOneRtt) {
  Fixture f;
  TimePoint ready_at;
  auto& conn = f.client.connect(
      f.server_node, TransportConfig{.kind = TransportKind::kQuicLike},
      [&] { ready_at = f.sim.now(); });
  f.run_for(Duration::seconds(1.0));
  ASSERT_TRUE(conn.established());
  EXPECT_EQ(conn.stats().handshake_rtts, 1);
  // RTT = 2 * (20 + 20) = 80 ms.
  EXPECT_NEAR((ready_at - TimePoint{}).to_millis(), 80.0, 2.0);
}

TEST(Transport, TcpHandshakeTakesTwoRtts) {
  Fixture f;
  TimePoint ready_at;
  auto& conn = f.client.connect(
      f.server_node, TransportConfig{.kind = TransportKind::kTcpLike},
      [&] { ready_at = f.sim.now(); });
  f.run_for(Duration::seconds(1.0));
  ASSERT_TRUE(conn.established());
  EXPECT_EQ(conn.stats().handshake_rtts, 2);
  EXPECT_NEAR((ready_at - TimePoint{}).to_millis(), 160.0, 2.0);
}

TEST(Transport, ZeroRttResumptionIsImmediate) {
  Fixture f;
  bool ready = false;
  auto& conn = f.client.connect(
      f.server_node, TransportConfig{.kind = TransportKind::kQuicLike},
      [&] { ready = true; }, /*resumed=*/true);
  EXPECT_TRUE(ready);  // Established synchronously, before any RTT.
  conn.send(5000.0);
  f.run_for(Duration::seconds(1.0));
  const auto* sc = f.server_connection(conn.id());
  ASSERT_NE(sc, nullptr);
  EXPECT_DOUBLE_EQ(sc->received_offset, 5000.0);
}

TEST(Transport, BulkTransferCompletes) {
  Fixture f;
  auto& conn = f.client.connect(f.server_node, TransportConfig{});
  conn.send(1e6);  // 1 MB.
  f.run_for(Duration::seconds(10.0));
  EXPECT_DOUBLE_EQ(conn.stats().bytes_acked, 1e6);
  const auto* sc = f.server_connection(conn.id());
  ASSERT_NE(sc, nullptr);
  EXPECT_DOUBLE_EQ(sc->received_offset, 1e6);
}

TEST(Transport, ThroughputApproachesLinkRate) {
  Fixture f;
  auto& conn = f.client.connect(f.server_node, TransportConfig{});
  conn.send(10e6);  // 10 MB over a 50 Mb/s path.
  f.run_for(Duration::seconds(6.0));
  // Ideal: 10 MB / 50 Mb/s = 1.6 s after slow start. Allow generous slack.
  EXPECT_GT(conn.stats().bytes_acked, 9.9e6);
}

TEST(Transport, DataBeforeEstablishmentIsQueued) {
  Fixture f;
  auto& conn = f.client.connect(f.server_node, TransportConfig{});
  conn.send(2000.0);  // Sent during handshake.
  EXPECT_FALSE(conn.established());
  f.run_for(Duration::seconds(1.0));
  EXPECT_DOUBLE_EQ(conn.stats().bytes_acked, 2000.0);
}

TEST(Transport, QuicMigrationContinuesStream) {
  Fixture f;
  auto& conn = f.client.connect(f.server_node, TransportConfig{});
  conn.send(20e6);  // Still in flight at migration time.
  f.run_for(Duration::seconds(0.5));
  const double before = conn.stats().bytes_acked;
  EXPECT_GT(before, 0.0);
  EXPECT_LT(before, 20e6);
  conn.rebind(f.client2);
  EXPECT_FALSE(conn.broken());
  f.run_for(Duration::seconds(20.0));
  EXPECT_DOUBLE_EQ(conn.stats().bytes_acked, 20e6);
  // Server followed the client to its new address.
  EXPECT_EQ(f.server_connection(conn.id())->client_node,
            f.client_node2);
}

TEST(Transport, QuicMigrationGapIsShort) {
  Fixture f;
  auto& conn = f.client.connect(f.server_node, TransportConfig{});
  conn.send(50e6);  // Enough to keep the pipe busy throughout.
  f.run_for(Duration::seconds(1.0));
  conn.rebind(f.client2);
  const TimePoint migrated = f.sim.now();
  const double acked_at_migration = conn.stats().bytes_acked;
  // Find the first ack on the new path by polling in small steps.
  double gap_ms = -1.0;
  for (int step = 0; step < 200; ++step) {
    f.run_for(Duration::millis(10));
    if (conn.stats().bytes_acked > acked_at_migration) {
      gap_ms = (conn.stats().last_ack_at - migrated).to_millis();
      break;
    }
  }
  // One RTT on the new path (80 ms) plus scheduling slack.
  ASSERT_GE(gap_ms, 0.0);
  EXPECT_LT(gap_ms, 150.0);
}

TEST(Transport, TcpBreaksOnRebind) {
  Fixture f;
  auto& conn = f.client.connect(
      f.server_node, TransportConfig{.kind = TransportKind::kTcpLike});
  conn.send(2e6);
  f.run_for(Duration::seconds(1.0));
  conn.rebind(f.client2);
  EXPECT_TRUE(conn.broken());
  const double stalled_at = conn.stats().bytes_acked;
  f.run_for(Duration::seconds(2.0));
  // No further progress on a broken connection.
  EXPECT_NEAR(conn.stats().bytes_acked, stalled_at, 1500.0);
}

TEST(Transport, TcpAppLevelReconnectResumes) {
  Fixture f;
  auto& c1 = f.client.connect(
      f.server_node, TransportConfig{.kind = TransportKind::kTcpLike});
  c1.send(2e6);
  f.run_for(Duration::seconds(1.0));
  c1.rebind(f.client2);
  ASSERT_TRUE(c1.broken());
  // Application resumes the remaining bytes over a new connection.
  const double remaining = 2e6 - c1.stats().bytes_acked;
  auto& c2 = f.client2.connect(
      f.server_node, TransportConfig{.kind = TransportKind::kTcpLike});
  c2.send(remaining);
  f.run_for(Duration::seconds(10.0));
  EXPECT_DOUBLE_EQ(c1.stats().bytes_acked + c2.stats().bytes_acked, 2e6);
}

TEST(Transport, LossTriggersRetransmissionAndRecovers) {
  // Small queue to force drops during slow start.
  sim::Simulator sim;
  net::Network net{sim};
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, net::LinkConfig{DataRate::mbps(5.0),
                                     Duration::millis(10), 8000});
  TransportHost client{sim, net, a};
  TransportHost server{sim, net, b};
  server.listen();
  auto& conn = client.connect(b, TransportConfig{});
  conn.send(3e6);
  sim.run_until(sim.now() + Duration::seconds(30.0));
  EXPECT_GT(conn.stats().retransmissions, 0);
  EXPECT_DOUBLE_EQ(conn.stats().bytes_acked, 3e6);
}

TEST(Transport, ServerTracksMultipleConnections) {
  Fixture f;
  auto& c1 = f.client.connect(f.server_node, TransportConfig{});
  auto& c2 = f.client2.connect(f.server_node, TransportConfig{});
  c1.send(1000.0);
  c2.send(2000.0);
  f.run_for(Duration::seconds(1.0));
  EXPECT_NE(c1.id(), c2.id());
  EXPECT_DOUBLE_EQ(f.server_connection(c1.id())->received_offset,
                   1000.0);
  EXPECT_DOUBLE_EQ(f.server_connection(c2.id())->received_offset,
                   2000.0);
}

TEST(Transport, OnDataCallbackObservesProgress) {
  Fixture f;
  double last_seen = 0.0;
  f.server.listen([&](ServerConnection& sc) {
    sc.on_data = [&](double offset) { last_seen = offset; };
  });
  auto& conn = f.client.connect(f.server_node, TransportConfig{});
  conn.send(10000.0);
  f.run_for(Duration::seconds(2.0));
  EXPECT_DOUBLE_EQ(last_seen, 10000.0);
}


TEST(Transport, ZeroRttDisabledFallsBackToHandshake) {
  Fixture f;
  transport::TransportConfig cfg;
  cfg.zero_rtt_resumption = false;
  bool ready = false;
  auto& conn = f.client.connect(f.server_node, cfg, [&] { ready = true; },
                                /*resumed=*/true);
  // Resumption ticket ignored: the connection still handshakes (1 RTT).
  EXPECT_FALSE(ready);
  EXPECT_FALSE(conn.established());
  f.run_for(Duration::seconds(1.0));
  EXPECT_TRUE(conn.established());
  EXPECT_EQ(conn.stats().handshake_rtts, 1);
}

TEST(Transport, TcpResumedStillPaysTwoRtts) {
  // "resumed" is a QUIC concept; the TCP-like transport must ignore it.
  Fixture f;
  auto& conn = f.client.connect(
      f.server_node, transport::TransportConfig{
                         .kind = transport::TransportKind::kTcpLike},
      nullptr, /*resumed=*/true);
  f.run_for(Duration::seconds(1.0));
  EXPECT_TRUE(conn.established());
  EXPECT_EQ(conn.stats().handshake_rtts, 2);
}

TEST(Transport, SendOnBrokenConnectionIsInert) {
  Fixture f;
  auto& conn = f.client.connect(
      f.server_node, transport::TransportConfig{
                         .kind = transport::TransportKind::kTcpLike});
  conn.send(1000.0);
  f.run_for(Duration::seconds(1.0));
  conn.rebind(f.client2);
  ASSERT_TRUE(conn.broken());
  const double acked = conn.stats().bytes_acked;
  conn.send(50000.0);  // Application bug: writing to a dead socket.
  f.run_for(Duration::seconds(2.0));
  EXPECT_DOUBLE_EQ(conn.stats().bytes_acked, acked);
}

TEST(Transport, UnackedBytesTracksQueue) {
  Fixture f;
  auto& conn = f.client.connect(f.server_node, transport::TransportConfig{});
  conn.send(5'000.0);
  EXPECT_DOUBLE_EQ(conn.unacked_bytes(), 5'000.0);
  f.run_for(Duration::seconds(1.0));
  EXPECT_DOUBLE_EQ(conn.unacked_bytes(), 0.0);
}

}  // namespace
}  // namespace dlte::transport
