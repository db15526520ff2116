#include "spectrum/coordinator.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace dlte::spectrum {
namespace {

// N APs connected through one Internet router, 10 ms each way.
struct Fixture {
  sim::Simulator sim;
  net::Network net{sim};
  NodeId router = net.add_node("internet");
  std::vector<NodeId> nodes;
  // Coordinator i counts under `ap<i>.x2.*` and `ap<i>.spectrum.*`.
  obs::MetricsRegistry metrics;
  std::vector<std::unique_ptr<PeerCoordinator>> coords;

  void build(int n, lte::DlteMode mode,
             Duration period = Duration::seconds(1.0)) {
    for (int i = 0; i < n; ++i) {
      const NodeId node = net.add_node("ap" + std::to_string(i));
      net.add_link(node, router,
                   net::LinkConfig{DataRate::mbps(10.0),
                                   Duration::millis(10)});
      nodes.push_back(node);
      coords.push_back(std::make_unique<PeerCoordinator>(
          sim, net, node,
          CoordinatorConfig{ApId{static_cast<std::uint32_t>(i + 1)}, mode,
                            period}));
      coords.back()->set_metrics(&metrics, "ap" + std::to_string(i) + ".");
    }
    // Full-mesh peering, as the registry's contention domain would give.
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j) {
          coords[static_cast<std::size_t>(i)]->add_peer(
              ApId{static_cast<std::uint32_t>(j + 1)},
              nodes[static_cast<std::size_t>(j)]);
        }
      }
    }
  }

  [[nodiscard]] std::uint64_t counter(std::size_t ap,
                                      const std::string& name) {
    return metrics.counter("ap" + std::to_string(ap) + "." + name).value();
  }

  void start_all() {
    for (auto& c : coords) c->start();
  }

  void run_for(double seconds) {
    sim.run_until(sim.now() + Duration::seconds(seconds));
  }
};

TEST(Coordinator, FairShareConvergesToEqualSplit) {
  Fixture f;
  f.build(4, lte::DlteMode::kFairShare);
  for (auto& c : f.coords) c->set_offered_load(1.0);
  f.start_all();
  f.run_for(5.0);
  for (auto& c : f.coords) {
    EXPECT_NEAR(c->current_share(), 0.25, 1e-9);
  }
}

TEST(Coordinator, LightDemandKeepsItsAsk) {
  Fixture f;
  f.build(3, lte::DlteMode::kFairShare);
  f.coords[0]->set_offered_load(0.1);
  f.coords[1]->set_offered_load(1.0);
  f.coords[2]->set_offered_load(1.0);
  f.start_all();
  f.run_for(5.0);
  EXPECT_NEAR(f.coords[0]->current_share(), 0.10, 1e-9);
  EXPECT_NEAR(f.coords[1]->current_share(), 0.45, 1e-9);
  EXPECT_NEAR(f.coords[2]->current_share(), 0.45, 1e-9);
}

TEST(Coordinator, CooperativeModeFollowsDemand) {
  Fixture f;
  f.build(2, lte::DlteMode::kCooperative);
  f.coords[0]->set_offered_load(0.9);
  f.coords[1]->set_offered_load(0.1);
  f.start_all();
  f.run_for(5.0);
  EXPECT_NEAR(f.coords[0]->current_share(), 0.9, 1e-9);
  EXPECT_NEAR(f.coords[1]->current_share(), 0.1, 1e-9);
}

TEST(Coordinator, MixedModeFallsBackToFairShare) {
  // Cooperation requires unanimity; one fair-share member downgrades the
  // round to max-min.
  Fixture f;
  f.build(2, lte::DlteMode::kCooperative);
  f.coords[1]->set_mode(lte::DlteMode::kFairShare);
  f.coords[0]->set_offered_load(0.9);
  f.coords[1]->set_offered_load(0.9);
  f.start_all();
  f.run_for(5.0);
  EXPECT_NEAR(f.coords[0]->current_share(), 0.5, 1e-9);
  EXPECT_NEAR(f.coords[1]->current_share(), 0.5, 1e-9);
}

TEST(Coordinator, IsolatedApDoesNotCoordinate) {
  Fixture f;
  f.build(2, lte::DlteMode::kIsolated);
  f.start_all();
  f.run_for(3.0);
  EXPECT_EQ(f.counter(0, "x2.messages_sent"), 0u);
  EXPECT_DOUBLE_EQ(f.coords[0]->current_share(), 1.0);
}

TEST(Coordinator, OnlyLowestApLeadsRounds) {
  Fixture f;
  f.build(3, lte::DlteMode::kFairShare);
  for (auto& c : f.coords) c->set_offered_load(0.5);
  f.start_all();
  f.run_for(4.0);
  EXPECT_GT(f.counter(0, "x2.rounds_led"), 0u);
  EXPECT_EQ(f.counter(1, "x2.rounds_led"), 0u);
  EXPECT_EQ(f.counter(2, "x2.rounds_led"), 0u);
}

TEST(Coordinator, AppliesShareToAttachedCell) {
  Fixture f;
  f.build(2, lte::DlteMode::kFairShare);
  mac::LteCellMac cell{mac::CellMacConfig{}};
  f.coords[0]->attach_cell(&cell);
  for (auto& c : f.coords) c->set_offered_load(1.0);
  f.start_all();
  f.run_for(5.0);
  EXPECT_NEAR(cell.prb_share(), 0.5, 1e-9);
}

TEST(Coordinator, NewPeerJoiningRebalances) {
  // Organic growth: a third AP appears; within a few rounds the split
  // moves from 1/2 to 1/3 with no human in the loop.
  Fixture f;
  f.build(3, lte::DlteMode::kFairShare);
  // Initially only APs 0 and 1 know each other.
  f.coords[0]->set_offered_load(1.0);
  f.coords[1]->set_offered_load(1.0);
  f.coords[2]->set_offered_load(1.0);
  f.start_all();
  f.run_for(5.0);
  EXPECT_NEAR(f.coords[0]->current_share(), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(f.coords[2]->current_share(), 1.0 / 3.0, 1e-9);
}

TEST(Coordinator, StatusMessagesFlowBothWays) {
  Fixture f;
  f.build(2, lte::DlteMode::kFairShare);
  f.coords[1]->set_offered_load(0.2);
  f.start_all();
  f.run_for(3.0);
  // AP 1 leads: its split shows it heard AP 2's load, and AP 2 applied
  // the share AP 1 sent back.
  EXPECT_NEAR(f.coords[0]->current_share(), 0.8, 1e-9);
  EXPECT_NEAR(f.coords[1]->current_share(), 0.2, 1e-9);
  EXPECT_GT(f.counter(0, "x2.messages_received"), 0u);
  EXPECT_GT(f.counter(1, "x2.messages_received"), 0u);
}

TEST(Coordinator, OverheadScalesWithPeersAndPeriod) {
  // C7's mechanism: per-AP X2 byte rate grows with membership, shrinks
  // with a longer reporting period (the paper's backhaul-constrained
  // mitigation).
  auto bytes_for = [](int n, double period_s) {
    Fixture f;
    f.build(n, lte::DlteMode::kFairShare, Duration::seconds(period_s));
    for (auto& c : f.coords) c->set_offered_load(1.0);
    f.start_all();
    f.run_for(10.0);
    return f.counter(0, "x2.bytes_sent");
  };
  EXPECT_GT(bytes_for(8, 1.0), bytes_for(2, 1.0));
  EXPECT_GT(bytes_for(4, 0.5), bytes_for(4, 2.0));
}

TEST(Coordinator, DeadPeerExpiresAndSharesRebalance) {
  // WiFi-like failure semantics: a crashed AP stops reporting, its peers
  // expire it after the liveness timeout, and the next round reclaims its
  // share for the survivors.
  Fixture f;
  f.build(3, lte::DlteMode::kFairShare);
  for (auto& c : f.coords) c->set_offered_load(1.0);
  f.start_all();
  f.run_for(5.0);
  EXPECT_NEAR(f.coords[0]->current_share(), 1.0 / 3.0, 1e-9);

  // AP 3 goes dark (crash): no more status reports from it.
  f.coords[2]->set_offline(true);
  f.run_for(6.0);  // Past the 3.5 s liveness timeout + a share round.
  EXPECT_EQ(f.counter(0, "x2.peers_expired"), 1u);
  EXPECT_FALSE(f.coords[0]->peer_node(ApId{3}).has_value());
  EXPECT_EQ(f.coords[0]->peer_count(), 1u);
  EXPECT_NEAR(f.coords[0]->current_share(), 0.5, 1e-9);
  EXPECT_NEAR(f.coords[1]->current_share(), 0.5, 1e-9);

  // The AP returns: its hello re-establishes peering and the split goes
  // back to thirds.
  f.coords[2]->set_offline(false);
  f.coords[2]->send_hello("ops@example.net");
  f.run_for(6.0);
  EXPECT_NEAR(f.coords[0]->current_share(), 1.0 / 3.0, 1e-9);
}

TEST(Coordinator, X2DuplicatesAreCountedAndHarmless) {
  // Two twin domains; in one, halfway between report ticks, each AP
  // sends a second copy of what it already said: the leader's status and
  // its first round's proposal, and the member's accept of that round.
  Fixture clean;
  Fixture dup;
  for (Fixture* f : {&clean, &dup}) {
    f->build(2, lte::DlteMode::kFairShare);
    for (auto& c : f->coords) c->set_offered_load(1.0);
    f->start_all();
  }
  const lte::DltePeerStatus status{ApId{1}, lte::DlteMode::kFairShare, 1.0, 0.0,
                                   0};
  const lte::DlteShareProposal proposal{1, {1, 2}, {0.5, 0.5}};
  const lte::DlteShareAccept accept{1, ApId{2}};
  const auto resend = [&] {
    ASSERT_TRUE(dup.coords[0]->send_to_peer(ApId{2}, status));
    ASSERT_TRUE(dup.coords[0]->send_to_peer(ApId{2}, proposal));
    ASSERT_TRUE(dup.coords[1]->send_to_peer(ApId{1}, accept));
  };
  for (const double t : {2.5, 3.5, 4.5}) {
    dup.sim.schedule_at(TimePoint{} + Duration::seconds(t), resend);
  }
  clean.run_for(5.0);
  dup.run_for(5.0);

  // Counted: each duplicate is a message sent and received, and each
  // duplicated proposal draws one more accept.
  const auto extra = [&](std::size_t ap, const std::string& name) {
    return dup.counter(ap, name) - clean.counter(ap, name);
  };
  EXPECT_EQ(extra(0, "x2.messages_sent"), 6u);
  EXPECT_EQ(extra(1, "x2.messages_sent"), 6u);
  EXPECT_EQ(extra(0, "x2.messages_received"), 6u);
  EXPECT_EQ(extra(1, "x2.messages_received"), 6u);
  EXPECT_EQ(extra(1, "x2.shares_applied"), 3u);
  // Harmless: the rounds, the share math and the quota churn are the
  // clean domain's.
  EXPECT_EQ(extra(0, "x2.rounds_led"), 0u);
  EXPECT_EQ(extra(1, "x2.grant_churn"), 0u);
  EXPECT_NEAR(dup.coords[0]->current_share(), 0.5, 1e-9);
  EXPECT_NEAR(dup.coords[1]->current_share(), 0.5, 1e-9);
}

TEST(Coordinator, CoexistenceModeRefusedWithoutWifiOccupants) {
  // Guard rail: switching into LBT or duty-cycle on a band with no
  // registered WiFi occupants is a misconfiguration — X2 share rounds
  // would silently stop with nobody on the air to defer to.
  Fixture f;
  f.build(2, lte::DlteMode::kFairShare);
  obs::MetricsRegistry reg;
  f.coords[0]->set_metrics(&reg, "ap0.");

  EXPECT_FALSE(f.coords[0]->set_mode(lte::DlteMode::kLbt));
  EXPECT_FALSE(f.coords[0]->set_mode(lte::DlteMode::kDutyCycle));
  EXPECT_EQ(f.coords[0]->mode(), lte::DlteMode::kFairShare);
  EXPECT_EQ(reg.counter("ap0.spectrum.mode_rejects").value(), 2u);

  // Non-coexistence switches stay unguarded.
  EXPECT_TRUE(f.coords[0]->set_mode(lte::DlteMode::kCooperative));
  EXPECT_EQ(f.coords[0]->mode(), lte::DlteMode::kCooperative);
}

TEST(Coordinator, CoexistenceModeAcceptedOnSharedBand) {
  Fixture f;
  f.build(2, lte::DlteMode::kFairShare);
  f.coords[0]->set_wifi_occupants(3);
  EXPECT_TRUE(f.coords[0]->set_mode(lte::DlteMode::kLbt));
  EXPECT_EQ(f.coords[0]->mode(), lte::DlteMode::kLbt);
  EXPECT_EQ(f.counter(0, "spectrum.mode_rejects"), 0u);
  // On a shared band the coordinator stops claiming a licensed split: the
  // on-air arbitration (src/coex) decides airtime, so the local quota
  // opens to the full carrier.
  EXPECT_DOUBLE_EQ(f.coords[0]->current_share(), 1.0);
}

TEST(Coordinator, CoexistenceModeSuppressesShareRounds) {
  // A coordinator in LBT mode neither leads rounds nor applies proposals;
  // its fair-share peer still reports but cannot move the LBT member.
  Fixture f;
  f.build(2, lte::DlteMode::kFairShare);
  f.coords[0]->set_wifi_occupants(1);
  ASSERT_TRUE(f.coords[0]->set_mode(lte::DlteMode::kLbt));
  const auto applied_at_switch = f.counter(0, "x2.shares_applied");
  for (auto& c : f.coords) c->set_offered_load(1.0);
  f.start_all();
  f.run_for(5.0);
  EXPECT_EQ(f.counter(0, "x2.rounds_led"), 0u);
  EXPECT_EQ(f.counter(0, "x2.shares_applied"), applied_at_switch);
  EXPECT_DOUBLE_EQ(f.coords[0]->current_share(), 1.0);
}

TEST(Coordinator, X2LoadIsKbitPerSecondScale) {
  // §4.3 [28]: X2 is low-bandwidth. At 1 Hz reporting with 7 peers the
  // per-AP load must be well under 100 kbit/s.
  Fixture f;
  f.build(8, lte::DlteMode::kFairShare);
  for (auto& c : f.coords) c->set_offered_load(1.0);
  f.start_all();
  f.run_for(10.0);
  const double kbps =
      f.counter(0, "x2.bytes_sent") * 8.0 / 10.0 / 1000.0;
  EXPECT_LT(kbps, 100.0);
  EXPECT_GT(kbps, 0.1);
}

}  // namespace
}  // namespace dlte::spectrum
