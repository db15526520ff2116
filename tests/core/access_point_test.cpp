// Integration: the full dLTE bring-up and serve loop of §4 — registry
// grant, peer discovery, coordinated sharing, open-identity attach.
#include "core/access_point.h"

#include <gtest/gtest.h>

#include "ue/mobility.h"

namespace dlte::core {
namespace {

struct Town {
  sim::Simulator sim;
  net::Network net{sim};
  RadioEnvironment radio;
  spectrum::Registry registry{sim, spectrum::RegistryKind::kCentralizedSas};
  NodeId internet = net.add_node("internet");
  std::vector<std::unique_ptr<DlteAccessPoint>> aps;

  DlteAccessPoint& add_ap(std::uint32_t id, double x_m,
                          lte::DlteMode mode = lte::DlteMode::kFairShare) {
    const NodeId node = net.add_node("ap" + std::to_string(id));
    net.add_link(node, internet,
                 net::LinkConfig{DataRate::mbps(50.0), Duration::millis(15)});
    ApConfig cfg;
    cfg.id = ApId{id};
    cfg.cell = CellId{id};
    cfg.position = Position{x_m, 0.0};
    cfg.mode = mode;
    cfg.seed = id;
    aps.push_back(std::make_unique<DlteAccessPoint>(sim, net, node, radio,
                                                    cfg));
    return *aps.back();
  }

  UeDevice make_ue(std::uint64_t imsi, Position pos, bool publish = true) {
    crypto::Key128 k{};
    for (std::size_t i = 0; i < 16; ++i) {
      k[i] = static_cast<std::uint8_t>(imsi * 7 + i);
    }
    crypto::Block128 op{};
    op[0] = 0xcd;
    const auto opc = crypto::derive_opc(k, op);
    if (publish) {
      registry.publish_subscriber(epc::PublishedKeys{Imsi{imsi}, k, opc});
    }
    ue::SimProfile profile{Imsi{imsi}, k, opc, true, "open"};
    return UeDevice{profile, std::make_unique<ue::StaticMobility>(pos)};
  }

  void run_for(double seconds) {
    sim.run_until(sim.now() + Duration::seconds(seconds));
  }
};

TEST(AccessPoint, BringUpAcquiresGrantAndPeers) {
  Town town;
  auto& a = town.add_ap(1, 0.0);
  auto& b = town.add_ap(2, 6'000.0);
  bool a_up = false, b_up = false;
  a.bring_up(town.registry, [&](bool ok) { a_up = ok; });
  town.run_for(1.0);
  b.bring_up(town.registry, [&](bool ok) { b_up = ok; });
  town.run_for(2.0);

  EXPECT_TRUE(a_up);
  EXPECT_TRUE(b_up);
  EXPECT_EQ(town.registry.grant_count(), 2u);
  // B discovered A from the registry; A learned B from its hello.
  EXPECT_EQ(b.coordinator().peer_count(), 1u);
  town.run_for(2.0);
  EXPECT_EQ(a.coordinator().peer_count(), 1u);
}

TEST(AccessPoint, FairShareConvergesAfterOrganicJoin) {
  Town town;
  auto& a = town.add_ap(1, 0.0);
  auto& b = town.add_ap(2, 6'000.0);
  a.bring_up(town.registry);
  town.run_for(1.0);
  EXPECT_DOUBLE_EQ(a.cell_mac().prb_share(), 1.0);  // Alone: full band.
  b.bring_up(town.registry);
  a.coordinator().set_offered_load(1.0);
  b.coordinator().set_offered_load(1.0);
  town.run_for(6.0);
  EXPECT_NEAR(a.cell_mac().prb_share(), 0.5, 1e-9);
  EXPECT_NEAR(b.cell_mac().prb_share(), 0.5, 1e-9);
}

TEST(AccessPoint, OpenIdentityAttachViaPublishedKeys) {
  Town town;
  auto& ap = town.add_ap(1, 0.0);
  ap.bring_up(town.registry);
  town.run_for(1.0);

  auto ue = town.make_ue(555001, Position{1'000.0, 0.0});
  EXPECT_EQ(ap.import_published_subscribers(town.registry), 1u);

  AttachOutcome outcome;
  ap.attach(ue, mac::UeTrafficConfig{.offered = DataRate::kbps(100.0)},
            [&](AttachOutcome o) { outcome = o; });
  town.run_for(2.0);

  EXPECT_TRUE(outcome.success);
  EXPECT_TRUE(ue.attached());
  EXPECT_NE(ue.nas()->ue_ip(), 0u);
  // Local core stub did the whole thing: session exists on-box.
  EXPECT_EQ(ap.core().gateway().session_count(), 1u);
  EXPECT_TRUE(ap.core().mme().is_registered(Imsi{555001}));
}

TEST(AccessPoint, UnpublishedSubscriberRejected) {
  Town town;
  auto& ap = town.add_ap(1, 0.0);
  ap.bring_up(town.registry);
  town.run_for(1.0);
  auto ue = town.make_ue(555002, Position{1'000.0, 0.0},
                         /*publish=*/false);
  ap.import_published_subscribers(town.registry);
  AttachOutcome outcome;
  outcome.success = true;
  ap.attach(ue, mac::UeTrafficConfig{}, [&](AttachOutcome o) {
    outcome = o;
  });
  town.run_for(2.0);
  EXPECT_FALSE(outcome.success);
  EXPECT_FALSE(ue.attached());
}

TEST(AccessPoint, AttachLatencyIsLocalCoreFast) {
  // With the core on-box, attach time is dominated by radio RTTs — order
  // 100 ms, not the backhaul.
  Town town;
  auto& ap = town.add_ap(1, 0.0);
  ap.bring_up(town.registry);
  town.run_for(1.0);
  auto ue = town.make_ue(555003, Position{500.0, 0.0});
  ap.import_published_subscribers(town.registry);
  AttachOutcome outcome;
  ap.attach(ue, mac::UeTrafficConfig{}, [&](AttachOutcome o) {
    outcome = o;
  });
  town.run_for(2.0);
  ASSERT_TRUE(outcome.success);
  EXPECT_LT(outcome.elapsed.to_millis(), 200.0);
  EXPECT_GT(outcome.elapsed.to_millis(), 50.0);  // RRC setup at least.
}

TEST(AccessPoint, ServedUeGetsDownlinkThroughput) {
  Town town;
  auto& ap = town.add_ap(1, 0.0);
  ap.bring_up(town.registry);
  town.run_for(1.0);
  auto ue = town.make_ue(555004, Position{2'000.0, 0.0});
  ap.import_published_subscribers(town.registry);
  bool attached = false;
  ap.attach(ue, mac::UeTrafficConfig{.full_buffer = true},
            [&](AttachOutcome o) { attached = o.success; });
  town.run_for(2.0);
  ASSERT_TRUE(attached);
  ap.cell_mac().run(Duration::seconds(1.0));
  const auto ids = ap.cell_mac().ue_ids();
  ASSERT_EQ(ids.size(), 1u);
  const auto goodput =
      ap.cell_mac().stats(ids[0]).goodput(ap.cell_mac().elapsed());
  EXPECT_GT(goodput.to_mbps(), 5.0);  // 2 km rural link, 10 MHz.
}

TEST(AccessPoint, TwoApsServeIndependently) {
  // Each AP is a complete standalone network (§4): no shared state.
  Town town;
  auto& a = town.add_ap(1, 0.0);
  auto& b = town.add_ap(2, 20'000.0);
  a.bring_up(town.registry);
  b.bring_up(town.registry);
  town.run_for(1.0);

  auto ue_a = town.make_ue(555005, Position{1'000.0, 0.0});
  auto ue_b = town.make_ue(555006, Position{19'000.0, 0.0});
  a.import_published_subscribers(town.registry);
  b.import_published_subscribers(town.registry);
  int successes = 0;
  a.attach(ue_a, mac::UeTrafficConfig{}, [&](AttachOutcome o) {
    successes += o.success ? 1 : 0;
  });
  b.attach(ue_b, mac::UeTrafficConfig{}, [&](AttachOutcome o) {
    successes += o.success ? 1 : 0;
  });
  town.run_for(2.0);
  EXPECT_EQ(successes, 2);
  EXPECT_EQ(a.core().gateway().session_count(), 1u);
  EXPECT_EQ(b.core().gateway().session_count(), 1u);
  // Different networks: no cross-registration.
  EXPECT_FALSE(a.core().mme().is_registered(Imsi{555006}));
  EXPECT_FALSE(b.core().mme().is_registered(Imsi{555005}));
}


TEST(AccessPoint, TraceRecordsLifecycleEvents) {
  Town town;
  obs::SpanTracer tracer{[&town] { return town.sim.now(); }};
  town.registry.set_tracer(&tracer);
  auto& ap = town.add_ap(1, 0.0);
  ap.set_span_tracer(&tracer);
  ap.bring_up(town.registry);
  town.run_for(1.0);
  auto ue = town.make_ue(555099, Position{1'000.0, 0.0});
  ap.import_published_subscribers(town.registry);
  ap.attach(ue, mac::UeTrafficConfig{}, nullptr);
  town.run_for(2.0);

  auto annotation = [](const obs::Span& span, const std::string& key) {
    for (const auto& a : span.annotations) {
      if (a.key == key) return a.value;
    }
    return std::string{};
  };
  int grants = 0;
  int applied = 0;
  int attaches = 0;
  for (const auto& span : tracer.spans()) {
    if (span.name == "registry_grant") {
      EXPECT_EQ(annotation(span, "result").rfind("grant ", 0), 0u);
      ++grants;
    } else if (span.name == "x2_round") {
      if (annotation(span, "applied").rfind("ap1 share=", 0) == 0) ++applied;
    } else if (span.name == "attach") {
      EXPECT_FALSE(span.open);
      EXPECT_EQ(annotation(span, "imsi"), "555099");
      EXPECT_EQ(annotation(span, "result"), "registered");
      ++attaches;
    }
  }
  EXPECT_GE(grants, 1);
  EXPECT_GE(applied, 1);
  EXPECT_EQ(attaches, 1);
}


TEST(AccessPoint, HeartbeatsKeepLeaseAliveAndCrashLapses) {
  // Leased spectrum (SAS-style): a running AP renews automatically; a
  // crashed neighbour's grant lapses and frees the domain.
  Town town;
  obs::MetricsRegistry metrics;
  town.registry.set_metrics(&metrics);
  town.registry.set_grant_lifetime(Duration::seconds(60.0));
  auto& a = town.add_ap(1, 0.0);
  auto& b = town.add_ap(2, 6'000.0);
  a.bring_up(town.registry);
  b.bring_up(town.registry);
  town.run_for(2.0);
  ASSERT_EQ(town.registry.grant_count(), 2u);

  // "Crash" AP B by deleting it: its heartbeats stop.
  town.aps.pop_back();
  town.run_for(200.0);
  EXPECT_EQ(town.registry.grant_count(), 1u);  // B lapsed.
  EXPECT_GE(metrics.counter("registry.grants_lapsed").value(), 1u);
  // A kept renewing.
  const auto neighbours = town.registry.grants_near(a.grant().location);
  ASSERT_EQ(neighbours.size(), 1u);  // A's own grant only.
  EXPECT_EQ(neighbours.front().ap, a.grant().ap);
  (void)b;
}

}  // namespace
}  // namespace dlte::core
