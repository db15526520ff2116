// Registry failure modes: offline outage, commit stall, federated zone
// failure, and the heartbeat grace period that keeps short outages from
// costing licenses.
#include "spectrum/registry.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault.h"
#include "registry/spatial.h"
#include "ue/mobility.h"

namespace dlte::fault {
namespace {

spectrum::GrantRequest request_at(std::uint32_t ap, Position pos) {
  spectrum::GrantRequest r;
  r.ap = ApId{ap};
  r.location = pos;
  r.center_frequency = Hertz::mhz(850.0);
  r.bandwidth = Hertz::mhz(10.0);
  r.operator_contact = "op@example.net";
  r.coordination_node = NodeId{ap};
  return r;
}

TEST(RegistryOutage, OfflineFailsRequestsHeartbeatsAndQueries) {
  sim::Simulator sim;
  spectrum::Registry reg{sim, spectrum::RegistryKind::kCentralizedSas};
  reg.set_grant_lifetime(Duration::seconds(60.0));
  auto g = reg.grant_now(request_at(1, Position{}));
  ASSERT_TRUE(g.ok());

  reg.set_outage(spectrum::RegistryOutage::kOffline);
  EXPECT_EQ(reg.heartbeat_outcome(g->id),
            spectrum::HeartbeatOutcome::kUnreachable);

  bool failed = false;
  TimePoint when;
  reg.request_grant(request_at(2, Position{1'000.0, 0.0}),
                    [&](Result<spectrum::SpectrumGrant> r) {
                      failed = !r.ok();
                      when = sim.now();
                    });
  std::size_t query_found = 99;
  reg.query_region(Position{}, [&](std::vector<spectrum::SpectrumGrant> gs) {
    query_found = gs.size();
  });
  sim.run_all();
  EXPECT_TRUE(failed);
  // Failure surfaces at the client-side timeout, not instantly.
  EXPECT_NEAR(when.to_seconds(), 2.0, 0.01);
  // The querier cannot distinguish "down" from "empty".
  EXPECT_EQ(query_found, 0u);

  // Service restored: everything works again.
  reg.set_outage(spectrum::RegistryOutage::kNone);
  EXPECT_EQ(reg.heartbeat_outcome(g->id),
            spectrum::HeartbeatOutcome::kRenewed);
}

TEST(RegistryOutage, CommitStallQueuesGrantsUntilRecovery) {
  sim::Simulator sim;
  spectrum::Registry reg{sim, spectrum::RegistryKind::kBlockchain};
  reg.set_outage(spectrum::RegistryOutage::kCommitStall);

  bool granted = false;
  reg.request_grant(request_at(1, Position{}),
                    [&](Result<spectrum::SpectrumGrant> r) {
                      granted = r.ok();
                    });
  sim.run_until(sim.now() + Duration::seconds(300.0));
  EXPECT_FALSE(granted);  // Stalled, not failed: the commit waits.
  EXPECT_EQ(reg.grant_count(), 0u);

  // Reads still work during a commit stall.
  std::size_t found = 99;
  reg.query_region(Position{}, [&](std::vector<spectrum::SpectrumGrant> gs) {
    found = gs.size();
  });
  sim.run_until(sim.now() + Duration::seconds(2.0));
  EXPECT_EQ(found, 0u);

  // The chain catches up: the stalled commit replays and lands after the
  // normal commit latency.
  reg.set_outage(spectrum::RegistryOutage::kNone);
  sim.run_all();
  EXPECT_TRUE(granted);
  EXPECT_EQ(reg.grant_count(), 1u);
}

TEST(RegistryOutage, FederatedZoneFailureIsLocationScoped) {
  sim::Simulator sim;
  spectrum::Registry reg{sim, spectrum::RegistryKind::kFederated};
  const Position in_zone{1'000.0, 1'000.0};
  const Position far_away{500'000.0, 500'000.0};
  ASSERT_NE(spectrum::Registry::zone_of(in_zone),
            spectrum::Registry::zone_of(far_away));

  reg.set_zone_offline(spectrum::Registry::zone_of(in_zone), true);

  bool near_failed = false, far_ok = false;
  reg.request_grant(request_at(1, in_zone),
                    [&](Result<spectrum::SpectrumGrant> r) {
                      near_failed = !r.ok();
                    });
  reg.request_grant(request_at(2, far_away),
                    [&](Result<spectrum::SpectrumGrant> r) {
                      far_ok = r.ok();
                    });
  sim.run_all();
  EXPECT_TRUE(near_failed);
  EXPECT_TRUE(far_ok);

  // Zone restored: the unlucky AP can apply again.
  reg.set_zone_offline(spectrum::Registry::zone_of(in_zone), false);
  bool retried_ok = false;
  reg.request_grant(request_at(1, in_zone),
                    [&](Result<spectrum::SpectrumGrant> r) {
                      retried_ok = r.ok();
                    });
  sim.run_all();
  EXPECT_TRUE(retried_ok);
}

TEST(RegistryOutage, ZoneOutageDoesNotAffectCentralizedSas) {
  // Only the federated design has zone-scoped failure domains.
  sim::Simulator sim;
  spectrum::Registry reg{sim, spectrum::RegistryKind::kCentralizedSas};
  const Position pos{1'000.0, 1'000.0};
  reg.set_zone_offline(spectrum::Registry::zone_of(pos), true);
  bool ok = false;
  reg.request_grant(request_at(1, pos),
                    [&](Result<spectrum::SpectrumGrant> r) { ok = r.ok(); });
  sim.run_all();
  EXPECT_TRUE(ok);
}

// Arms a federated zone outage at `dark_pos` from t=1 s to t=11 s through
// the fault plane, runs to t=2 s, then applies for a grant at `dark_pos`
// and at `lit_pos` and reports whether each one was granted.
struct ZoneOutageRun {
  spectrum::RegistryOutage outage;
  std::string described;
  bool dark_granted;
  bool lit_granted;
};

ZoneOutageRun run_zone_outage(Position dark_pos, Position lit_pos) {
  sim::Simulator sim;
  spectrum::Registry reg{sim, spectrum::RegistryKind::kFederated};
  FaultInjector injector{sim};
  injector.set_registry(&reg);
  FaultSpec spec;
  spec.kind = FaultKind::kRegistryOutage;
  spec.at = TimePoint{} + Duration::seconds(1.0);
  spec.duration = Duration::seconds(10.0);
  spec.outage = spectrum::RegistryOutage::kOffline;
  spec.zone = spectrum::Registry::zone_of(dark_pos);
  injector.arm(FaultPlan{}.add(spec));
  sim.run_until(TimePoint{} + Duration::seconds(2.0));

  ZoneOutageRun run{reg.outage(), spec.describe(), false, false};
  reg.request_grant(request_at(1, dark_pos),
                    [&](Result<spectrum::SpectrumGrant> r) {
                      run.dark_granted = r.ok();
                    });
  reg.request_grant(request_at(2, lit_pos),
                    [&](Result<spectrum::SpectrumGrant> r) {
                      run.lit_granted = r.ok();
                    });
  sim.run_until(TimePoint{} + Duration::seconds(5.0));
  return run;
}

TEST(RegistryOutage, ZoneOutageWestOfTheOriginDarkensOnlyItsZone) {
  // A zone left of (or below) the origin has negative grid coordinates;
  // its id must still name that one zone, not "every zone".
  const Position dark{-10'000.0, 10'000.0};
  EXPECT_EQ(spectrum::Registry::zone_of(dark),
            registry::zone_key(dark, spectrum::Registry::kZoneSizeM));
  const ZoneOutageRun run = run_zone_outage(dark, Position{10'000.0, 10'000.0});
  EXPECT_EQ(run.outage, spectrum::RegistryOutage::kNone);
  EXPECT_EQ(run.described.find("zone=all"), std::string::npos) << run.described;
  EXPECT_FALSE(run.dark_granted);
  EXPECT_TRUE(run.lit_granted);
}

TEST(RegistryOutage, ZoneOutageTwoThousandKilometresOutDarkensOnlyItsZone) {
  // Far from the origin a zone id must not overflow (run under UBSan).
  const Position dark{2'000'000.0, 0.0};
  const Position lit{2'100'000.0, 0.0};
  ASSERT_NE(spectrum::Registry::zone_of(dark),
            spectrum::Registry::zone_of(lit));
  const ZoneOutageRun run = run_zone_outage(dark, lit);
  EXPECT_EQ(run.outage, spectrum::RegistryOutage::kNone);
  EXPECT_FALSE(run.dark_granted);
  EXPECT_TRUE(run.lit_granted);
}

TEST(RegistryOutage, GraceKeepsExpiredGrantDegradedThenLapses) {
  sim::Simulator sim;
  spectrum::Registry reg{sim, spectrum::RegistryKind::kCentralizedSas};
  reg.set_grant_lifetime(Duration::seconds(60.0));
  reg.set_heartbeat_grace(Duration::seconds(40.0));
  auto g = reg.grant_now(request_at(1, Position{}));
  ASSERT_TRUE(g.ok());

  // Past expiry but inside grace: still listed, marked degraded —
  // neighbours keep coordinating around it at conservative power.
  sim.run_until(sim.now() + Duration::seconds(80.0));
  auto near = reg.grants_near(Position{});
  ASSERT_EQ(near.size(), 1u);
  EXPECT_TRUE(near[0].degraded);
  EXPECT_EQ(reg.grants_lapsed(), 0u);

  // A heartbeat inside the grace fully renews.
  ASSERT_EQ(reg.heartbeat_outcome(g->id),
            spectrum::HeartbeatOutcome::kRenewed);
  near = reg.grants_near(Position{});
  ASSERT_EQ(near.size(), 1u);
  EXPECT_FALSE(near[0].degraded);

  // Silence through expiry + grace: the grant lapses for good.
  sim.run_until(sim.now() + Duration::seconds(101.0));
  EXPECT_TRUE(reg.grants_near(Position{}).empty());
  EXPECT_EQ(reg.grants_lapsed(), 1u);
  EXPECT_EQ(reg.heartbeat_outcome(g->id), spectrum::HeartbeatOutcome::kLapsed);
}

// Integration: an AP rides out a registry outage shorter than its grace
// window in degraded mode instead of losing its license.
TEST(RegistryOutage, ApSurvivesShortOutageDegraded) {
  sim::Simulator sim;
  net::Network net{sim};
  core::RadioEnvironment radio;
  spectrum::Registry reg{sim, spectrum::RegistryKind::kCentralizedSas};
  reg.set_grant_lifetime(Duration::seconds(30.0));
  reg.set_heartbeat_grace(Duration::seconds(60.0));

  const NodeId internet = net.add_node("internet");
  const NodeId node = net.add_node("ap1");
  net.add_link(node, internet,
               net::LinkConfig{DataRate::mbps(50.0), Duration::millis(15)});
  core::ApConfig cfg;
  cfg.id = ApId{1};
  cfg.cell = CellId{1};
  cfg.position = Position{};
  cfg.lease_grace = Duration::seconds(60.0);
  core::DlteAccessPoint ap{sim, net, node, radio, cfg};
  obs::SpanTracer tracer{[&sim] { return sim.now(); }};
  ap.set_span_tracer(&tracer);
  ap.bring_up(reg);
  sim.run_until(sim.now() + Duration::seconds(2.0));
  ASSERT_TRUE(ap.has_grant());

  FaultInjector injector{sim};
  injector.register_ap(&ap);
  injector.set_registry(&reg);
  FaultPlan plan;
  FaultSpec outage;
  outage.kind = FaultKind::kRegistryOutage;
  outage.at = sim.now() + Duration::seconds(5.0);
  outage.duration = Duration::seconds(25.0);  // Shorter than the grace.
  outage.outage = spectrum::RegistryOutage::kOffline;
  plan.add(outage);
  injector.arm(plan);

  // Mid-outage: renewals are failing, AP degrades but keeps its grant.
  sim.run_until(sim.now() + Duration::seconds(25.0));
  EXPECT_TRUE(ap.lease_degraded());
  EXPECT_TRUE(ap.has_grant());

  // Outage heals; the next heartbeat renews and leaves degraded mode.
  sim.run_until(sim.now() + Duration::seconds(30.0));
  EXPECT_FALSE(ap.lease_degraded());
  EXPECT_TRUE(ap.has_grant());
  EXPECT_EQ(reg.grants_lapsed(), 0u);

  // Only the AP knows it degraded and recovered: its own markers say so.
  std::vector<std::string> lease_states;
  for (const auto& span : tracer.spans()) {
    if (span.name != "ap_lease") continue;
    EXPECT_EQ(span.category, "ap");
    ASSERT_EQ(span.annotations.size(), 1u);
    lease_states.push_back(span.annotations[0].value);
  }
  EXPECT_EQ(lease_states,
            (std::vector<std::string>{"degraded", "restored"}));
}

}  // namespace
}  // namespace dlte::fault
