#include "spectrum/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "chain_records.h"
#include "obs/snapshot.h"
#include "obs/span.h"
#include "registry/cache.h"
#include "spectrum/chain.h"

namespace dlte::spectrum {
namespace {

GrantRequest band5_request(std::uint32_t ap, Position pos,
                           double freq_mhz = 850.0) {
  GrantRequest r;
  r.ap = ApId{ap};
  r.location = pos;
  r.center_frequency = Hertz::mhz(freq_mhz);
  r.bandwidth = Hertz::mhz(10.0);
  r.max_eirp = PowerDbm{52.0};
  r.operator_contact = "op" + std::to_string(ap) + "@example.net";
  r.coordination_node = NodeId{ap};
  return r;
}

// Adds one heartbeat's outcome to `out` the way heartbeat_batch counts
// it, so the outcomes of single heartbeats can be compared with a batch.
void tally(HeartbeatBatchOutcome& out, std::uint64_t id,
           HeartbeatOutcome outcome) {
  switch (outcome) {
    case HeartbeatOutcome::kRenewed:
      ++out.renewed;
      break;
    case HeartbeatOutcome::kUnreachable:
      ++out.unreachable;
      break;
    case HeartbeatOutcome::kLapsed:
      out.lapsed.push_back(id);
      break;
  }
}

void expect_same_outcome(const HeartbeatBatchOutcome& got,
                         const HeartbeatBatchOutcome& want) {
  EXPECT_EQ(got.renewed, want.renewed);
  EXPECT_EQ(got.unreachable, want.unreachable);
  EXPECT_EQ(got.lapsed, want.lapsed);
}

TEST(Registry, OpenAdmission) {
  // §4.3: "New APs are free to join at any time."
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  for (std::uint32_t i = 0; i < 20; ++i) {
    auto g = reg.grant_now(band5_request(i, Position{i * 1000.0, 0.0}));
    EXPECT_TRUE(g.ok());
  }
  EXPECT_EQ(reg.grant_count(), 20u);
}

TEST(Registry, ContactIsMandatory) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  auto req = band5_request(1, Position{});
  req.operator_contact.clear();
  EXPECT_FALSE(reg.grant_now(req).ok());
}

TEST(Registry, ZeroBandwidthRejected) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  auto req = band5_request(1, Position{});
  req.bandwidth = Hertz{0.0};
  EXPECT_FALSE(reg.grant_now(req).ok());
}

TEST(Registry, InterferenceRangeLargerAtLowerFrequency) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  auto low = reg.grant_now(band5_request(1, Position{}, 850.0));
  auto high = reg.grant_now(band5_request(2, Position{}, 2400.0));
  EXPECT_GT(interference_range_m(*low), interference_range_m(*high));
  // Sub-GHz at 52 dBm EIRP carries for tens of km.
  EXPECT_GT(interference_range_m(*low), 10'000.0);
}

TEST(Registry, RevokeRemovesGrant) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  auto g = reg.grant_now(band5_request(1, Position{}));
  ASSERT_TRUE(g.ok());
  reg.revoke(g->id);
  EXPECT_EQ(reg.grant_count(), 0u);
}

TEST(Registry, QueryRegionFindsReachableGrants) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  (void)reg.grant_now(band5_request(1, Position{0.0, 0.0}));
  (void)reg.grant_now(band5_request(2, Position{800'000.0, 0.0}));
  const auto near = reg.grants_near(Position{2'000.0, 0.0});
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(near[0].ap, ApId{1});
}

TEST(RegistryLatencies, OrderedByDecentralization) {
  const auto sas = registry_latency(RegistryKind::kCentralizedSas);
  const auto fed = registry_latency(RegistryKind::kFederated);
  const auto chain = registry_latency(RegistryKind::kBlockchain);
  EXPECT_LT(sas.query.ns(), fed.query.ns());
  EXPECT_LT(fed.query.ns(), chain.query.ns());
  EXPECT_LT(sas.commit.ns(), chain.commit.ns());
  // Blockchain commit is dominated by block inclusion — tens of seconds.
  EXPECT_GE(chain.commit.to_seconds(), 10.0);
}

TEST(Registry, AsyncGrantArrivesAfterCommitLatency) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  bool granted = false;
  TimePoint when;
  reg.request_grant(band5_request(1, Position{}),
                    [&](Result<SpectrumGrant> g) {
                      granted = g.ok();
                      when = sim.now();
                    });
  EXPECT_FALSE(granted);
  sim.run_all();
  EXPECT_TRUE(granted);
  EXPECT_NEAR(when.to_millis(), 200.0, 1.0);
}

TEST(Registry, AsyncQueryUsesQueryLatency) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kBlockchain};
  (void)reg.grant_now(band5_request(1, Position{}));
  TimePoint when;
  std::size_t found = 0;
  reg.query_region(Position{1000.0, 0.0},
                   [&](std::vector<SpectrumGrant> grants) {
                     found = grants.size();
                     when = sim.now();
                   });
  sim.run_all();
  EXPECT_EQ(found, 1u);
  EXPECT_NEAR(when.to_millis(), 400.0, 1.0);
}

TEST(Registry, SubscriberKeyPublication) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  epc::PublishedKeys keys;
  keys.imsi = Imsi{12345};
  keys.k[0] = 0xaa;
  reg.publish_subscriber(keys);
  ASSERT_EQ(reg.published_subscriber_count(), 1u);
  EXPECT_EQ(reg.published_subscribers()[0].imsi, Imsi{12345});
  EXPECT_EQ(reg.published_subscribers()[0].k[0], 0xaa);
  // Re-publication replaces.
  keys.k[0] = 0xbb;
  reg.publish_subscriber(keys);
  ASSERT_EQ(reg.published_subscriber_count(), 1u);
  EXPECT_EQ(reg.published_subscribers()[0].k[0], 0xbb);
}


TEST(Registry, LeasedGrantLapsesWithoutHeartbeat) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  reg.set_grant_lifetime(Duration::seconds(60.0));
  auto g = reg.grant_now(band5_request(1, Position{}));
  ASSERT_TRUE(g.ok());
  sim.run_until(sim.now() + Duration::seconds(30.0));
  EXPECT_EQ(reg.grants_near(Position{}).size(), 1u);  // Still alive.
  sim.run_until(sim.now() + Duration::seconds(40.0));  // 70 s total.
  EXPECT_TRUE(reg.grants_near(Position{}).empty());
  EXPECT_EQ(reg.grants_lapsed(), 1u);
  // A heartbeat on a lapsed grant is refused: the operator re-applies.
  EXPECT_EQ(reg.heartbeat_outcome(g->id), HeartbeatOutcome::kLapsed);
}

TEST(Registry, HeartbeatKeepsGrantAlive) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  reg.set_grant_lifetime(Duration::seconds(60.0));
  auto g = reg.grant_now(band5_request(1, Position{}));
  ASSERT_TRUE(g.ok());
  for (int i = 0; i < 10; ++i) {
    sim.run_until(sim.now() + Duration::seconds(20.0));
    EXPECT_EQ(reg.heartbeat_outcome(g->id), HeartbeatOutcome::kRenewed);
  }
  EXPECT_EQ(reg.grants_near(Position{}).size(), 1u);
  EXPECT_EQ(reg.grants_lapsed(), 0u);
}

TEST(Registry, DeadApVanishesFromContentionDomain) {
  // §7 ecosystem health: a neighbour that dies stops constraining the
  // domain once its lease runs out.
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  reg.set_grant_lifetime(Duration::seconds(60.0));
  auto alive = reg.grant_now(band5_request(1, Position{0.0, 0.0}));
  auto dead = reg.grant_now(band5_request(2, Position{5'000.0, 0.0}));
  ASSERT_TRUE(alive.ok());
  ASSERT_TRUE(dead.ok());
  const auto aps_near = [&] {
    std::vector<std::uint32_t> aps;
    for (const auto& g : reg.grants_near(alive->location)) {
      aps.push_back(g.ap.value());
    }
    return aps;
  };
  EXPECT_EQ(aps_near(), (std::vector<std::uint32_t>{1, 2}));
  // Only AP1 heartbeats.
  for (int i = 0; i < 6; ++i) {
    sim.run_until(sim.now() + Duration::seconds(20.0));
    (void)reg.heartbeat_outcome(alive->id);
  }
  EXPECT_EQ(aps_near(), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(reg.grant_count(), 1u);
}

TEST(Registry, SharedBandRecordsWifiOccupancy) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  const Hertz unlicensed = Hertz::ghz(2.4);
  // Unknown bands report zero occupants (exclusive licensed spectrum).
  EXPECT_EQ(reg.wifi_occupants(unlicensed), 0u);
  reg.mark_band_shared(unlicensed, 3);
  EXPECT_EQ(reg.wifi_occupants(unlicensed), 3u);
  EXPECT_EQ(reg.wifi_occupants(Hertz::ghz(5.8)), 0u);
  // A fresh survey overwrites the previous count.
  reg.mark_band_shared(unlicensed, 1);
  EXPECT_EQ(reg.wifi_occupants(unlicensed), 1u);
}

TEST(Registry, PerpetualGrantsNeverLapse) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};  // No lifetime set.
  (void)reg.grant_now(band5_request(1, Position{}));
  sim.run_until(sim.now() + Duration::seconds(1e6));
  EXPECT_EQ(reg.grants_near(Position{}).size(), 1u);
}

TEST(Registry, GrantSurvivesZoneOutageShorterThanGrace) {
  // Federated zone failure × heartbeat grace: heartbeats fail while the
  // zone is dark, but if it recovers inside the grace window the next
  // heartbeat fully renews the lease — no lapse, no re-grant.
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kFederated};
  reg.set_grant_lifetime(Duration::seconds(60.0));
  reg.set_heartbeat_grace(Duration::seconds(60.0));
  const Position pos{1'000.0, 1'000.0};
  auto g = reg.grant_now(band5_request(1, pos));
  ASSERT_TRUE(g.ok());

  reg.set_zone_offline(Registry::zone_of(pos), true);
  sim.run_until(sim.now() + Duration::seconds(70.0));  // Past expiry.
  EXPECT_EQ(reg.heartbeat_outcome(g->id),
            HeartbeatOutcome::kUnreachable);  // NOT kLapsed.
  // In grace the grant is still listed, degraded.
  const auto visible = reg.grants_near(pos);
  ASSERT_EQ(visible.size(), 1u);
  EXPECT_TRUE(visible[0].degraded);

  // Zone recovers at expiry+50 s, inside the 60 s grace.
  sim.run_until(sim.now() + Duration::seconds(40.0));
  reg.set_zone_offline(Registry::zone_of(pos), false);
  EXPECT_EQ(reg.heartbeat_outcome(g->id), HeartbeatOutcome::kRenewed);
  sim.run_until(sim.now() + Duration::seconds(30.0));
  EXPECT_EQ(reg.grants_near(pos).size(), 1u);
  EXPECT_FALSE(reg.grants_near(pos)[0].degraded);
  EXPECT_EQ(reg.grants_lapsed(), 0u);
}

TEST(Registry, ZoneOutageLongerThanGraceForcesRegrant) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kFederated};
  reg.set_grant_lifetime(Duration::seconds(30.0));
  reg.set_heartbeat_grace(Duration::seconds(10.0));
  const Position pos{1'000.0, 1'000.0};
  auto g = reg.grant_now(band5_request(1, pos));
  ASSERT_TRUE(g.ok());

  reg.set_zone_offline(Registry::zone_of(pos), true);
  sim.run_until(sim.now() + Duration::seconds(45.0));  // Past 30+10 s.
  reg.set_zone_offline(Registry::zone_of(pos), false);
  // The lease lapsed during the outage: the heartbeat now says so (the
  // re-apply signal), and the grant is gone from queries.
  EXPECT_EQ(reg.heartbeat_outcome(g->id), HeartbeatOutcome::kLapsed);
  EXPECT_TRUE(reg.grants_near(pos).empty());
  EXPECT_EQ(reg.grants_lapsed(), 1u);
  // The re-grant path: a fresh application on the healed zone succeeds
  // and the new lease renews normally.
  auto fresh = reg.grant_now(band5_request(1, pos));
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh->id, g->id);
  sim.run_until(sim.now() + Duration::seconds(20.0));
  EXPECT_EQ(reg.heartbeat_outcome(fresh->id), HeartbeatOutcome::kRenewed);
}

TEST(Registry, RevokeKeepsSlotMapsConsistent) {
  // revoke is O(1) swap-pop: the grant moved into the vacated slot must
  // stay addressable by id (heartbeat) and by query.
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  reg.set_grant_lifetime(Duration::seconds(60.0));
  auto a = reg.grant_now(band5_request(1, Position{0.0, 0.0}));
  auto b = reg.grant_now(band5_request(2, Position{1'000.0, 0.0}));
  auto c = reg.grant_now(band5_request(3, Position{2'000.0, 0.0}));
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  reg.revoke(a->id);  // c swaps into a's slot.
  EXPECT_EQ(reg.grant_count(), 2u);
  EXPECT_EQ(reg.heartbeat_outcome(b->id), HeartbeatOutcome::kRenewed);
  EXPECT_EQ(reg.heartbeat_outcome(c->id), HeartbeatOutcome::kRenewed);
  EXPECT_EQ(reg.heartbeat_outcome(a->id), HeartbeatOutcome::kLapsed);
  const auto near = reg.grants_near(Position{0.0, 0.0});
  ASSERT_EQ(near.size(), 2u);
  // Canonical order: ascending grant id.
  EXPECT_EQ(near[0].id, b->id);
  EXPECT_EQ(near[1].id, c->id);
}

TEST(Registry, MassExpiryPrunesOnlyTheDead) {
  // The expiry list: renewals move their lease to the tail, so a mass
  // prune walks the silent grants at the head and must drop exactly
  // them.
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  reg.set_grant_lifetime(Duration::seconds(60.0));
  std::vector<GrantId> ids;
  for (std::uint32_t i = 0; i < 200; ++i) {
    auto g = reg.grant_now(band5_request(i, Position{i * 500.0, 0.0}));
    ASSERT_TRUE(g.ok());
    ids.push_back(g->id);
  }
  // Every third grant heartbeats at t=50; the rest go silent.
  sim.run_until(sim.now() + Duration::seconds(50.0));
  for (std::size_t i = 0; i < ids.size(); i += 3) {
    ASSERT_EQ(reg.heartbeat_outcome(ids[i]), HeartbeatOutcome::kRenewed);
  }
  sim.run_until(sim.now() + Duration::seconds(30.0));  // t=80.
  reg.prune_expired();
  EXPECT_EQ(reg.grant_count(), (ids.size() + 2) / 3);
  EXPECT_EQ(reg.grants_lapsed(), ids.size() - (ids.size() + 2) / 3);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const HeartbeatOutcome expected =
        i % 3 == 0 ? HeartbeatOutcome::kRenewed : HeartbeatOutcome::kLapsed;
    EXPECT_EQ(reg.heartbeat_outcome(ids[i]), expected) << i;
  }
}

TEST(Registry, HeartbeatForAnUnissuedIdNeverGrowsTheIdTable) {
  // GrantId → slot is a dense table indexed by id, and heartbeat ids come
  // off the wire: an id never issued is lapsed, whatever its size, and
  // its lookup must not grow the table. A grown table would take an
  // absurd allocation for UINT64_MAX, and for the next id it would put
  // that id's slot out of place once it is issued.
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  reg.set_grant_lifetime(Duration::seconds(60.0));
  auto g = reg.grant_now(band5_request(1, Position{}));
  ASSERT_TRUE(g.ok());
  const std::uint64_t next = g->id.value() + 1;
  const std::vector<std::uint64_t> unissued{
      0, next, std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t id : unissued) {
    EXPECT_EQ(reg.heartbeat_outcome(GrantId{id}), HeartbeatOutcome::kLapsed)
        << id;
    reg.revoke(GrantId{id});
  }
  HeartbeatBatchOutcome all_lapsed;
  all_lapsed.lapsed = unissued;
  expect_same_outcome(reg.heartbeat_batch(unissued), all_lapsed);
  EXPECT_EQ(reg.grant_count(), 1u);

  auto h = reg.grant_now(band5_request(2, Position{100.0, 0.0}));
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(h->id.value(), next);
  EXPECT_EQ(reg.heartbeat_outcome(h->id), HeartbeatOutcome::kRenewed);
  EXPECT_EQ(reg.heartbeat_outcome(g->id), HeartbeatOutcome::kRenewed);
  EXPECT_EQ(reg.grants_near(Position{}).size(), 2u);
}

TEST(Registry, CountGrantsNearMatchesQuery) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  for (std::uint32_t i = 0; i < 40; ++i) {
    (void)reg.grant_now(band5_request(i, Position{i * 3'000.0, 0.0}));
  }
  for (const double x : {0.0, 30'000.0, 90'000.0, 500'000.0}) {
    const Position probe{x, 0.0};
    EXPECT_EQ(reg.count_grants_near(probe), reg.grants_near(probe).size())
        << "probe x=" << x;
  }
}

TEST(Registry, ZoneOccupancyWalksTheCacheHierarchy) {
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kFederated};
  registry::LeaseCache cache;
  reg.attach_cache(&cache);
  const Position pos{1'000.0, 1'000.0};
  (void)reg.grant_now(band5_request(1, pos));
  (void)reg.grant_now(band5_request(2, Position{2'000.0, 1'000.0}));

  // Cold: authoritative serve + refill.
  auto first = reg.zone_occupancy(7, pos);
  EXPECT_EQ(first.tier, registry::CacheTier::kAuthoritative);
  EXPECT_EQ(first.grants, 2u);
  // Warm: the local tier serves the same membership.
  auto second = reg.zone_occupancy(7, pos);
  EXPECT_EQ(second.tier, registry::CacheTier::kLocal);
  EXPECT_FALSE(second.stale);
  EXPECT_EQ(second.grants, 2u);
  // A membership change bumps the zone version: the cached view is now
  // served stale (DNS semantics) until its TTL runs out.
  (void)reg.grant_now(band5_request(3, Position{1'500.0, 1'000.0}));
  auto third = reg.zone_occupancy(7, pos);
  EXPECT_EQ(third.tier, registry::CacheTier::kLocal);
  EXPECT_TRUE(third.stale);
  EXPECT_EQ(third.grants, 2u);  // The stale snapshot's count.
}

TEST(Registry, NeighbourZoneGrantMakesCachedServeStale) {
  // A zone's snapshot also lists neighbour-zone grants whose reach
  // crosses into it, so such a grant must bump the neighbour's version
  // too — otherwise the cached serve below would not count as stale.
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kFederated};
  registry::LeaseCache cache;
  reg.attach_cache(&cache);
  const double edge = Registry::kZoneSizeM;
  const Position in_b{edge + 1'000.0, 1'000.0};  // Zone B = (1, 0).
  (void)reg.grant_now(band5_request(1, in_b));

  // Warm zone B's cache entries.
  EXPECT_EQ(reg.zone_occupancy(7, in_b).tier,
            registry::CacheTier::kAuthoritative);
  const auto warm = reg.zone_occupancy(7, in_b);
  EXPECT_EQ(warm.tier, registry::CacheTier::kLocal);
  EXPECT_FALSE(warm.stale);
  EXPECT_EQ(warm.grants, 1u);

  // Zone A = (0, 0), 500 m from the A/B edge, with a reach of tens of
  // kilometres: it lands in B's membership.
  const Position in_a{edge - 500.0, 1'000.0};
  ASSERT_NE(registry::zone_key(in_a, edge), registry::zone_key(in_b, edge));
  const auto cross = reg.grant_now(band5_request(2, in_a));
  ASSERT_TRUE(cross.ok());
  const auto b_members =
      reg.zone_snapshot(registry::zone_key(in_b, Registry::kZoneSizeM));
  EXPECT_EQ(*b_members, (std::vector<std::uint64_t>{1, cross->id.value()}));

  const auto served = reg.zone_occupancy(7, in_b);
  EXPECT_EQ(served.tier, registry::CacheTier::kLocal);
  EXPECT_TRUE(served.stale);
  EXPECT_EQ(served.grants, 1u);  // The pre-grant snapshot.
  EXPECT_EQ(cache.stale_serves(), 1u);

  // Revoking it is again a change of B's membership.
  const std::uint64_t before = reg.zone_version(in_b);
  reg.revoke(cross->id);
  EXPECT_GT(reg.zone_version(in_b), before);
}

TEST(Registry, LapsedGrantDropsOutOfZoneOccupancy) {
  // zone_occupancy prunes before it counts: a grant past its lapse due
  // leaves the authoritative count at once. A cache tier may go on
  // serving the pre-lapse snapshot, flagged stale, until its TTL runs out.
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kFederated};
  registry::LeaseCache cache;
  reg.attach_cache(&cache);
  reg.set_grant_lifetime(Duration::seconds(1.0));  // No grace.
  const Position pos{1'000.0, 1'000.0};
  ASSERT_TRUE(reg.grant_now(band5_request(1, pos)).ok());
  EXPECT_EQ(reg.zone_occupancy(7, pos).grants, 1u);  // Fills every tier.

  sim.run_until(TimePoint{} + Duration::millis(1'001));
  const auto cached = reg.zone_occupancy(7, pos);
  EXPECT_EQ(reg.grants_lapsed(), 1u);
  EXPECT_EQ(cached.tier, registry::CacheTier::kLocal);
  EXPECT_TRUE(cached.stale);
  EXPECT_EQ(cached.grants, 1u);

  // Past the root TTL no tier holds the zone: the authoritative count.
  sim.run_until(TimePoint{} + Duration::seconds(61.0));
  const auto fresh = reg.zone_occupancy(7, pos);
  EXPECT_EQ(fresh.tier, registry::CacheTier::kAuthoritative);
  EXPECT_EQ(fresh.grants, 0u);

  // Without a cache every probe is authoritative, lapse included.
  sim::Simulator bare_sim;
  Registry bare{bare_sim, RegistryKind::kFederated};
  bare.set_grant_lifetime(Duration::seconds(1.0));
  ASSERT_TRUE(bare.grant_now(band5_request(1, pos)).ok());
  bare_sim.run_until(TimePoint{} + Duration::millis(999));
  EXPECT_EQ(bare.zone_occupancy(7, pos).grants, 1u);
  bare_sim.run_until(TimePoint{} + Duration::millis(1'001));
  const auto lapsed = bare.zone_occupancy(7, pos);
  EXPECT_EQ(lapsed.tier, registry::CacheTier::kAuthoritative);
  EXPECT_EQ(lapsed.grants, 0u);
}

TEST(Registry, PerpetualGrantRenewedUnderALifetimeLapses) {
  // A grant issued perpetual and renewed after set_grant_lifetime takes
  // the lease the renewal stamps: once that lease (plus grace) runs out
  // it lapses like any leased grant, rather than sitting degraded
  // forever.
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  auto g = reg.grant_now(band5_request(1, Position{}));
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->expires_at.ns(), 0);
  reg.set_grant_lifetime(Duration::seconds(60.0));
  reg.set_heartbeat_grace(Duration::seconds(10.0));
  sim.run_until(sim.now() + Duration::seconds(10.0));
  ASSERT_EQ(reg.heartbeat_outcome(g->id), HeartbeatOutcome::kRenewed);
  sim.run_until(sim.now() + Duration::seconds(65.0));  // t=75: in grace.
  const auto degraded = reg.grants_near(Position{});
  ASSERT_EQ(degraded.size(), 1u);
  EXPECT_TRUE(degraded[0].degraded);
  sim.run_until(sim.now() + Duration::seconds(10.0));  // t=85: past grace.
  EXPECT_TRUE(reg.grants_near(Position{}).empty());
  EXPECT_EQ(reg.grants_lapsed(), 1u);
  EXPECT_EQ(reg.heartbeat_outcome(g->id), HeartbeatOutcome::kLapsed);
}

// The expiry list's splices, seen from outside: `offsets_s` grants, one
// per offset (seconds after t=0, in issue order), each with a 100 s
// lease and no grace. `alive(t)` steps the clock to t seconds, prunes
// and returns the surviving ids in ascending order.
struct ExpiryFixture {
  explicit ExpiryFixture(const std::vector<double>& offsets_s) {
    reg.set_grant_lifetime(Duration::seconds(100.0));
    std::uint32_t ap = 0;
    for (const double at : offsets_s) {
      sim.run_until(TimePoint{} + Duration::seconds(at));
      auto g = reg.grant_now(band5_request(++ap, Position{ap * 10.0, 0.0}));
      ids.push_back(g->id.value());
    }
  }
  std::vector<std::uint64_t> alive(double t_s) {
    sim.run_until(TimePoint{} + Duration::seconds(t_s));
    reg.prune_expired();
    std::vector<std::uint64_t> out;
    for (const SpectrumGrant& g : reg.grants()) out.push_back(g.id.value());
    std::sort(out.begin(), out.end());
    return out;
  }
  sim::Simulator sim;
  Registry reg{sim, RegistryKind::kCentralizedSas};
  std::vector<std::uint64_t> ids;
};

TEST(RegistryExpiryList, RevokingHeadTailAndMiddleKeepsLapseOrder) {
  ExpiryFixture f{{0.0, 1.0, 2.0, 3.0, 4.0}};  // Expire at 100..104 s.
  const auto& id = f.ids;
  f.reg.revoke(GrantId{id[0]});  // Head.
  f.reg.revoke(GrantId{id[4]});  // Tail.
  f.reg.revoke(GrantId{id[2]});  // Middle.
  EXPECT_EQ(f.alive(100.5), (std::vector<std::uint64_t>{id[1], id[3]}));
  // A new lease links behind the survivors: the list's tail is sound.
  auto late = f.reg.grant_now(band5_request(9, Position{}));
  ASSERT_TRUE(late.ok());  // Expires at 200.5 s.
  EXPECT_EQ(f.alive(101.5), (std::vector<std::uint64_t>{id[3],
                                                        late->id.value()}));
  EXPECT_EQ(f.alive(103.5), (std::vector<std::uint64_t>{late->id.value()}));
  EXPECT_EQ(f.alive(201.0), std::vector<std::uint64_t>{});
  EXPECT_EQ(f.reg.grants_lapsed(), 3u);
}

TEST(RegistryExpiryList, ErasingTheLastSlotMovesNothing) {
  ExpiryFixture f{{0.0, 1.0, 2.0}};
  const auto& id = f.ids;
  f.reg.revoke(GrantId{id[2]});  // Last slot and list tail: no swap.
  ASSERT_EQ(f.reg.heartbeat_outcome(GrantId{id[0]}),
            HeartbeatOutcome::kRenewed);  // Now expires at 102 s.
  EXPECT_EQ(f.alive(101.5), (std::vector<std::uint64_t>{id[0]}));
  EXPECT_EQ(f.alive(102.5), std::vector<std::uint64_t>{});
  EXPECT_EQ(f.reg.grants_lapsed(), 2u);
}

TEST(RegistryExpiryList, SwappedInNeighbourKeepsItsPlace) {
  // Erase a slot whose swap-pop replacement (the last slot) is its own
  // list neighbour: successor by revoke, predecessor by revoke, then
  // successor by lapse.
  ExpiryFixture f{{0.0, 1.0, 2.0, 3.0}};  // a..d expire at 100..103 s.
  const auto& id = f.ids;
  const auto renew = [&](std::uint64_t grant, double t_s) {
    f.sim.run_until(TimePoint{} + Duration::seconds(t_s));
    ASSERT_EQ(f.reg.heartbeat_outcome(GrantId{grant}),
              HeartbeatOutcome::kRenewed);
  };
  // Slots a b c d, list a b c d: d follows c and moves into c's slot.
  f.reg.revoke(GrantId{id[2]});
  // Slots a b d, list b d a after a renews: d precedes a and moves into
  // a's slot.
  renew(id[0], 60.0);  // a expires at 160 s.
  f.reg.revoke(GrantId{id[0]});
  EXPECT_EQ(f.alive(65.0), (std::vector<std::uint64_t>{id[1], id[3]}));
  // Slots d b, list d b after b renews: d lapses at 103 s and b — its
  // successor and the last slot — moves into d's slot.
  renew(id[1], 70.0);  // b expires at 170 s.
  EXPECT_EQ(f.alive(103.5), (std::vector<std::uint64_t>{id[1]}));
  auto e = f.reg.grant_now(band5_request(9, Position{}));  // 203.5 s.
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(f.alive(170.5), (std::vector<std::uint64_t>{e->id.value()}));
  EXPECT_EQ(f.alive(204.0), std::vector<std::uint64_t>{});
  EXPECT_EQ(f.reg.grants_lapsed(), 3u);
}

// Seeded reference model: random sequences of grants, heartbeats,
// revokes, clock steps, lifetime changes (shrinks included) and grace
// changes, with one federated zone going on and offline, checked after
// every step against an O(n) scan over a plain map. Heartbeats go one at
// a time or as a batch of up to six ids (duplicates allowed). The
// registry prunes inside each heartbeat call and grants_near; the model
// prunes at exactly those points, so grace changes lapse the same grants
// in both.
class RegistryModel {
 public:
  explicit RegistryModel(std::uint64_t seed) : rng_(seed) {}

  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      act();
      check(step);
      if (::testing::Test::HasFailure()) return;
    }
  }

 private:
  // Grants straddle the x = 50 km zone boundary, well inside each
  // other's reach, so one grants_near probe lists every live grant.
  static constexpr double kBoundaryM = Registry::kZoneSizeM;
  static Position probe() { return Position{kBoundaryM, 500.0}; }

  struct Lease {
    Position location;
    std::int64_t expires_ns{0};  // Zero: perpetual.
  };

  std::uint64_t pick(std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>{0, n - 1}(rng_);
  }
  Duration pick_seconds(std::initializer_list<double> choices) {
    const auto* it = choices.begin() + pick(choices.size());
    return Duration::seconds(*it);
  }
  std::int64_t now() const { return sim_.now().ns(); }
  bool in_offline_zone(Position p) const {
    return offline_ && Registry::zone_of(p) == Registry::zone_of(east_);
  }
  void model_prune() {
    for (auto it = live_.begin(); it != live_.end();) {
      const std::int64_t expires = it->second.expires_ns;
      if (expires != 0 && expires + grace_.ns() < now()) {
        lapsed_.insert(it->first);
        it = live_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Any id ever issued (live, lapsed or revoked), or one never issued.
  GrantId any_id() { return GrantId{1 + pick(next_id_)}; }
  // The model's heartbeat on a pruned model: renews a live lease outside
  // the offline zone.
  HeartbeatOutcome model_heartbeat(std::uint64_t id) {
    const auto it = live_.find(id);
    if (it == live_.end()) return HeartbeatOutcome::kLapsed;
    if (in_offline_zone(it->second.location)) {
      return HeartbeatOutcome::kUnreachable;
    }
    if (!lifetime_.is_zero()) {
      it->second.expires_ns = (sim_.now() + lifetime_).ns();
    }
    return HeartbeatOutcome::kRenewed;
  }

  void act() {
    const std::uint64_t op = pick(100);
    if (op < 30) {
      const bool east = pick(2) == 1;
      const Position at{(east ? east_.x_m : kBoundaryM - 400.0) +
                            static_cast<double>(pick(300)),
                        static_cast<double>(pick(1'000))};
      auto g = reg_.grant_now(band5_request(static_cast<std::uint32_t>(op),
                                            at));
      ASSERT_TRUE(g.ok());
      ASSERT_EQ(g->id.value(), next_id_);
      ++next_id_;
      live_[g->id.value()] =
          Lease{at, lifetime_.is_zero() ? 0 : (sim_.now() + lifetime_).ns()};
    } else if (op < 45) {
      const GrantId id = any_id();
      const HeartbeatOutcome got = reg_.heartbeat_outcome(id);
      model_prune();
      ASSERT_EQ(got, model_heartbeat(id.value())) << "heartbeat "
                                                  << id.value();
    } else if (op < 60) {
      std::vector<std::uint64_t> ids(1 + pick(6));
      for (std::uint64_t& id : ids) id = any_id().value();
      const HeartbeatBatchOutcome got = reg_.heartbeat_batch(ids);
      model_prune();
      HeartbeatBatchOutcome want;
      for (const std::uint64_t id : ids) tally(want, id, model_heartbeat(id));
      expect_same_outcome(got, want);
    } else if (op < 66) {
      const GrantId id = any_id();
      reg_.revoke(id);
      if (live_.erase(id.value()) > 0) revoked_.insert(id.value());
    } else if (op < 88) {
      sim_.run_until(sim_.now() + pick_seconds({0.0, 1.0, 3.0, 7.0, 15.0}));
    } else if (op < 93) {
      // Shrinks (60 s → 5 s) make renewals link behind later leases.
      lifetime_ = pick_seconds({0.0, 5.0, 20.0, 60.0});
      reg_.set_grant_lifetime(lifetime_);
    } else if (op < 97) {
      grace_ = pick_seconds({0.0, 4.0, 30.0});
      reg_.set_heartbeat_grace(grace_);
    } else {
      offline_ = !offline_;
      reg_.set_zone_offline(Registry::zone_of(east_), offline_);
    }
  }

  void check(int step) {
    const std::vector<SpectrumGrant> near = reg_.grants_near(probe());
    model_prune();
    ASSERT_EQ(reg_.grant_count(), live_.size()) << "step " << step;
    ASSERT_EQ(near.size(), live_.size()) << "step " << step;
    ASSERT_EQ(reg_.grants_lapsed(), lapsed_.size()) << "step " << step;
    std::set<std::uint64_t> gone;
    for (std::uint64_t id = 1; id < next_id_; ++id) gone.insert(id);
    for (const SpectrumGrant& g : near) {
      const auto it = live_.find(g.id.value());
      ASSERT_NE(it, live_.end()) << "step " << step << " id " << g.id.value();
      EXPECT_EQ(g.expires_at.ns(), it->second.expires_ns) << "step " << step;
      const bool degraded =
          it->second.expires_ns != 0 && it->second.expires_ns < now();
      EXPECT_EQ(g.degraded, degraded) << "step " << step;
      gone.erase(g.id.value());
    }
    // What is neither live nor revoked lapsed: the same ids as the model.
    for (const std::uint64_t id : revoked_) gone.erase(id);
    ASSERT_EQ(gone, lapsed_) << "step " << step;
  }

  std::mt19937_64 rng_;
  sim::Simulator sim_;
  Registry reg_{sim_, RegistryKind::kFederated};
  const Position east_{kBoundaryM + 100.0, 0.0};
  Duration lifetime_{};
  Duration grace_{};
  bool offline_{false};
  std::uint64_t next_id_{1};
  std::map<std::uint64_t, Lease> live_;
  std::set<std::uint64_t> lapsed_;
  std::set<std::uint64_t> revoked_;
};

TEST(RegistryExpiryList, MatchesAScanModelOverSeededRuns) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 7u, 42u, 1234u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RegistryModel{seed}.run(2'000);
  }
}


// request_grants against `count` back-to-back request_grant calls (each
// a batch of one): two twin registries take the same batch, one through
// each entry point, and must agree on everything observable — ids and
// their order, lease expiries, the time the batch is answered, every
// registry metric, spans and chain records. Only the number of simulator
// events may differ.
constexpr std::uint32_t kBatch = 6;

struct GrantTwin {
  explicit GrantTwin(RegistryKind kind) : reg{sim, kind} {
    reg.set_metrics(&metrics, "reg.");
    reg.set_grant_lifetime(Duration::seconds(30.0));
  }
  void attach_chain() {
    chain = std::make_unique<SpectrumChain>(sim, Duration::seconds(60.0));
    reg.attach_chain(chain.get());
  }
  void attach_tracer(std::size_t capacity) {
    tracer = std::make_unique<obs::SpanTracer>([this] { return sim.now(); },
                                               capacity);
    reg.set_tracer(tracer.get());
  }
  void answer(const std::vector<Result<SpectrumGrant>>& results) {
    for (const auto& grant : results) {
      if (!grant) continue;
      ids.push_back(grant->id.value());
      expiries.push_back(grant->expires_at);
    }
    ++answers;
    answered_at = sim.now();
  }

  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  Registry reg;
  std::unique_ptr<SpectrumChain> chain;
  std::unique_ptr<obs::SpanTracer> tracer;
  std::vector<std::uint64_t> ids;
  std::vector<TimePoint> expiries;
  int answers{0};
  TimePoint answered_at;
};

// The twins: `batch` takes one request_grants call, `per_lease` takes
// kBatch request_grant calls whose last completion answers, as the
// registry plane's endpoint did before the batch entry point existed.
struct Twins {
  explicit Twins(RegistryKind kind) : batch{kind}, per_lease{kind} {}
  void both(const std::function<void(GrantTwin&)>& step) {
    step(batch);
    step(per_lease);
  }
  void submit(const GrantRequest& request) {
    batch.reg.request_grants(
        request, kBatch,
        [this](std::vector<Result<SpectrumGrant>> results) {
          batch.answer(results);
        });
    auto results = std::make_shared<std::vector<Result<SpectrumGrant>>>();
    for (std::uint32_t i = 0; i < kBatch; ++i) {
      per_lease.reg.request_grant(
          request, [this, results](Result<SpectrumGrant> g) {
            results->push_back(std::move(g));
            if (results->size() == kBatch) per_lease.answer(*results);
          });
    }
  }
  void run_until(TimePoint t) {
    both([t](GrantTwin& twin) { twin.sim.run_until(t); });
  }

  GrantTwin batch;
  GrantTwin per_lease;
};

std::string metrics_json(const GrantTwin& twin) {
  return obs::MetricsSnapshot{twin.metrics}.to_json();
}

std::string spans_text(const obs::SpanTracer& tracer) {
  std::string out;
  for (const obs::Span& span : tracer.spans()) {
    out += span.name + "|" + span.category + "|" +
           std::to_string(span.start.ns()) + "|" +
           std::to_string(span.end.ns()) + (span.open ? "|open" : "|closed");
    for (const auto& a : span.annotations) out += "|" + a.key + "=" + a.value;
    out += "\n";
  }
  return out;
}

std::string spans_text(const GrantTwin& twin) {
  return twin.tracer == nullptr ? std::string{} : spans_text(*twin.tracer);
}

// How many lines of a spans_text dump contain `needle`.
std::size_t spans_with(const std::string& text, const std::string& needle) {
  std::size_t lines = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++lines;
  }
  return lines;
}

void expect_twins_agree(const Twins& t) {
  EXPECT_EQ(t.batch.answers, 1);
  EXPECT_EQ(t.per_lease.answers, 1);
  EXPECT_EQ(t.batch.ids, t.per_lease.ids);
  EXPECT_EQ(t.batch.expiries, t.per_lease.expiries);
  EXPECT_EQ(t.batch.answered_at, t.per_lease.answered_at);
  EXPECT_EQ(metrics_json(t.batch), metrics_json(t.per_lease));
  EXPECT_EQ(t.batch.reg.grant_count(), t.per_lease.reg.grant_count());
  EXPECT_EQ(spans_text(t.batch), spans_text(t.per_lease));
}

TEST(RegistryGrantBatch, HealthyBatchCommitsInOneEvent) {
  Twins t{RegistryKind::kFederated};
  t.submit(band5_request(1, Position{1'000.0, 1'000.0}));
  t.run_until(TimePoint{} + Duration::seconds(5.0));
  expect_twins_agree(t);
  EXPECT_EQ(t.batch.ids.size(), kBatch);
  EXPECT_EQ(t.batch.answered_at,
            TimePoint{} + registry_latency(RegistryKind::kFederated).commit);
  EXPECT_EQ(t.batch.sim.events_executed(), 1u);
  EXPECT_EQ(t.per_lease.sim.events_executed(), kBatch);
}

TEST(RegistryGrantBatch, OfflineZoneFailsEveryLeaseAfterTheTimeout) {
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    Twins t{RegistryKind::kFederated};
    const Position pos{1'000.0, 1'000.0};
    t.both([&](GrantTwin& twin) {
      if (traced) twin.attach_tracer(obs::SpanTracer::kDefaultCapacity);
      twin.reg.set_zone_offline(Registry::zone_of(pos), true);
    });
    t.submit(band5_request(1, pos));
    t.run_until(TimePoint{} + Duration::seconds(5.0));
    expect_twins_agree(t);
    EXPECT_TRUE(t.batch.ids.empty());
    EXPECT_EQ(t.batch.answered_at, TimePoint{} + Duration::seconds(2.0));
    EXPECT_EQ(t.batch.metrics.counter("reg.registry.grant_failures").value(),
              kBatch);
    // One failure timeout answers the whole batch.
    EXPECT_EQ(t.batch.sim.events_executed(), 1u);
    EXPECT_EQ(t.per_lease.sim.events_executed(), kBatch);
    EXPECT_EQ(spans_with(spans_text(t.batch), "failed: registry unreachable"),
              traced ? kBatch : 0u);
  }
}

TEST(RegistryGrantBatch, CommitStallHealingMidRunReplaysEveryLease) {
  for (const bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    Twins t{RegistryKind::kCentralizedSas};
    t.both([traced](GrantTwin& twin) {
      if (traced) twin.attach_tracer(obs::SpanTracer::kDefaultCapacity);
      twin.reg.set_outage(RegistryOutage::kCommitStall);
    });
    t.submit(band5_request(1, Position{}));
    t.run_until(TimePoint{} + Duration::seconds(1.0));
    // The gauge counts stalled leases, not batches.
    EXPECT_EQ(t.batch.metrics.gauge("reg.registry.stalled_commits").value(),
              static_cast<double>(kBatch));
    EXPECT_EQ(metrics_json(t.batch), metrics_json(t.per_lease));
    EXPECT_EQ(spans_text(t.batch), spans_text(t.per_lease));
    EXPECT_EQ(t.batch.answers, 0);
    t.both(
        [](GrantTwin& twin) { twin.reg.set_outage(RegistryOutage::kNone); });
    t.run_until(TimePoint{} + Duration::seconds(5.0));
    expect_twins_agree(t);
    EXPECT_EQ(t.batch.ids.size(), kBatch);
    EXPECT_EQ(t.batch.answered_at,
              TimePoint{} + Duration::seconds(1.0) +
                  registry_latency(RegistryKind::kCentralizedSas).commit);
    EXPECT_EQ(t.batch.metrics.gauge("reg.registry.stalled_commits").value(),
              0.0);
    // The healed batch commits in one event.
    EXPECT_EQ(t.batch.sim.events_executed(), 1u);
    EXPECT_EQ(t.per_lease.sim.events_executed(), kBatch);
    EXPECT_EQ(spans_with(spans_text(t.batch), "stalled="),
              traced ? kBatch : 0u);
  }
}

TEST(RegistryGrantBatch, CommitStallHealingIntoOfflineFailsTheBatch) {
  // The stall clears straight into a full outage: the replayed batch is
  // refused like a fresh one, failing every lease one failure timeout
  // after the heal.
  Twins t{RegistryKind::kCentralizedSas};
  t.both([](GrantTwin& twin) {
    twin.attach_tracer(obs::SpanTracer::kDefaultCapacity);
    twin.reg.set_outage(RegistryOutage::kCommitStall);
  });
  t.submit(band5_request(1, Position{}));
  t.run_until(TimePoint{} + Duration::seconds(1.0));
  t.both(
      [](GrantTwin& twin) { twin.reg.set_outage(RegistryOutage::kOffline); });
  t.run_until(TimePoint{} + Duration::seconds(5.0));
  expect_twins_agree(t);
  EXPECT_TRUE(t.batch.ids.empty());
  EXPECT_EQ(t.batch.answered_at,
            TimePoint{} + Duration::seconds(1.0) + Duration::seconds(2.0));
  EXPECT_EQ(t.batch.metrics.counter("reg.registry.grant_failures").value(),
            kBatch);
  EXPECT_EQ(t.batch.metrics.gauge("reg.registry.stalled_commits").value(),
            0.0);
  EXPECT_EQ(t.batch.sim.events_executed(), 1u);
  EXPECT_EQ(t.per_lease.sim.events_executed(), kBatch);
  const std::string spans = spans_text(t.batch);
  EXPECT_EQ(spans_with(spans, "stalled="), kBatch);
  EXPECT_EQ(spans_with(spans, "failed: registry unreachable"), kBatch);
}

TEST(RegistryGrantBatch, TracedBatchKeepsOneSpanPerLease) {
  // Tracing does not split the batch: it still commits in one event and
  // closes one registry_grant span per lease. A tracer that fills up
  // mid-batch refuses (and counts) the same spans on both twins.
  for (const std::size_t capacity :
       {obs::SpanTracer::kDefaultCapacity, std::size_t{kBatch / 2}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    Twins t{RegistryKind::kFederated};
    t.both([capacity](GrantTwin& twin) { twin.attach_tracer(capacity); });
    t.submit(band5_request(1, Position{1'000.0, 1'000.0}));
    t.run_until(TimePoint{} + Duration::seconds(5.0));
    expect_twins_agree(t);
    EXPECT_EQ(t.batch.ids.size(), kBatch);
    EXPECT_EQ(t.batch.sim.events_executed(), 1u);
    std::size_t grant_spans = 0;
    for (const obs::Span& span : t.batch.tracer->spans()) {
      if (span.name == "registry_grant" && !span.open) ++grant_spans;
    }
    EXPECT_EQ(grant_spans, std::min<std::size_t>(kBatch, capacity));
    EXPECT_EQ(t.batch.tracer->dropped_spans(),
              t.per_lease.tracer->dropped_spans());
  }
}

std::vector<std::vector<std::uint8_t>> grant_records(const GrantTwin& twin) {
  return committed_payloads(*twin.chain, ChainRecordKind::kGrant);
}

TEST(RegistryGrantBatch, ChainBackedBatchCommitsAtBlockInclusion) {
  Twins t{RegistryKind::kBlockchain};
  t.both([](GrantTwin& twin) { twin.attach_chain(); });
  t.submit(band5_request(1, Position{}));
  t.run_until(TimePoint{} + Duration::seconds(90.0));
  expect_twins_agree(t);
  EXPECT_EQ(t.batch.ids.size(), kBatch);
  EXPECT_EQ(t.batch.answered_at, TimePoint{} + Duration::seconds(60.0));
  // One chain record per lease, sealed into the same block.
  EXPECT_EQ(grant_records(t.batch).size(), kBatch);
  EXPECT_EQ(grant_records(t.batch), grant_records(t.per_lease));
  EXPECT_EQ(t.batch.chain->block_count(), t.per_lease.chain->block_count());
  EXPECT_TRUE(t.batch.chain->verify());
}

TEST(RegistryGrantBatch, CappedBlockSplitsAChainBackedBatch) {
  // Half a batch fits in a block: the first half is granted (and its
  // lease clock starts) at the first seal, the rest at the second, and
  // the batch is answered only then.
  Twins t{RegistryKind::kBlockchain};
  t.both([](GrantTwin& twin) {
    twin.attach_chain();
    twin.chain->set_max_records_per_block(kBatch / 2);
  });
  t.submit(band5_request(1, Position{}));
  t.run_until(TimePoint{} + Duration::seconds(90.0));
  EXPECT_EQ(t.batch.answers, 0);
  EXPECT_EQ(t.batch.metrics.counter("reg.registry.grants_issued").value(),
            kBatch / 2);
  EXPECT_EQ(metrics_json(t.batch), metrics_json(t.per_lease));
  t.run_until(TimePoint{} + Duration::seconds(130.0));
  expect_twins_agree(t);
  ASSERT_EQ(t.batch.ids.size(), kBatch);
  EXPECT_EQ(t.batch.answered_at, TimePoint{} + Duration::seconds(120.0));
  const Duration lifetime = Duration::seconds(30.0);
  for (std::uint32_t i = 0; i < kBatch; ++i) {
    const TimePoint sealed =
        TimePoint{} + Duration::seconds(i < kBatch / 2 ? 60.0 : 120.0);
    EXPECT_EQ(t.batch.expiries[i], sealed + lifetime) << "lease " << i;
  }
  EXPECT_EQ(grant_records(t.batch), grant_records(t.per_lease));
  EXPECT_EQ(t.batch.chain->block_count(), 3u);  // Genesis + two seals.
  EXPECT_EQ(t.batch.chain->block_count(), t.per_lease.chain->block_count());
}


// heartbeat_batch against the same ids sent one by one through
// heartbeat_outcome: two twin federated registries hold the same leases,
// one takes each batch whole and the other id by id, and they must agree
// on the outcomes, every registry metric, the traced registry_heartbeat
// markers and which leases lapse when afterwards.
struct HeartbeatTwin {
  HeartbeatTwin() {
    reg.set_metrics(&metrics, "reg.");
    reg.set_tracer(&tracer);
    reg.set_grant_lifetime(Duration::seconds(60.0));
    reg.set_heartbeat_grace(Duration::seconds(10.0));
  }
  // Steps the clock, prunes and lists the live ids, ascending.
  std::vector<std::uint64_t> alive(TimePoint t) {
    sim.run_until(t);
    reg.prune_expired();
    std::vector<std::uint64_t> out;
    for (const SpectrumGrant& g : reg.grants()) out.push_back(g.id.value());
    std::sort(out.begin(), out.end());
    return out;
  }

  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  Registry reg{sim, RegistryKind::kFederated};
  obs::SpanTracer tracer{[this] { return sim.now(); }};
};

// Two blocks of three leases, one in each of two federated zones
// (ids 1–3 west, 4–6 east), and one more west lease on a second site
// (id 7), all granted at t = 0.
const Position kWest{1'000.0, 1'000.0};
const Position kWestSite{2'000.0, 1'000.0};
const Position kEast{Registry::kZoneSizeM + 1'000.0, 1'000.0};

struct HeartbeatTwins {
  HeartbeatTwins() {
    both([](HeartbeatTwin& twin) {
      for (const Position at : {kWest, kWest, kWest, kEast, kEast, kEast,
                                kWestSite}) {
        ASSERT_TRUE(twin.reg.grant_now(band5_request(1, at)).ok());
      }
    });
  }
  void both(const std::function<void(HeartbeatTwin&)>& step) {
    step(batch);
    step(single);
  }
  void at(double t_s) {
    both([t_s](HeartbeatTwin& twin) {
      twin.sim.run_until(TimePoint{} + Duration::seconds(t_s));
    });
  }
  // One heartbeat_batch on one twin, the same ids one at a time on the
  // other; returns the batch's outcome.
  HeartbeatBatchOutcome beat(const std::vector<std::uint64_t>& ids) {
    const std::size_t spans_before = batch.tracer.spans().size();
    const HeartbeatBatchOutcome got = batch.reg.heartbeat_batch(ids);
    HeartbeatBatchOutcome want;
    for (const std::uint64_t id : ids) {
      tally(want, id, single.reg.heartbeat_outcome(GrantId{id}));
    }
    expect_same_outcome(got, want);
    EXPECT_EQ(obs::MetricsSnapshot{batch.metrics}.to_json(),
              obs::MetricsSnapshot{single.metrics}.to_json());
    EXPECT_EQ(batch.reg.grants_lapsed(), single.reg.grants_lapsed());
    EXPECT_EQ(spans_text(batch.tracer), spans_text(single.tracer));
    // One marker per id, in batch order.
    const auto& spans = batch.tracer.spans();
    EXPECT_EQ(spans.size() - spans_before, ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const obs::Span& span = spans[spans_before + i];
      EXPECT_EQ(span.name, "registry_heartbeat");
      EXPECT_EQ(span.annotations.size(), 2u);
      if (span.annotations.empty()) continue;
      EXPECT_EQ(span.annotations.front().key, "grant");
      EXPECT_EQ(span.annotations.front().value, std::to_string(ids[i]));
    }
    return got;
  }
  // Steps both twins a second at a time to `until_s`: the same leases
  // must be live at every step, so they lapse in the same order.
  void expect_same_lapses(double from_s, double until_s) {
    for (double t = from_s; t <= until_s; t += 1.0) {
      const TimePoint at = TimePoint{} + Duration::seconds(t);
      ASSERT_EQ(batch.alive(at), single.alive(at)) << "t=" << t;
    }
    EXPECT_EQ(batch.reg.grants_lapsed(), single.reg.grants_lapsed());
  }

  HeartbeatTwin batch;
  HeartbeatTwin single;
};

constexpr std::uint64_t kNeverIssued = 99;

TEST(RegistryHeartbeatBatch, MixOfRenewedUnreachableAndLapsed) {
  HeartbeatTwins t;
  t.at(30.0);
  (void)t.beat({1, 4});  // 1 and 4 now expire at 90 s, lapse after 100 s.
  t.both([](HeartbeatTwin& twin) { twin.reg.revoke(GrantId{7}); });
  t.at(75.0);  // 2, 3, 5 and 6 expired at 60 s and lapsed after 70 s.
  t.both([](HeartbeatTwin& twin) {
    twin.reg.set_zone_offline(Registry::zone_of(kEast), true);
  });
  const HeartbeatBatchOutcome out =
      t.beat({1, 4, 2, 5, 7, 0, kNeverIssued,
              std::numeric_limits<std::uint64_t>::max(), 4, 1});
  EXPECT_EQ(out.renewed, 2u);      // 1, twice.
  EXPECT_EQ(out.unreachable, 2u);  // 4 in the offline east zone, twice.
  EXPECT_EQ(out.lapsed,
            (std::vector<std::uint64_t>{
                2, 5, 7, 0, kNeverIssued,
                std::numeric_limits<std::uint64_t>::max()}));
  // 4 keeps aging through the outage and lapses after 100 s; 1, renewed
  // at 75 s, after 145 s.
  t.expect_same_lapses(76.0, 150.0);
  EXPECT_EQ(t.batch.reg.grant_count(), 0u);
}

TEST(RegistryHeartbeatBatch, DuplicateIdsActAsRepeatedHeartbeats) {
  HeartbeatTwins t;
  t.at(20.0);
  (void)t.beat({1, 2});
  t.at(40.0);
  // 3 renews twice at one instant, 1 three times; 6 is renewed between
  // its own duplicates; 99 lapses once per occurrence.
  const HeartbeatBatchOutcome out =
      t.beat({3, 1, 3, kNeverIssued, 1, 6, kNeverIssued, 1, 6});
  EXPECT_EQ(out.renewed, 7u);
  EXPECT_EQ(out.lapsed,
            (std::vector<std::uint64_t>{kNeverIssued, kNeverIssued}));
  t.expect_same_lapses(41.0, 120.0);
}

TEST(RegistryHeartbeatBatch, OfflineRegistryFailsTheWholeBatchUnpruned) {
  HeartbeatTwins t;
  t.at(30.0);
  (void)t.beat({1, 2, 3});
  t.at(75.0);  // 4–7 are past expiry and grace, but nothing pruned yet.
  t.both([](HeartbeatTwin& twin) {
    twin.reg.set_outage(RegistryOutage::kOffline);
  });
  const HeartbeatBatchOutcome out = t.beat({1, 4, kNeverIssued, 1});
  EXPECT_EQ(out.unreachable, 4u);
  EXPECT_TRUE(out.lapsed.empty());
  // An offline registry does not prune: the dead leases are still held.
  EXPECT_EQ(t.batch.reg.grants_lapsed(), 0u);
  EXPECT_EQ(t.batch.reg.grant_count(), 7u);
  t.both(
      [](HeartbeatTwin& twin) { twin.reg.set_outage(RegistryOutage::kNone); });
  const HeartbeatBatchOutcome healed = t.beat({1, 4, 2});
  EXPECT_EQ(healed.renewed, 2u);
  EXPECT_EQ(healed.lapsed, (std::vector<std::uint64_t>{4}));
  t.expect_same_lapses(76.0, 150.0);
}

TEST(RegistryHeartbeatBatch, ZoneGoingOfflineBetweenBatches) {
  HeartbeatTwins t;
  // West and east ids alternate, so the batch's reachability changes
  // from one lease to the next.
  const std::vector<std::uint64_t> ids{1, 4, 2, 5, 7, 3, 6};
  t.at(30.0);
  EXPECT_EQ(t.beat(ids).renewed, ids.size());
  t.both([](HeartbeatTwin& twin) {
    twin.reg.set_zone_offline(Registry::zone_of(kEast), true);
  });
  t.at(50.0);
  const HeartbeatBatchOutcome dark = t.beat(ids);
  EXPECT_EQ(dark.renewed, 4u);
  EXPECT_EQ(dark.unreachable, 3u);
  // The east leases expired at 90 s; the zone heals inside their grace.
  t.at(95.0);
  t.both([](HeartbeatTwin& twin) {
    twin.reg.set_zone_offline(Registry::zone_of(kEast), false);
  });
  EXPECT_EQ(t.beat(ids).renewed, ids.size());
  t.at(96.0);
  t.both([](HeartbeatTwin& twin) {
    twin.reg.set_zone_offline(Registry::zone_of(kWest), true);
  });
  const HeartbeatBatchOutcome west_dark = t.beat(ids);
  EXPECT_EQ(west_dark.renewed, 3u);
  EXPECT_EQ(west_dark.unreachable, 4u);
  t.expect_same_lapses(97.0, 180.0);
  EXPECT_EQ(t.batch.reg.grants_lapsed(), ids.size());
}

}  // namespace
}  // namespace dlte::spectrum
