#include "registry/cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "obs/metrics.h"

namespace dlte::registry {
namespace {

TimePoint at(double seconds) { return TimePoint{} + Duration::seconds(seconds); }

ZoneSnapshot snap(std::vector<std::uint64_t> ids) {
  return std::make_shared<const std::vector<std::uint64_t>>(std::move(ids));
}

CacheConfig small_config() {
  CacheConfig c;
  c.local_ttl = Duration::seconds(2.0);
  c.zone_ttl = Duration::seconds(10.0);
  c.root_ttl = Duration::seconds(60.0);
  c.root_capacity = 2;
  c.capacity_window = Duration::seconds(1.0);
  return c;
}

TEST(LeaseCache, MissThenFillThenLocalHit) {
  LeaseCache cache{small_config()};
  obs::MetricsRegistry metrics;
  cache.set_metrics(&metrics);
  auto miss = cache.lookup(7, 1, 1, at(0.0));
  EXPECT_EQ(miss.tier, CacheTier::kAuthoritative);
  EXPECT_EQ(miss.snapshot, nullptr);
  EXPECT_EQ(metrics.counter("registry.cache.misses").value(), 1u);

  cache.fill(7, 1, 1, snap({10, 11}), at(0.0));
  auto hit = cache.lookup(7, 1, 1, at(1.0));
  EXPECT_EQ(hit.tier, CacheTier::kLocal);
  EXPECT_FALSE(hit.stale);
  ASSERT_NE(hit.snapshot, nullptr);
  EXPECT_EQ(hit.snapshot->size(), 2u);
  EXPECT_EQ(metrics.counter("registry.cache.hits_local").value(), 1u);
}

TEST(LeaseCache, TierWalkRefillsLowerTiers) {
  LeaseCache cache{small_config()};
  cache.fill(7, 1, 1, snap({10}), at(0.0));
  // Past local TTL (2s) but inside zone TTL (10s): zone tier serves and
  // refills requester 7's local entry with the ORIGINAL fill time.
  auto z = cache.lookup(7, 1, 1, at(5.0));
  EXPECT_EQ(z.tier, CacheTier::kZone);
  EXPECT_DOUBLE_EQ(z.age_ms, 5'000.0);
  // The refilled local entry still carries filled_at = 0, so it is
  // already past the local TTL again — next lookup is another zone hit,
  // not a bogus "fresh" local hit.
  auto z2 = cache.lookup(7, 1, 1, at(6.0));
  EXPECT_EQ(z2.tier, CacheTier::kZone);
  // A different requester never filled locally: also a zone hit.
  auto other = cache.lookup(8, 1, 1, at(5.5));
  EXPECT_EQ(other.tier, CacheTier::kZone);
}

TEST(LeaseCache, TtlExpiryIsDeterministic) {
  LeaseCache cache{small_config()};
  cache.fill(7, 1, 1, snap({10}), at(0.0));
  // Exactly at the zone TTL boundary: still fresh (<=).
  EXPECT_EQ(cache.lookup(7, 1, 1, at(10.0)).tier, CacheTier::kZone);
  // Past every TTL except root (60s): root serves.
  EXPECT_EQ(cache.lookup(7, 1, 1, at(10.001)).tier, CacheTier::kRoot);
  // Past the root TTL: authoritative fall-through.
  EXPECT_EQ(cache.lookup(7, 1, 1, at(61.0)).tier, CacheTier::kAuthoritative);
}

TEST(LeaseCache, StaleServeBeforeAuthoritativeFallback) {
  LeaseCache cache{small_config()};
  obs::MetricsRegistry metrics;
  cache.set_metrics(&metrics);
  cache.fill(7, 1, /*version=*/3, snap({10}), at(0.0));
  // Authoritative version moved to 5: inside TTL the cache still serves
  // (DNS semantics) but counts the serve as stale.
  auto stale = cache.lookup(7, 1, /*version=*/5, at(1.0));
  EXPECT_EQ(stale.tier, CacheTier::kLocal);
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(metrics.counter("registry.cache.stale_serves").value(), 1u);
  // Once the TTL runs out the stale entry is NOT served: authoritative.
  auto after = cache.lookup(7, 1, /*version=*/5, at(61.0));
  EXPECT_EQ(after.tier, CacheTier::kAuthoritative);
  EXPECT_FALSE(after.stale);
}

TEST(LeaseCache, RootShedsExactlyPastCapacity) {
  LeaseCache cache{small_config()};  // root_capacity = 2 per 1 s window.
  obs::MetricsRegistry metrics;
  cache.set_metrics(&metrics);
  cache.fill(1, 1, 1, snap({10}), at(0.0));
  // Root-tier serves need the local+zone tiers cold: use distinct
  // requesters past the zone TTL... simpler: age past zone TTL so only
  // the root is fresh.
  EXPECT_EQ(cache.lookup(1, 1, 1, at(20.0)).tier, CacheTier::kRoot);
  // Re-age: lookups refill zone with original filled_at (still expired),
  // so the next lookup hits root again inside the same window.
  EXPECT_EQ(cache.lookup(2, 1, 1, at(20.1)).tier, CacheTier::kRoot);
  // Third root admission in the window: exactly past capacity → shed.
  auto shed = cache.lookup(3, 1, 1, at(20.2));
  EXPECT_EQ(shed.tier, CacheTier::kShed);
  EXPECT_EQ(shed.snapshot, nullptr);
  EXPECT_EQ(metrics.counter("registry.cache.root_sheds").value(), 1u);
  // Next window (grid-anchored at t=0): capacity resets.
  EXPECT_EQ(cache.lookup(4, 1, 1, at(21.0)).tier, CacheTier::kRoot);
}

TEST(LeaseCache, MetricsMirrorTallies) {
  obs::MetricsRegistry metrics;
  LeaseCache cache{small_config()};
  cache.set_metrics(&metrics, "reg.");
  (void)cache.lookup(7, 1, 1, at(0.0));  // Miss.
  cache.fill(7, 1, 1, snap({10}), at(0.0));
  (void)cache.lookup(7, 1, /*version=*/2, at(1.0));  // Stale local hit.
  EXPECT_EQ(metrics.counter("reg.registry.cache.misses").value(), 1u);
  EXPECT_EQ(metrics.counter("reg.registry.cache.hits_local").value(), 1u);
  EXPECT_EQ(metrics.counter("reg.registry.cache.stale_serves").value(), 1u);
  EXPECT_EQ(metrics.histogram("reg.registry.cache.staleness_ms").count(), 1u);
}

}  // namespace
}  // namespace dlte::registry
