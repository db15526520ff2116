#include "registry/cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <string>
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

// ---- Scan model ----------------------------------------------------------

// The cache's contract as a plain model: three lists of entries scanned
// front to back, and a root admission count per capacity window of the
// grid anchored at t=0.
class CacheModel {
 public:
  explicit CacheModel(const CacheConfig& config) : config_(config) {}

  struct Tallies {
    std::uint64_t hits_local{0};
    std::uint64_t hits_zone{0};
    std::uint64_t hits_root{0};
    std::uint64_t misses{0};
    std::uint64_t stale_serves{0};
    std::uint64_t root_sheds{0};
    std::uint64_t staleness_samples{0};
  };

  CacheLookup lookup(std::uint64_t requester, std::int64_t zone,
                     std::uint64_t version, TimePoint now) {
    if (const Row* r = find(local_, requester, zone);
        r != nullptr && fresh(*r, config_.local_ttl, now)) {
      return serve(CacheTier::kLocal, *r, version, now);
    }
    if (const Row* r = find(zone_, 0, zone);
        r != nullptr && fresh(*r, config_.zone_ttl, now)) {
      const Row copy = *r;
      put(local_, requester, zone, copy);
      return serve(CacheTier::kZone, copy, version, now);
    }
    const std::int64_t window = now.ns() / config_.capacity_window.ns();
    if (window != window_) {
      window_ = window;
      admitted_ = 0;
    }
    if (++admitted_ > config_.root_capacity) {
      ++tallies.root_sheds;
      CacheLookup out;
      out.tier = CacheTier::kShed;
      return out;
    }
    if (const Row* r = find(root_, 0, zone);
        r != nullptr && fresh(*r, config_.root_ttl, now)) {
      const Row copy = *r;
      put(zone_, 0, zone, copy);
      put(local_, requester, zone, copy);
      return serve(CacheTier::kRoot, copy, version, now);
    }
    ++tallies.misses;
    return CacheLookup{};
  }

  void fill(std::uint64_t requester, std::int64_t zone, std::uint64_t version,
            const ZoneSnapshot& snapshot, TimePoint now) {
    const Row row{requester, zone, version, now, snapshot};
    put(root_, 0, zone, row);
    put(zone_, 0, zone, row);
    put(local_, requester, zone, row);
  }

  Tallies tallies;

 private:
  struct Row {
    std::uint64_t requester{0};  // 0 in the zone and root lists.
    std::int64_t zone{0};
    std::uint64_t version{0};
    TimePoint filled_at{};
    ZoneSnapshot snapshot;
  };

  static const Row* find(const std::vector<Row>& rows,
                         std::uint64_t requester, std::int64_t zone) {
    for (const Row& r : rows) {
      if (r.requester == requester && r.zone == zone) return &r;
    }
    return nullptr;
  }
  static void put(std::vector<Row>& rows, std::uint64_t requester,
                  std::int64_t zone, Row row) {
    row.requester = requester;
    for (Row& r : rows) {
      if (r.requester == requester && r.zone == zone) {
        r = row;
        return;
      }
    }
    rows.push_back(row);
  }
  static bool fresh(const Row& r, Duration ttl, TimePoint now) {
    return now - r.filled_at <= ttl;
  }
  CacheLookup serve(CacheTier tier, const Row& r, std::uint64_t version,
                    TimePoint now) {
    switch (tier) {
      case CacheTier::kLocal:
        ++tallies.hits_local;
        break;
      case CacheTier::kZone:
        ++tallies.hits_zone;
        break;
      default:
        ++tallies.hits_root;
        break;
    }
    CacheLookup out;
    out.tier = tier;
    out.stale = r.version != version;
    out.age_ms = (now - r.filled_at).to_millis();
    out.snapshot = r.snapshot;
    if (out.stale) ++tallies.stale_serves;
    ++tallies.staleness_samples;
    return out;
  }

  CacheConfig config_;
  std::vector<Row> local_;
  std::vector<Row> zone_;
  std::vector<Row> root_;
  std::int64_t window_{0};
  std::uint32_t admitted_{0};
};

TEST(LeaseCache, MatchesAScanModelOverSeededRuns) {
  constexpr std::uint64_t kRequesters = 4;
  constexpr std::int64_t kZones = 3;
  CacheConfig config = small_config();
  config.root_capacity = 3;
  CacheModel::Tallies reached;
  for (const std::uint64_t seed : {1u, 2u, 3u, 7u, 42u, 1234u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng{seed};
    obs::MetricsRegistry metrics;
    LeaseCache cache{config};
    cache.set_metrics(&metrics);
    CacheModel model{config};
    std::vector<std::uint64_t> versions(kZones, 1);
    TimePoint now{};
    for (int step = 0; step < 2000; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      const auto op = rng() % 10;
      const std::uint64_t requester = 1 + rng() % kRequesters;
      const std::int64_t zone = static_cast<std::int64_t>(rng() % kZones);
      const std::uint64_t version = versions[static_cast<std::size_t>(zone)];
      if (op < 5) {
        const CacheLookup got = cache.lookup(requester, zone, version, now);
        const CacheLookup want = model.lookup(requester, zone, version, now);
        ASSERT_EQ(got.tier, want.tier);
        ASSERT_EQ(got.stale, want.stale);
        ASSERT_EQ(got.snapshot, want.snapshot);
        ASSERT_EQ(got.age_ms, want.age_ms);
      } else if (op < 7) {
        const ZoneSnapshot s =
            snap({static_cast<std::uint64_t>(zone), version});
        cache.fill(requester, zone, version, s, now);
        model.fill(requester, zone, version, s, now);
      } else if (op == 7) {
        ++versions[static_cast<std::size_t>(zone)];
      } else if (op == 8) {
        // Mostly inside one capacity window; now and then past a TTL.
        now = now + Duration::millis(static_cast<std::int64_t>(rng() % 400));
      } else {
        now = now + Duration::millis(static_cast<std::int64_t>(rng() % 25'000));
      }
      const CacheModel::Tallies& t = model.tallies;
      ASSERT_EQ(metrics.counter("registry.cache.hits_local").value(),
                t.hits_local);
      ASSERT_EQ(metrics.counter("registry.cache.hits_zone").value(),
                t.hits_zone);
      ASSERT_EQ(metrics.counter("registry.cache.hits_root").value(),
                t.hits_root);
      ASSERT_EQ(metrics.counter("registry.cache.misses").value(), t.misses);
      ASSERT_EQ(metrics.counter("registry.cache.stale_serves").value(),
                t.stale_serves);
      ASSERT_EQ(metrics.counter("registry.cache.root_sheds").value(),
                t.root_sheds);
      ASSERT_EQ(metrics.histogram("registry.cache.staleness_ms").count(),
                t.staleness_samples);
    }
    reached.hits_local += model.tallies.hits_local;
    reached.hits_zone += model.tallies.hits_zone;
    reached.hits_root += model.tallies.hits_root;
    reached.misses += model.tallies.misses;
    reached.stale_serves += model.tallies.stale_serves;
    reached.root_sheds += model.tallies.root_sheds;
  }
  // The sequences reached every outcome a lookup can have.
  EXPECT_GT(reached.hits_local, 0u);
  EXPECT_GT(reached.hits_zone, 0u);
  EXPECT_GT(reached.hits_root, 0u);
  EXPECT_GT(reached.misses, 0u);
  EXPECT_GT(reached.stale_serves, 0u);
  EXPECT_GT(reached.root_sheds, 0u);
}

}  // namespace
}  // namespace dlte::registry
