#include "registry/spatial.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "sim/random.h"

namespace dlte::registry {
namespace {

constexpr double kZone = 50'000.0;

SiteEntry site(std::uint64_t id, double x, double y, double range_m) {
  SiteEntry e;
  e.id = id;
  e.location = Position{x, y};
  e.range_m = range_m;
  return e;
}

std::vector<std::uint64_t> reaching_ids(const SpatialIndex& index,
                                        Position pos) {
  std::vector<std::uint64_t> ids;
  index.for_each_reaching(pos, [&](const SiteEntry& e) { ids.push_back(e.id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(ZoneKey, ExactAndDistinct) {
  // Adjacent zones, including negative coordinates, never collide.
  const auto a = zone_key(Position{0.0, 0.0}, kZone);
  const auto b = zone_key(Position{kZone + 1.0, 0.0}, kZone);
  const auto c = zone_key(Position{0.0, kZone + 1.0}, kZone);
  const auto d = zone_key(Position{-1.0, 0.0}, kZone);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_NE(a, d);
  // Same zone → same key, wherever in the square.
  EXPECT_EQ(a, zone_key(Position{kZone - 1.0, kZone - 1.0}, kZone));
  EXPECT_EQ(zone_key(Position{2.5 * kZone, 3.5 * kZone}, kZone),
            zone_key_of(2, 3));
}

TEST(SpatialIndex, ReachingMatchesPredicate) {
  SpatialIndex index{kZone};
  index.insert(site(1, 0.0, 0.0, 10'000.0));        // Covers origin area.
  index.insert(site(2, 8'000.0, 0.0, 10'000.0));    // Also covers origin.
  index.insert(site(3, 30'000.0, 0.0, 10'000.0));   // Too far.
  index.insert(site(4, 60'000.0, 0.0, 70'000.0));   // Next zone, huge reach.
  index.insert(site(5, -60'000.0, 0.0, 1'000.0));   // Zone out of its reach.
  EXPECT_EQ(reaching_ids(index, Position{0.0, 0.0}),
            (std::vector<std::uint64_t>{1, 2, 4}));
  EXPECT_EQ(index.size(), 5u);
}

TEST(SpatialIndex, CrossZoneReachIsFound) {
  SpatialIndex index{kZone};
  // Entry sits near its zone's edge; its reach spills into the next zone.
  index.insert(site(7, kZone - 100.0, 100.0, 5'000.0));
  EXPECT_EQ(reaching_ids(index, Position{kZone + 1'000.0, 100.0}),
            (std::vector<std::uint64_t>{7}));
  // Beyond the reach: nothing.
  EXPECT_TRUE(reaching_ids(index, Position{kZone + 20'000.0, 100.0}).empty());
}

TEST(SpatialIndex, EraseRemovesExactly) {
  SpatialIndex index{kZone};
  index.insert(site(1, 0.0, 0.0, 10'000.0));
  index.insert(site(2, 100.0, 0.0, 10'000.0));
  EXPECT_TRUE(index.erase(1, Position{0.0, 0.0}));
  EXPECT_FALSE(index.erase(1, Position{0.0, 0.0}));  // Already gone.
  EXPECT_FALSE(index.erase(99, Position{0.0, 0.0}));
  EXPECT_EQ(reaching_ids(index, Position{0.0, 0.0}),
            (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(index.size(), 1u);
}

TEST(SpatialIndex, TouchingZoneSnapshot) {
  SpatialIndex index{kZone};
  const std::int64_t zone = zone_key_of(0, 0);
  index.insert(site(1, 1'000.0, 1'000.0, 500.0));           // Inside.
  index.insert(site(2, kZone + 3'000.0, 100.0, 5'000.0));   // Reaches in.
  index.insert(site(3, kZone + 30'000.0, 100.0, 5'000.0));  // Does not.
  std::vector<std::uint64_t> ids;
  index.for_each_touching_zone(zone,
                               [&](const SiteEntry& e) { ids.push_back(e.id); });
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2}));
}

// Reference membership predicate, written out independently of the
// index: the entry's distance to the closed zone square is within reach.
bool touches(const SiteEntry& e, std::int32_t zx, std::int32_t zy) {
  const double x0 = zx * kZone;
  const double y0 = zy * kZone;
  const double dx = std::max({x0 - e.location.x_m, 0.0,
                              e.location.x_m - (x0 + kZone)});
  const double dy = std::max({y0 - e.location.y_m, 0.0,
                              e.location.y_m - (y0 + kZone)});
  return std::sqrt(dx * dx + dy * dy) <= e.range_m;
}

std::vector<std::uint64_t> touching_ids(const SpatialIndex& index,
                                        std::int64_t zone) {
  std::vector<std::uint64_t> ids;
  index.for_each_touching_zone(
      zone, [&](const SiteEntry& e) { ids.push_back(e.id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(SpatialIndex, ZoneMembersMemoizedUntilTouched) {
  SpatialIndex index{kZone};
  const std::int64_t zone = zone_key_of(0, 0);
  index.insert(site(1, 1'000.0, 1'000.0, 500.0));
  const ZoneSnapshot first = index.zone_members(zone);
  EXPECT_EQ(*first, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(index.zone_members(zone), first);  // Same pointer.

  // Far away in another zone: neither memo nor version moves.
  const std::uint64_t v0 = index.zone_version(zone);
  index.insert(site(2, 3 * kZone + 10'000.0, 10'000.0, 2'000.0));
  EXPECT_EQ(index.zone_members(zone), first);
  EXPECT_EQ(index.zone_version(zone), v0);

  // A neighbour-zone entry whose reach crosses the edge: rebuilt, and
  // the version of the zone it spills into moves too.
  index.insert(site(3, kZone + 1'000.0, 1'000.0, 5'000.0));
  const ZoneSnapshot second = index.zone_members(zone);
  EXPECT_NE(second, first);
  EXPECT_EQ(*second, (std::vector<std::uint64_t>{1, 3}));
  EXPECT_GT(index.zone_version(zone), v0);
  EXPECT_EQ(*first, (std::vector<std::uint64_t>{1}));  // Immutable.

  // Erase of an unknown id changes nothing.
  EXPECT_FALSE(index.erase(99, Position{1'000.0, 1'000.0}));
  EXPECT_EQ(index.zone_members(zone), second);

  EXPECT_TRUE(index.erase(3, Position{kZone + 1'000.0, 1'000.0}));
  EXPECT_EQ(*index.zone_members(zone), (std::vector<std::uint64_t>{1}));
}

// Seeded differential test of the memo against a fresh scan, over random
// insert/erase histories that include long-reach cross-zone entries and
// entries sitting exactly on zone edges (x or y = k·zone_size).
TEST(SpatialIndex, ZoneMembersMatchFreshScanUnderChurn) {
  constexpr std::int32_t kLo = -3;
  constexpr std::int32_t kHi = 2;  // Observed zones: [kLo, kHi]².
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    sim::RngStream rng{seed};
    SpatialIndex index{kZone};
    std::vector<SiteEntry> live;
    std::map<std::int64_t, ZoneSnapshot> seen;
    std::map<std::int64_t, std::uint64_t> versions;
    std::uint64_t next_id = 1;

    const auto coord = [&] {
      // One in three coordinates lands exactly on a zone edge.
      if (rng.uniform_int(0, 2) == 0) {
        return static_cast<double>(
                   static_cast<std::int64_t>(rng.uniform_int(0, 4)) - 2) *
               kZone;
      }
      return rng.uniform(-2.0 * kZone, 2.0 * kZone);
    };

    for (int step = 0; step < 300; ++step) {
      SiteEntry changed;
      bool did_change = true;
      const std::uint64_t op = rng.uniform_int(0, 9);
      if (live.empty() || op < 6) {
        // Mostly short reaches, some long enough to span several zones.
        const double range = rng.uniform_int(0, 3) == 0
                                 ? rng.uniform(30'000.0, 120'000.0)
                                 : rng.uniform(500.0, 8'000.0);
        changed = site(next_id++, coord(), coord(), range);
        index.insert(changed);
        live.push_back(changed);
      } else if (op < 9) {
        const std::size_t i = rng.uniform_int(0, live.size() - 1);
        changed = live[i];
        live[i] = live.back();
        live.pop_back();
        ASSERT_TRUE(index.erase(changed.id, changed.location));
      } else {
        did_change = false;
        EXPECT_FALSE(index.erase(next_id + 1000, Position{coord(), coord()}));
      }

      for (std::int32_t zx = kLo; zx <= kHi; ++zx) {
        for (std::int32_t zy = kLo; zy <= kHi; ++zy) {
          const std::int64_t zone = zone_key_of(zx, zy);
          const bool touched = did_change && touches(changed, zx, zy);
          const ZoneSnapshot members = index.zone_members(zone);
          ASSERT_NE(members, nullptr);
          EXPECT_EQ(*members, touching_ids(index, zone))
              << "seed " << seed << " step " << step << " zone " << zx
              << "," << zy;
          // The snapshot reserves the zone's member count, kept by every
          // insert and erase: exact, or the vector would have grown.
          EXPECT_EQ(members->capacity(), members->size())
              << "seed " << seed << " step " << step;
          const auto prev = seen.find(zone);
          if (prev != seen.end()) {
            if (touched) {
              EXPECT_NE(members, prev->second)
                  << "seed " << seed << " step " << step;
              EXPECT_GT(index.zone_version(zone), versions[zone]);
            } else {
              EXPECT_EQ(members, prev->second)
                  << "seed " << seed << " step " << step;
              EXPECT_EQ(index.zone_version(zone), versions[zone]);
            }
          }
          seen[zone] = members;
          versions[zone] = index.zone_version(zone);
        }
      }
    }
  }
}

TEST(SpatialIndex, VisitOrderIsDeterministic) {
  // Two identically-built indexes produce the same visit sequence.
  SpatialIndex a{kZone};
  SpatialIndex b{kZone};
  for (int i = 0; i < 200; ++i) {
    const auto e = site(static_cast<std::uint64_t>(i + 1),
                        (i % 17) * 9'000.0, (i % 13) * 11'000.0, 12'000.0);
    a.insert(e);
    b.insert(e);
  }
  std::vector<std::uint64_t> seq_a;
  std::vector<std::uint64_t> seq_b;
  a.for_each_reaching(Position{40'000.0, 40'000.0},
                      [&](const SiteEntry& e) { seq_a.push_back(e.id); });
  b.for_each_reaching(Position{40'000.0, 40'000.0},
                      [&](const SiteEntry& e) { seq_b.push_back(e.id); });
  EXPECT_FALSE(seq_a.empty());
  EXPECT_EQ(seq_a, seq_b);
}

TEST(SpatialIndex, InsertRunMatchesOneInsertPerId) {
  // A run of n ids at one location and reach against n single inserts,
  // over seeded histories of runs and erases: every observed zone must
  // have the same version and members, and every probe the same visit
  // order, entry by entry.
  constexpr std::int32_t kLo = -3;
  constexpr std::int32_t kHi = 2;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    sim::RngStream rng{seed};
    SpatialIndex runs{kZone};
    SpatialIndex singles{kZone};
    std::vector<SiteEntry> live;
    std::uint64_t next_id = 1;
    const auto visits = [](const SpatialIndex& index, Position at) {
      std::vector<std::uint64_t> ids;
      index.for_each_reaching(at,
                              [&](const SiteEntry& e) { ids.push_back(e.id); });
      return ids;
    };
    for (int step = 0; step < 120; ++step) {
      if (live.empty() || rng.uniform_int(0, 3) != 0) {
        const Position at{rng.uniform(-2.0 * kZone, 2.0 * kZone),
                          rng.uniform(-2.0 * kZone, 2.0 * kZone)};
        const double range = rng.uniform_int(0, 3) == 0
                                 ? rng.uniform(30'000.0, 120'000.0)
                                 : rng.uniform(500.0, 8'000.0);
        std::vector<std::uint64_t> ids(rng.uniform_int(1, 8));
        for (std::uint64_t& id : ids) {
          id = next_id++;
          singles.insert(site(id, at.x_m, at.y_m, range));
          live.push_back(site(id, at.x_m, at.y_m, range));
        }
        runs.insert_run(ids, at, range);
      } else {
        const std::size_t i = rng.uniform_int(0, live.size() - 1);
        const SiteEntry gone = live[i];
        live[i] = live.back();
        live.pop_back();
        ASSERT_TRUE(runs.erase(gone.id, gone.location));
        ASSERT_TRUE(singles.erase(gone.id, gone.location));
      }
      ASSERT_EQ(runs.size(), singles.size());
      ASSERT_EQ(runs.max_range_m(), singles.max_range_m());
      for (std::int32_t zx = kLo; zx <= kHi; ++zx) {
        for (std::int32_t zy = kLo; zy <= kHi; ++zy) {
          SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                       std::to_string(step) + " zone " + std::to_string(zx) +
                       "," + std::to_string(zy));
          const std::int64_t zone = zone_key_of(zx, zy);
          EXPECT_EQ(runs.zone_version(zone), singles.zone_version(zone));
          EXPECT_EQ(*runs.zone_members(zone), *singles.zone_members(zone));
          const Position centre{(zx + 0.5) * kZone, (zy + 0.5) * kZone};
          EXPECT_EQ(visits(runs, centre), visits(singles, centre));
        }
      }
      for (const SiteEntry& e : live) {
        ASSERT_EQ(visits(runs, e.location), visits(singles, e.location));
      }
    }
  }
}

}  // namespace
}  // namespace dlte::registry
