// Zone-bucketed spatial index for planet-scale grant lookup (DESIGN.md
// §16).
//
// spectrum::Registry's flat vector makes every region query an O(n)
// scan — fine for a town, hopeless for the millions of leases ROADMAP
// item 4 asks for. This index partitions the plane into kZoneSizeM-sized
// grid zones (the same coarse grid the federated registry uses as its
// failure domain). A query then touches only the zones within the
// largest interference reach of any indexed entry.
//
// Zone membership (the entries whose reach touches a zone's square) is
// memoized per zone and carries a version. Both are maintained at the one
// place membership can change: insert/erase bump the version and drop the
// memo of exactly the zones the entry's reach touches, so a snapshot is
// rebuilt only after a change that can alter it.
//
// Determinism: zones are visited in a fixed (zx ascending, zy ascending)
// order and a zone's entries in insertion order (an erase moves the
// zone's last entry into the gap), so a visit sequence is a pure
// function of the insert/erase history. Callers that need a
// canonical result order sort by id — the index itself promises only
// "every matching entry exactly once".
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/geo.h"

namespace dlte::registry {

// Packed (zx, zy) grid coordinate of `location` on a `zone_size_m` grid.
// Exact (32 bits per axis), so distinct zones never collide — cache,
// index and federated failure-domain keys must not merge unrelated zones.
[[nodiscard]] std::int64_t zone_key(Position location, double zone_size_m);
[[nodiscard]] std::int64_t zone_key_of(std::int32_t zx, std::int32_t zy);

namespace detail {

inline std::int32_t axis_zone(double v, double zone_size_m) {
  return static_cast<std::int32_t>(std::floor(v / zone_size_m));
}

// Distance from a point to the closed axis-aligned square
// [x0, x0+s] × [y0, y0+s]; zero when the point is inside.
inline double point_to_square_m(Position p, double x0, double y0, double s) {
  const double dx = std::max({x0 - p.x_m, 0.0, p.x_m - (x0 + s)});
  const double dy = std::max({y0 - p.y_m, 0.0, p.y_m - (y0 + s)});
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace detail

// Immutable shared snapshot of one zone's membership: grant ids,
// ascending. Shared_ptr because the same snapshot is referenced from the
// index's memo, all three LeaseCache tiers, and every requester's local
// entry — at millions of leases, copying id vectors would dominate memory.
using ZoneSnapshot = std::shared_ptr<const std::vector<std::uint64_t>>;

// What the index knows about a grant: identity, placement and precomputed
// interference reach. The owner (spectrum::Registry)
// maps ids back to full grants; keeping the entry POD-small means a
// zone scan stays cache-friendly at millions of leases.
struct SiteEntry {
  std::uint64_t id{0};
  Position location;
  double range_m{0.0};  // Interference reach (precomputed, metres).
};

class SpatialIndex {
 public:
  explicit SpatialIndex(double zone_size_m = 50'000.0);

  void insert(const SiteEntry& entry);
  // Index a run of entries that share one location and one reach, in id
  // order: one zone lookup and one pass over the reached zones, each of
  // whose versions moves by ids.size(). Same entries, zone order,
  // versions and memo drops as inserting them one at a time.
  void insert_run(std::span<const std::uint64_t> ids, Position location,
                  double range_m);
  // Erase by id; `location` routes the lookup to the owning zone.
  // Returns false when no such entry is indexed there.
  bool erase(std::uint64_t id, Position location);

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] double zone_size_m() const { return zone_size_m_; }
  // Largest reach ever indexed — the scan radius bound. Monotone (never
  // shrinks on erase): a conservative bound keeps the visited-zone set a
  // deterministic function of insert history alone.
  [[nodiscard]] double max_range_m() const { return max_range_m_; }

  // The visitors take any callable on `const SiteEntry&`, called inline
  // per match: a zone snapshot rebuild visits every member.

  // Every entry whose own reach covers `location` (the grants_near
  // predicate): distance(entry, location) <= entry.range_m.
  template <typename Visit>
  void for_each_reaching(Position location, Visit&& visit) const;

  // Every entry whose reach touches the axis-aligned square of `zone`
  // (a packed zone_key) — the membership snapshot the hierarchical
  // cache serves for that zone.
  template <typename Visit>
  void for_each_touching_zone(std::int64_t zone, Visit&& visit) const;

  // for_each_touching_zone's ids for `zone`, ascending. Memoized: the
  // scan runs only on the first call after an insert/erase whose reach
  // touches the zone; until then every call returns the same pointer.
  [[nodiscard]] ZoneSnapshot zone_members(std::int64_t zone) const;
  // Membership version of `zone`: the number of inserts/erases whose
  // reach touched its square (0 for a zone no entry ever reached). The
  // lease cache accounts a serve as stale when this has moved on.
  [[nodiscard]] std::uint64_t zone_version(std::int64_t zone) const;

 private:
  // A zone caches the largest reach of its members so a whole zone can
  // be skipped without touching its entries.
  struct Zone {
    double max_range_m{0.0};
    std::vector<SiteEntry> entries;
  };

  // Move the member count by `delta` and the version by its magnitude,
  // and drop the memo, of every zone whose square a reach of `r` from
  // `p` touches — for_each_touching_zone's predicate seen from the
  // entry's side. max_range_m_ only bounds that scan, so it never
  // invalidates anything.
  void touch_reached_zones(Position p, double r, std::int64_t delta);

  struct Membership {
    std::uint64_t version{0};
    // Entries whose reach touches the zone: the size the next snapshot
    // reserves.
    std::uint64_t count{0};
    ZoneSnapshot members;  // Null until built, and after a touch.
  };

  double zone_size_m_;
  double max_range_m_{0.0};
  std::size_t size_{0};
  std::unordered_map<std::int64_t, Zone> zones_;
  // Per packed zone key; entries persist once a zone is touched or read.
  mutable std::unordered_map<std::int64_t, Membership> membership_;
};

template <typename Visit>
void SpatialIndex::for_each_reaching(Position location, Visit&& visit) const {
  if (zones_.empty()) return;
  // Only zones within the longest indexed reach can hold a match.
  const double r = max_range_m_;
  const std::int32_t zx0 = detail::axis_zone(location.x_m - r, zone_size_m_);
  const std::int32_t zx1 = detail::axis_zone(location.x_m + r, zone_size_m_);
  const std::int32_t zy0 = detail::axis_zone(location.y_m - r, zone_size_m_);
  const std::int32_t zy1 = detail::axis_zone(location.y_m + r, zone_size_m_);
  for (std::int32_t zx = zx0; zx <= zx1; ++zx) {
    for (std::int32_t zy = zy0; zy <= zy1; ++zy) {
      const auto it = zones_.find(zone_key_of(zx, zy));
      if (it == zones_.end()) continue;
      // Zone-level reject: skip when the zone's longest reach cannot
      // bridge the gap to the query point.
      const double gap = detail::point_to_square_m(
          location, zx * zone_size_m_, zy * zone_size_m_, zone_size_m_);
      if (gap > it->second.max_range_m) continue;
      for (const SiteEntry& entry : it->second.entries) {
        if (distance_m(entry.location, location) <= entry.range_m) {
          visit(entry);
        }
      }
    }
  }
}

template <typename Visit>
void SpatialIndex::for_each_touching_zone(std::int64_t zone,
                                          Visit&& visit) const {
  const auto zx = static_cast<std::int32_t>(
      static_cast<std::uint64_t>(zone) >> 32);
  const auto zy = static_cast<std::int32_t>(
      static_cast<std::uint64_t>(zone) & 0xffffffffULL);
  const double x0 = zx * zone_size_m_;
  const double y0 = zy * zone_size_m_;
  // An entry reaching into [x0,x0+s]² lies within max_range_m_ of it, so
  // scan the zones overlapping the square inflated by that bound.
  const std::int32_t ix0 = detail::axis_zone(x0 - max_range_m_, zone_size_m_);
  const std::int32_t ix1 = detail::axis_zone(
      x0 + zone_size_m_ + max_range_m_, zone_size_m_);
  const std::int32_t iy0 = detail::axis_zone(y0 - max_range_m_, zone_size_m_);
  const std::int32_t iy1 = detail::axis_zone(
      y0 + zone_size_m_ + max_range_m_, zone_size_m_);
  for (std::int32_t ix = ix0; ix <= ix1; ++ix) {
    for (std::int32_t iy = iy0; iy <= iy1; ++iy) {
      const auto it = zones_.find(zone_key_of(ix, iy));
      if (it == zones_.end()) continue;
      for (const SiteEntry& entry : it->second.entries) {
        if (detail::point_to_square_m(entry.location, x0, y0,
                                      zone_size_m_) <= entry.range_m) {
          visit(entry);
        }
      }
    }
  }
}

}  // namespace dlte::registry
