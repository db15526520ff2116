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

#include <cstdint>
#include <functional>
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

  using Visitor = std::function<void(const SiteEntry&)>;

  // Every entry whose own reach covers `location` (the grants_near
  // predicate): distance(entry, location) <= entry.range_m.
  void for_each_reaching(Position location, const Visitor& visit) const;

  // Every entry whose reach touches the axis-aligned square of `zone`
  // (a packed zone_key) — the membership snapshot the hierarchical
  // cache serves for that zone.
  void for_each_touching_zone(std::int64_t zone, const Visitor& visit) const;

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

  // Add `changes` to the version and drop the memo of every zone whose
  // square a reach of `r` from `p` touches — for_each_touching_zone's
  // predicate seen from the entry's side. max_range_m_ only bounds that
  // scan, so it never invalidates anything.
  void touch_reached_zones(Position p, double r, std::uint64_t changes);

  struct Membership {
    std::uint64_t version{0};
    ZoneSnapshot members;  // Null until built, and after a touch.
  };

  double zone_size_m_;
  double max_range_m_{0.0};
  std::size_t size_{0};
  std::unordered_map<std::int64_t, Zone> zones_;
  // Per packed zone key; entries persist once a zone is touched or read.
  mutable std::unordered_map<std::int64_t, Membership> membership_;
};

}  // namespace dlte::registry
