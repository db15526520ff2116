#include "registry/spatial.h"

#include <algorithm>
#include <cmath>

namespace dlte::registry {
namespace {

std::int32_t axis_zone(double v, double zone_size_m) {
  return static_cast<std::int32_t>(std::floor(v / zone_size_m));
}

// Distance from a point to the closed axis-aligned square
// [x0, x0+s] × [y0, y0+s]; zero when the point is inside.
double point_to_square_m(Position p, double x0, double y0, double s) {
  const double dx = std::max({x0 - p.x_m, 0.0, p.x_m - (x0 + s)});
  const double dy = std::max({y0 - p.y_m, 0.0, p.y_m - (y0 + s)});
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace

std::int64_t zone_key_of(std::int32_t zx, std::int32_t zy) {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(zx)) << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(zy)));
}

std::int64_t zone_key(Position location, double zone_size_m) {
  return zone_key_of(axis_zone(location.x_m, zone_size_m),
                     axis_zone(location.y_m, zone_size_m));
}

SpatialIndex::SpatialIndex(double zone_size_m) : zone_size_m_(zone_size_m) {}

void SpatialIndex::insert(const SiteEntry& entry) {
  insert_run({&entry.id, 1}, entry.location, entry.range_m);
}

void SpatialIndex::insert_run(std::span<const std::uint64_t> ids,
                              Position location, double range_m) {
  if (ids.empty()) return;
  Zone& zone = zones_[zone_key(location, zone_size_m_)];
  // No reserve: an exact fit per run would defeat the vector's geometric
  // growth across the many runs a zone takes.
  for (const std::uint64_t id : ids) {
    zone.entries.push_back(SiteEntry{id, location, range_m});
  }
  zone.max_range_m = std::max(zone.max_range_m, range_m);
  max_range_m_ = std::max(max_range_m_, range_m);
  size_ += ids.size();
  touch_reached_zones(location, range_m, ids.size());
}

bool SpatialIndex::erase(std::uint64_t id, Position location) {
  const auto zit = zones_.find(zone_key(location, zone_size_m_));
  if (zit == zones_.end()) return false;
  std::vector<SiteEntry>& entries = zit->second.entries;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].id != id) continue;
    // Order inside a zone carries no meaning (callers sort by id), so
    // swap-pop keeps the removal O(1). The zone's max reach stays
    // conservative — like max_range_m_ it never shrinks.
    const SiteEntry gone = entries[i];
    entries[i] = entries.back();
    entries.pop_back();
    if (entries.empty()) zones_.erase(zit);
    --size_;
    touch_reached_zones(gone.location, gone.range_m, 1);
    return true;
  }
  return false;
}

void SpatialIndex::touch_reached_zones(Position p, double r,
                                       std::uint64_t changes) {
  // The entry's bounding box, widened by one zone on every side so that
  // rounding in axis_zone can never drop a zone the exact test accepts.
  const std::int32_t zx0 = axis_zone(p.x_m - r, zone_size_m_) - 1;
  const std::int32_t zx1 = axis_zone(p.x_m + r, zone_size_m_) + 1;
  const std::int32_t zy0 = axis_zone(p.y_m - r, zone_size_m_) - 1;
  const std::int32_t zy1 = axis_zone(p.y_m + r, zone_size_m_) + 1;
  for (std::int32_t zx = zx0; zx <= zx1; ++zx) {
    for (std::int32_t zy = zy0; zy <= zy1; ++zy) {
      // Same expression as for_each_touching_zone's filter, so the set of
      // touched zones is exactly the set whose membership changed.
      if (point_to_square_m(p, zx * zone_size_m_, zy * zone_size_m_,
                            zone_size_m_) > r) {
        continue;
      }
      Membership& m = membership_[zone_key_of(zx, zy)];
      m.version += changes;
      m.members.reset();
    }
  }
}

ZoneSnapshot SpatialIndex::zone_members(std::int64_t zone) const {
  Membership& m = membership_[zone];
  if (m.members == nullptr) {
    auto ids = std::make_shared<std::vector<std::uint64_t>>();
    for_each_touching_zone(zone,
                           [&](const SiteEntry& e) { ids->push_back(e.id); });
    std::sort(ids->begin(), ids->end());
    m.members = std::move(ids);
  }
  return m.members;
}

std::uint64_t SpatialIndex::zone_version(std::int64_t zone) const {
  const auto it = membership_.find(zone);
  return it == membership_.end() ? 0 : it->second.version;
}

void SpatialIndex::for_each_reaching(Position location,
                                     const Visitor& visit) const {
  if (zones_.empty()) return;
  // Only zones within the longest indexed reach can hold a match.
  const double r = max_range_m_;
  const std::int32_t zx0 = axis_zone(location.x_m - r, zone_size_m_);
  const std::int32_t zx1 = axis_zone(location.x_m + r, zone_size_m_);
  const std::int32_t zy0 = axis_zone(location.y_m - r, zone_size_m_);
  const std::int32_t zy1 = axis_zone(location.y_m + r, zone_size_m_);
  for (std::int32_t zx = zx0; zx <= zx1; ++zx) {
    for (std::int32_t zy = zy0; zy <= zy1; ++zy) {
      const auto it = zones_.find(zone_key_of(zx, zy));
      if (it == zones_.end()) continue;
      // Zone-level reject: skip when the zone's longest reach cannot
      // bridge the gap to the query point.
      const double gap =
          point_to_square_m(location, zx * zone_size_m_, zy * zone_size_m_,
                            zone_size_m_);
      if (gap > it->second.max_range_m) continue;
      for (const SiteEntry& entry : it->second.entries) {
        if (distance_m(entry.location, location) <= entry.range_m) {
          visit(entry);
        }
      }
    }
  }
}

void SpatialIndex::for_each_touching_zone(std::int64_t zone,
                                          const Visitor& visit) const {
  const auto zx = static_cast<std::int32_t>(
      static_cast<std::uint64_t>(zone) >> 32);
  const auto zy = static_cast<std::int32_t>(
      static_cast<std::uint64_t>(zone) & 0xffffffffULL);
  const double x0 = zx * zone_size_m_;
  const double y0 = zy * zone_size_m_;
  // An entry reaching into [x0,x0+s]² lies within max_range_m_ of it, so
  // scan the zones overlapping the square inflated by that bound.
  const std::int32_t ix0 = axis_zone(x0 - max_range_m_, zone_size_m_);
  const std::int32_t ix1 = axis_zone(x0 + zone_size_m_ + max_range_m_,
                                     zone_size_m_);
  const std::int32_t iy0 = axis_zone(y0 - max_range_m_, zone_size_m_);
  const std::int32_t iy1 = axis_zone(y0 + zone_size_m_ + max_range_m_,
                                     zone_size_m_);
  for (std::int32_t ix = ix0; ix <= ix1; ++ix) {
    for (std::int32_t iy = iy0; iy <= iy1; ++iy) {
      const auto it = zones_.find(zone_key_of(ix, iy));
      if (it == zones_.end()) continue;
      for (const SiteEntry& entry : it->second.entries) {
        if (point_to_square_m(entry.location, x0, y0, zone_size_m_) <=
            entry.range_m) {
          visit(entry);
        }
      }
    }
  }
}

}  // namespace dlte::registry
