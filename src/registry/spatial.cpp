#include "registry/spatial.h"

#include <algorithm>

namespace dlte::registry {

using detail::axis_zone;
using detail::point_to_square_m;

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
  touch_reached_zones(location, range_m,
                      static_cast<std::int64_t>(ids.size()));
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
    touch_reached_zones(gone.location, gone.range_m, -1);
    return true;
  }
  return false;
}

void SpatialIndex::touch_reached_zones(Position p, double r,
                                       std::int64_t delta) {
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
      m.version += static_cast<std::uint64_t>(delta < 0 ? -delta : delta);
      m.count += static_cast<std::uint64_t>(delta);
      m.members.reset();
    }
  }
}

ZoneSnapshot SpatialIndex::zone_members(std::int64_t zone) const {
  Membership& m = membership_[zone];
  if (m.members == nullptr) {
    auto ids = std::make_shared<std::vector<std::uint64_t>>();
    ids->reserve(m.count);
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

}  // namespace dlte::registry
