#include "registry/cache.h"

namespace dlte::registry {

LeaseCache::LeaseCache(CacheConfig config) : config_(config) {}

Duration LeaseCache::tier_latency(CacheTier tier) const {
  switch (tier) {
    case CacheTier::kLocal:
      return config_.local_latency;
    case CacheTier::kZone:
      return config_.zone_latency;
    case CacheTier::kRoot:
      return config_.root_latency;
    default:
      return {};
  }
}

CacheLookup LeaseCache::serve(CacheTier tier, const Entry& entry,
                              std::uint64_t version, TimePoint now) {
  CacheLookup out;
  out.tier = tier;
  out.stale = entry.version != version;
  out.age_ms = (now - entry.filled_at).to_millis();
  out.snapshot = entry.snapshot;
  switch (tier) {
    case CacheTier::kLocal:
      obs::inc(m_hits_local_);
      break;
    case CacheTier::kZone:
      obs::inc(m_hits_zone_);
      break;
    default:
      obs::inc(m_hits_root_);
      break;
  }
  if (out.stale) obs::inc(m_stale_serves_);
  obs::observe(m_staleness_ms_, out.age_ms);
  return out;
}

bool LeaseCache::root_over_capacity(TimePoint now) {
  // The window grid is anchored at t=0 (like the par runtime's barrier
  // windows), so admission is a pure function of simulated time — not of
  // when the first lookup of a window happened.
  const std::int64_t window_ns = config_.capacity_window.ns();
  if (window_ns > 0) {
    const std::int64_t start = (now.ns() / window_ns) * window_ns;
    if (start != window_start_.ns()) {
      window_start_ = TimePoint::from_ns(start);
      window_lookups_ = 0;
    }
  }
  ++window_lookups_;
  return window_lookups_ > config_.root_capacity;
}

CacheLookup LeaseCache::lookup(std::uint64_t requester, std::int64_t zone,
                               std::uint64_t version, TimePoint now) {
  const auto lit = local_.find({requester, zone});
  if (lit != local_.end() && fresh(lit->second, config_.local_ttl, now)) {
    return serve(CacheTier::kLocal, lit->second, version, now);
  }
  const auto zit = zone_.find(zone);
  if (zit != zone_.end() && fresh(zit->second, config_.zone_ttl, now)) {
    // Refill the local tier with the zone's snapshot (original fill time
    // kept: propagation must not launder staleness).
    local_[{requester, zone}] = zit->second;
    return serve(CacheTier::kZone, zit->second, version, now);
  }
  // Reaching the root consumes capacity whether or not the entry is
  // fresh — the lookup itself is the load being shed.
  if (root_over_capacity(now)) {
    obs::inc(m_root_sheds_);
    CacheLookup out;
    out.tier = CacheTier::kShed;
    return out;
  }
  const auto rit = root_.find(zone);
  if (rit != root_.end() && fresh(rit->second, config_.root_ttl, now)) {
    zone_[zone] = rit->second;
    local_[{requester, zone}] = rit->second;
    return serve(CacheTier::kRoot, rit->second, version, now);
  }
  obs::inc(m_misses_);
  return CacheLookup{};
}

void LeaseCache::fill(std::uint64_t requester, std::int64_t zone,
                      std::uint64_t version, ZoneSnapshot snapshot,
                      TimePoint now) {
  const Entry entry{version, now, std::move(snapshot)};
  root_[zone] = entry;
  zone_[zone] = entry;
  local_[{requester, zone}] = entry;
}

void LeaseCache::set_metrics(obs::MetricsRegistry* metrics,
                             const std::string& prefix) {
  if (metrics == nullptr) {
    m_hits_local_ = nullptr;
    m_hits_zone_ = nullptr;
    m_hits_root_ = nullptr;
    m_misses_ = nullptr;
    m_stale_serves_ = nullptr;
    m_root_sheds_ = nullptr;
    m_staleness_ms_ = nullptr;
    return;
  }
  m_hits_local_ = &metrics->counter(prefix + "registry.cache.hits_local");
  m_hits_zone_ = &metrics->counter(prefix + "registry.cache.hits_zone");
  m_hits_root_ = &metrics->counter(prefix + "registry.cache.hits_root");
  m_misses_ = &metrics->counter(prefix + "registry.cache.misses");
  m_stale_serves_ = &metrics->counter(prefix + "registry.cache.stale_serves");
  m_root_sheds_ = &metrics->counter(prefix + "registry.cache.root_sheds");
  m_staleness_ms_ = &metrics->histogram(prefix + "registry.cache.staleness_ms");
}

}  // namespace dlte::registry
