// Hierarchical TTL cache for the federated registry design (DESIGN.md
// §16).
//
// The paper's federated registry is "DNS-like", and this is the part of
// DNS that makes it planet-scale: a resolver hierarchy. A zone's
// membership snapshot (the grant ids whose reach touches the zone) is
// cached at three tiers — per-requester local, per-zone, and one root —
// each with its own TTL. A lookup walks local → zone → root and falls
// through to the authoritative registry on a full miss; the snapshot
// fetched there refills every tier on the way back.
//
// Staleness is accounted deterministically: the authoritative side bumps
// a per-zone version on every membership change, and a cache serve whose
// stored version differs is a *stale serve* (counted, with the snapshot
// age recorded in a histogram) — cached answers are still served inside
// their TTL, exactly like DNS, but the simulation can measure how stale
// the network's view of the spectrum actually is.
//
// The root tier has finite capacity: at most `root_capacity` lookups may
// reach it per `capacity_window` of simulated time; beyond that the root
// *sheds* and the lookup falls back to the slower authoritative path.
// Shedding is the SLO symptom of an under-provisioned registry.
//
// The cache is clock-free (every method takes `now`) and spectrum-free
// (snapshots are bare grant ids) so it unit-tests without a simulator.
// Its one client is spectrum::Registry::zone_occupancy, which reports a
// served snapshot's member count.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/metrics.h"
#include "registry/spatial.h"

namespace dlte::registry {

struct CacheConfig {
  Duration local_ttl{Duration::seconds(2.0)};
  Duration zone_ttl{Duration::seconds(10.0)};
  Duration root_ttl{Duration::seconds(60.0)};
  // Lookups admitted to the root tier per capacity window; the lookup
  // exactly at capacity is still served, the next one sheds.
  std::uint32_t root_capacity{256};
  Duration capacity_window{Duration::seconds(1.0)};
  // Serve latencies by tier: the delay of an occupancy reply the tier
  // answers (the cache itself is synchronous). Authoritative/shed
  // lookups pay the registry's own query latency instead.
  Duration local_latency{Duration::millis(5)};
  Duration zone_latency{Duration::millis(40)};
  Duration root_latency{Duration::millis(80)};
};

enum class CacheTier : std::uint8_t {
  kLocal = 0,
  kZone = 1,
  kRoot = 2,
  kAuthoritative = 3,  // Full miss: nothing fresh anywhere.
  kShed = 4,           // Root over capacity: authoritative fallback.
};

struct CacheLookup {
  CacheTier tier{CacheTier::kAuthoritative};
  bool stale{false};    // Served snapshot's version != authoritative.
  double age_ms{0.0};   // Snapshot age at serve time.
  ZoneSnapshot snapshot;  // Null on kAuthoritative / kShed.
};

class LeaseCache {
 public:
  explicit LeaseCache(CacheConfig config = {});

  // Walk the hierarchy for `(requester, zone)`. `version` is the current
  // authoritative version of the zone (for staleness accounting only —
  // a stale entry inside its TTL is still served). Serving from a higher
  // tier refills the tiers below with the same snapshot, keeping its
  // original fill time so staleness keeps aging.
  [[nodiscard]] CacheLookup lookup(std::uint64_t requester, std::int64_t zone,
                                   std::uint64_t version, TimePoint now);

  // Install an authoritative snapshot at every tier (the refill after a
  // kAuthoritative miss).
  void fill(std::uint64_t requester, std::int64_t zone, std::uint64_t version,
            ZoneSnapshot snapshot, TimePoint now);

  [[nodiscard]] Duration tier_latency(CacheTier tier) const;

  // Deterministic tallies, into metrics when attached:
  // counters `<prefix>registry.cache.hits_local` / `.hits_zone` /
  // `.hits_root`, `.misses`, `.stale_serves`, `.root_sheds`; histogram
  // `.staleness_ms` (age of every cache-served snapshot). Null-safe.
  void set_metrics(obs::MetricsRegistry* metrics,
                   const std::string& prefix = "");

 private:
  struct Entry {
    std::uint64_t version{0};
    TimePoint filled_at{};
    ZoneSnapshot snapshot;
  };

  [[nodiscard]] static bool fresh(const Entry& entry, Duration ttl,
                                  TimePoint now) {
    return entry.snapshot != nullptr && now - entry.filled_at <= ttl;
  }
  CacheLookup serve(CacheTier tier, const Entry& entry, std::uint64_t version,
                    TimePoint now);
  // One root admission per call; true when over capacity (shed).
  bool root_over_capacity(TimePoint now);

  CacheConfig config_;
  // std::map (not unordered) so any future iteration is ordered; lookups
  // are keyed by exact ids either way.
  std::map<std::pair<std::uint64_t, std::int64_t>, Entry> local_;
  std::map<std::int64_t, Entry> zone_;
  std::map<std::int64_t, Entry> root_;

  TimePoint window_start_{};
  std::uint32_t window_lookups_{0};

  obs::Counter* m_hits_local_{nullptr};
  obs::Counter* m_hits_zone_{nullptr};
  obs::Counter* m_hits_root_{nullptr};
  obs::Counter* m_misses_{nullptr};
  obs::Counter* m_stale_serves_{nullptr};
  obs::Counter* m_root_sheds_{nullptr};
  obs::Histogram* m_staleness_ms_{nullptr};
};

}  // namespace dlte::registry
