// RegistryPlaneScenario: the planet-scale registry experiment on the
// parallel runtime (DESIGN.md §16).
//
// Shard 0 hosts the authoritative spectrum::Registry (federated design,
// zone-bucketed spatial index, hierarchical lease cache) plus the fault
// injector and the SLO monitor; every other endpoint is a
// workload::LeaseChurnStorm block — a neighbourhood of APs keeping ~1k
// leases alive in bulk. Blocks are block-partitioned across shards, so
// all registry traffic (grant batches, heartbeat batches, occupancy
// queries, and their replies) crosses the runtime's barrier exchange:
// this is the first scenario where the message plane is load-bearing
// rather than decorative.
//
// Mid-run, one zone's registrar goes dark for longer than the heartbeat
// grace: its blocks' heartbeats fail, their leases lapse, and their
// re-applications bounce until the heal — at which point every affected
// block re-applies at once (the churn storm). The SLO monitor on shard 0
// watches the registry's own symptom counters, so the alert timeline
// rides inside the merged series document and is byte-identical at any
// shard count.
//
// Determinism contract (same as ShardedTown/Metro): registry state and
// its metrics live only on shard 0, and NO metric name spans shards —
// the audit plane digests each shard's registry per window, so a name
// incremented from two shards would diverge across partitions even
// though its merged total agrees. Client-side tallies are plain
// LeaseChurnStorm members summed after the run. All cross-endpoint
// interaction goes through post(). Merged metrics, series (with
// alerts), openmetrics, and audit artifacts byte-match across 1/2/4
// shards — bench_c12_registry_scale's gate.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/slo.h"
#include "par/sharded_sim.h"
#include "registry/cache.h"

namespace dlte::par {

struct RegistryPlaneConfig {
  int blocks{64};            // LeaseChurnStorm actors.
  int leases_per_block{256};  // blocks × leases_per_block total leases.
  int zones_x{4};            // Zone grid (kZoneSizeM squares).
  int zones_y{4};
  std::size_t shards{1};
  std::size_t threads{0};  // 0 → one thread per shard.
  std::uint64_t seed{42};
  Duration horizon{Duration::seconds(75.0)};
  // Lease terms: lifetime + grace bound how long a zone outage can last
  // before its leases lapse.
  Duration lease_lifetime{Duration::seconds(15.0)};
  Duration heartbeat_grace{Duration::seconds(10.0)};
  Duration heartbeat_interval{Duration::seconds(10.0)};
  Duration query_interval{Duration::seconds(2.0)};
  Duration regrant_backoff{Duration::seconds(4.0)};
  // One-way block↔registrar latency — the runtime lookahead.
  Duration registry_delay{Duration::millis(5)};
  // The storm: this zone's registrar goes offline at `outage_at` for
  // `outage_duration` (> lifetime + grace ⇒ mass lapse + re-grant).
  int storm_zone{0};
  Duration outage_at{Duration::seconds(20.0)};
  Duration outage_duration{Duration::seconds(30.0)};
  registry::CacheConfig cache;
  Duration sample_interval{Duration::millis(500)};
  Duration slo_interval{Duration::millis(500)};
  bool audit{false};
  Duration audit_window{Duration::millis(500)};
  bool profile{false};
};

struct RegistryPlaneResult {
  std::uint64_t grants_issued{0};
  std::uint64_t grant_failures{0};
  std::uint64_t heartbeats_ok{0};
  std::uint64_t heartbeats_failed{0};
  std::uint64_t grants_lapsed{0};
  std::uint64_t regrant_batches{0};
  std::uint64_t grant_rejections{0};  // Grant batches bounced whole.
  std::uint64_t queries_answered{0};
  std::uint64_t cache_hits{0};
  std::uint64_t cache_misses{0};
  std::uint64_t cache_stale_serves{0};
  std::uint64_t cache_root_sheds{0};
  std::uint64_t leases_held{0};  // Across all blocks at the horizon.
  std::uint64_t windows{0};
  std::uint64_t messages{0};
  std::uint64_t events_executed{0};
  double sim_seconds{0.0};
  bool outage_alert_fired{0};
  bool outage_alert_resolved{0};
};

class RegistryPlaneScenario {
 public:
  explicit RegistryPlaneScenario(RegistryPlaneConfig config);
  RegistryPlaneScenario(const RegistryPlaneScenario&) = delete;
  RegistryPlaneScenario& operator=(const RegistryPlaneScenario&) = delete;
  ~RegistryPlaneScenario();

  // Build (first call) and run to the configured horizon.
  RegistryPlaneResult run();

  [[nodiscard]] ShardedSimulator& runtime() { return runtime_; }
  // The shard-0 churn SLO monitor (built by the first run()); pass it to
  // runtime().merged_series_json() to embed its rules/alerts/health.
  [[nodiscard]] const obs::SloMonitor* monitor() const {
    return monitor_.get();
  }

  // Zone index (0 .. zones_x*zones_y-1) of a block — pure function of
  // the config, like MetroScenario::district_of.
  [[nodiscard]] int zone_of_block(int block) const;

 private:
  struct Block;
  struct RegistryNode;
  void build();
  void handle_registry_message(const Message& m);

  RegistryPlaneConfig config_;
  ShardedSimulator runtime_;
  std::unique_ptr<RegistryNode> registry_;
  std::vector<std::unique_ptr<Block>> blocks_;
  std::unique_ptr<obs::SloMonitor> monitor_;
  bool built_{false};
};

}  // namespace dlte::par
