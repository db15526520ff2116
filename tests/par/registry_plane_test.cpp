// RegistryPlaneScenario: the churn storm must produce its symptom chain
// (heartbeat failures → lapses → re-grant storm → SLO alert + resolve)
// and every merged artifact must be byte-identical at any shard count —
// the contract bench_c12_registry_scale gates at full scale.
#include "par/registry_plane.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/audit_export.h"

namespace dlte::par {
namespace {

RegistryPlaneConfig small_config(std::size_t shards) {
  RegistryPlaneConfig config;
  config.blocks = 12;
  config.leases_per_block = 40;
  config.zones_x = 2;
  config.zones_y = 2;
  config.shards = shards;
  config.threads = shards;
  config.horizon = Duration::seconds(60.0);
  config.lease_lifetime = Duration::seconds(8.0);
  config.heartbeat_grace = Duration::seconds(4.0);
  config.heartbeat_interval = Duration::seconds(5.0);
  config.query_interval = Duration::seconds(2.0);
  config.regrant_backoff = Duration::seconds(3.0);
  config.storm_zone = 0;
  config.outage_at = Duration::seconds(15.0);
  config.outage_duration = Duration::seconds(20.0);
  config.audit = true;
  return config;
}

struct RunOutput {
  RegistryPlaneResult result;
  std::string metrics;
  std::string series;
  std::string openmetrics;
  std::string audit;
};

RunOutput run_plane(std::size_t shards) {
  RegistryPlaneScenario plane{small_config(shards)};
  RunOutput out;
  out.result = plane.run();
  out.metrics = plane.runtime().merged_metrics_json();
  out.series = plane.runtime().merged_series_json("registry_plane_test",
                                                  plane.monitor());
  out.openmetrics = plane.runtime().merged_openmetrics_text();
  // Partition-invariant section only: per-shard chains legitimately
  // differ across shard counts.
  out.audit = obs::AuditExporter::merged_json(plane.runtime().audit_doc());
  return out;
}

TEST(RegistryPlaneTest, ChurnStormSymptomChain) {
  const RunOutput out = run_plane(1);
  const auto& r = out.result;
  // Initial mass grant: every block fills its quota.
  EXPECT_GE(r.grants_issued, 12u * 40u);
  EXPECT_GT(r.heartbeats_ok, 0u);
  // The outage (20 s) outlives lifetime+grace (12 s): the storm zone's
  // leases must lapse and its blocks must re-apply.
  EXPECT_GT(r.heartbeats_failed, 0u);
  EXPECT_GT(r.grants_lapsed, 0u);
  EXPECT_GT(r.regrant_batches, 0u);
  EXPECT_GT(r.grant_failures, 0u);  // Re-applications bounce mid-outage.
  // After the heal (t=35 s) there is time to re-grant: every block ends
  // the run with its full quota again.
  EXPECT_EQ(r.leases_held, 12u * 40u);
  // Query plane exercised the cache.
  EXPECT_GT(r.queries_answered, 0u);
  EXPECT_GT(r.cache_hits + r.cache_misses, 0u);
  // The SLO timeline: the churn alert fired during the outage and
  // resolved after the heal.
  EXPECT_TRUE(r.outage_alert_fired);
  EXPECT_TRUE(r.outage_alert_resolved);
}

TEST(RegistryPlaneTest, ShardCountsProduceByteIdenticalArtifacts) {
  const RunOutput base = run_plane(1);
  for (const std::size_t shards : {2u, 3u}) {
    const RunOutput out = run_plane(shards);
    EXPECT_EQ(out.metrics, base.metrics) << "shards=" << shards;
    EXPECT_EQ(out.series, base.series) << "shards=" << shards;
    EXPECT_EQ(out.openmetrics, base.openmetrics) << "shards=" << shards;
    EXPECT_EQ(out.audit, base.audit) << "shards=" << shards;
    EXPECT_EQ(out.result.grants_issued, base.result.grants_issued);
    EXPECT_EQ(out.result.grants_lapsed, base.result.grants_lapsed);
    EXPECT_EQ(out.result.leases_held, base.result.leases_held);
    EXPECT_EQ(out.result.queries_answered, base.result.queries_answered);
  }
}

TEST(RegistryPlaneTest, RepeatRunsAreByteIdentical) {
  const RunOutput a = run_plane(2);
  const RunOutput b = run_plane(2);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.series, b.series);
  EXPECT_EQ(a.audit, b.audit);
}

TEST(RegistryPlaneTest, QuietZonesKeepTheirLeases) {
  // Outage short enough that every block's first post-heal heartbeat
  // (t = 20s + phase) lands before its lapse due (last renewal at
  // 10s + phase, + lifetime 8 + grace 4 = 22s + phase): heartbeats fail
  // during the dark window but no lease lapses — the grace absorbs it.
  auto config = small_config(1);
  config.outage_duration = Duration::seconds(4.0);
  config.horizon = Duration::seconds(40.0);
  RegistryPlaneScenario plane{config};
  const auto r = plane.run();
  EXPECT_GT(r.heartbeats_failed, 0u);
  EXPECT_EQ(r.grants_lapsed, 0u);
  EXPECT_EQ(r.leases_held, 12u * 40u);
}

}  // namespace
}  // namespace dlte::par
