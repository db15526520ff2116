// Pinned dlte-series-v1 bytes. The merged series document of two small
// scenarios is hashed (FNV-1a, as perfbench hashes its metrics) and
// compared with digests recorded before the sampler's storage was last
// rewritten: any change to the sampler, its ring or the exporter that
// moves one byte of series.json fails here, at 1 and at 4 shards.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/audit.h"
#include "par/registry_plane.h"
#include "par/town.h"

namespace dlte::par {
namespace {

std::string digest(const std::string& text) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64,
                obs::fnv_bytes(text.data(), text.size()));
  return buf;
}

std::string town_series(std::size_t shards) {
  TownConfig cfg;
  cfg.aps = 16;
  cfg.ues_per_ap = 8;
  cfg.shards = shards;
  cfg.threads = shards;
  cfg.seed = 42;
  cfg.horizon = Duration::seconds(1.0);
  cfg.sample_interval = Duration::millis(100);
  ShardedTown town{cfg};
  town.run();
  return town.runtime().merged_series_json("series_digest");
}

std::string registry_plane_series(std::size_t shards) {
  RegistryPlaneConfig cfg;
  cfg.blocks = 12;
  cfg.leases_per_block = 40;
  cfg.zones_x = 2;
  cfg.zones_y = 2;
  cfg.shards = shards;
  cfg.threads = shards;
  cfg.horizon = Duration::seconds(60.0);
  cfg.lease_lifetime = Duration::seconds(8.0);
  cfg.heartbeat_grace = Duration::seconds(4.0);
  cfg.heartbeat_interval = Duration::seconds(5.0);
  cfg.query_interval = Duration::seconds(2.0);
  cfg.regrant_backoff = Duration::seconds(3.0);
  cfg.storm_zone = 0;
  cfg.outage_at = Duration::seconds(15.0);
  cfg.outage_duration = Duration::seconds(20.0);
  RegistryPlaneScenario plane{cfg};
  plane.run();
  return plane.runtime().merged_series_json("series_digest",
                                            plane.monitor());
}

constexpr const char* kTownDigest = "806e9c36fc141510";
constexpr const char* kRegistryPlaneDigest = "cdbaa4094bfa38b6";

TEST(SeriesDigest, ShardedTownIsPinned) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const std::string json = town_series(shards);
    EXPECT_NE(json.find("\"ap15.attach.ms.p95\""), std::string::npos);
    EXPECT_EQ(digest(json), kTownDigest) << "shards=" << shards;
  }
}

TEST(SeriesDigest, RegistryPlaneWithSloMonitorIsPinned) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const std::string json = registry_plane_series(shards);
    EXPECT_NE(json.find("\"event\":\"fire\""), std::string::npos);
    EXPECT_NE(json.find("\"event\":\"resolve\""), std::string::npos);
    EXPECT_EQ(digest(json), kRegistryPlaneDigest) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace dlte::par
