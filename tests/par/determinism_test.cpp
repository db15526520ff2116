#include <gtest/gtest.h>

#include <string>

#include "par/town.h"

namespace dlte::par {
namespace {

TownConfig town_config(std::size_t shards, std::size_t threads) {
  TownConfig cfg;
  cfg.aps = 8;
  cfg.ues_per_ap = 4;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.seed = 42;
  cfg.horizon = Duration::seconds(2.0);
  cfg.report_interval = Duration::millis(100);
  cfg.backbone_delay = Duration::millis(5);
  cfg.sample_interval = Duration::millis(500);
  return cfg;
}

struct Artifacts {
  TownResult result;
  std::string metrics;
  std::string series;
  std::string openmetrics;
};

Artifacts run_town(std::size_t shards, std::size_t threads) {
  ShardedTown town{town_config(shards, threads)};
  Artifacts a;
  a.result = town.run();
  a.metrics = town.runtime().merged_metrics_json();
  a.series = town.runtime().merged_series_json("par_determinism");
  a.openmetrics = town.runtime().merged_openmetrics_text();
  return a;
}

TEST(ParDeterminism, TownDoesMeaningfulWork) {
  const Artifacts a = run_town(1, 1);
  EXPECT_EQ(a.result.attaches_completed, 8u * 4u);
  EXPECT_EQ(a.result.attaches_failed, 0u);
  // ~20 report rounds × 8 APs × 2 neighbours.
  EXPECT_GT(a.result.x2_reports_rx, 100u);
  EXPECT_GT(a.result.messages, 100u);
  EXPECT_GT(a.result.windows, 0u);
  EXPECT_NE(a.metrics.find("ap7.attach.ms"), std::string::npos);
  EXPECT_NE(a.series.find("dlte-series-v1"), std::string::npos);
  EXPECT_NE(a.openmetrics.find("# EOF"), std::string::npos);
}

// The tentpole guarantee: the merged artifacts are byte-identical at any
// shard count and any worker-thread count.
TEST(ParDeterminism, ArtifactsAreByteIdenticalAcrossShardCounts) {
  const Artifacts one = run_town(1, 1);
  for (const std::size_t shards :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const Artifacts many = run_town(shards, shards);
    EXPECT_EQ(one.metrics, many.metrics) << "shards=" << shards;
    EXPECT_EQ(one.series, many.series) << "shards=" << shards;
    EXPECT_EQ(one.openmetrics, many.openmetrics) << "shards=" << shards;
    EXPECT_EQ(one.result.attaches_completed, many.result.attaches_completed);
    EXPECT_EQ(one.result.x2_reports_rx, many.result.x2_reports_rx);
  }
}

// 2 and 3 threads: the coordinator plus fewer workers than shards, so
// threads claim several shards each, in no fixed order.
TEST(ParDeterminism, ArtifactsAreByteIdenticalAcrossThreadCounts) {
  const Artifacts serial = run_town(4, 1);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    const Artifacts threaded = run_town(4, threads);
    EXPECT_EQ(serial.metrics, threaded.metrics) << "threads=" << threads;
    EXPECT_EQ(serial.series, threaded.series) << "threads=" << threads;
    EXPECT_EQ(serial.openmetrics, threaded.openmetrics)
        << "threads=" << threads;
  }
}

TEST(ParDeterminism, RepeatedRunsReproduce) {
  const Artifacts a = run_town(2, 2);
  const Artifacts b = run_town(2, 2);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.series, b.series);
  EXPECT_EQ(a.openmetrics, b.openmetrics);
}

TEST(ParDeterminism, SeedChangesArtifacts) {
  TownConfig cfg = town_config(2, 2);
  ShardedTown town_a{cfg};
  cfg.seed = 43;
  ShardedTown town_b{cfg};
  town_a.run();
  town_b.run();
  EXPECT_NE(town_a.runtime().merged_metrics_json(),
            town_b.runtime().merged_metrics_json());
}

}  // namespace
}  // namespace dlte::par
