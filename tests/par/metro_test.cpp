// MetroScenario determinism: the merged snapshot and the event total
// must be byte-identical / equal at any shard count — the contract
// bench_c10_metro runs at full scale and CI gates.
#include "par/metro.h"

#include <gtest/gtest.h>

#include <string>

namespace dlte::par {
namespace {

MetroConfig small_config(std::size_t shards, std::size_t threads) {
  MetroConfig config;
  config.aps = 40;
  config.ues_per_ap = 25;
  config.districts = 8;
  config.shards = shards;
  config.threads = threads;
  config.seed = 42;
  config.horizon = Duration::seconds(2.0);
  config.attach_window = Duration::seconds(1.0);
  config.flow_bytes_per_ue = 50'000;
  config.report_interval = Duration::millis(200);
  return config;
}

struct RunOutput {
  MetroResult result;
  std::string metrics;
};

RunOutput run_metro(std::size_t shards, std::size_t threads) {
  MetroScenario metro{small_config(shards, threads)};
  RunOutput out;
  out.result = metro.run();
  out.metrics = metro.runtime().merged_metrics_json();
  return out;
}

TEST(MetroScenarioTest, AttachesEveryUeAndDeliversEveryByte) {
  const RunOutput out = run_metro(1, 1);
  EXPECT_EQ(out.result.ues_attached, 40u * 25u);
  EXPECT_EQ(out.result.bytes_delivered, 40u * 25u * 50'000u);
  // One aggregate flow per batch per AP.
  EXPECT_EQ(out.result.flows_completed, 40u * 10u);
  EXPECT_GT(out.result.reports_rx, 0u);
}

TEST(MetroScenarioTest, ShardCountsProduceByteIdenticalMetrics) {
  const RunOutput base = run_metro(1, 1);
  for (const std::size_t shards : {2u, 4u}) {
    const RunOutput out = run_metro(shards, shards);
    EXPECT_EQ(out.metrics, base.metrics) << "shards=" << shards;
    EXPECT_EQ(out.result.events_executed, base.result.events_executed)
        << "shards=" << shards;
    EXPECT_EQ(out.result.ues_attached, base.result.ues_attached);
    EXPECT_EQ(out.result.reports_rx, base.result.reports_rx);
  }
}

TEST(MetroScenarioTest, RepeatRunsAreByteIdentical) {
  const RunOutput a = run_metro(2, 2);
  const RunOutput b = run_metro(2, 2);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.result.events_executed, b.result.events_executed);
}

TEST(MetroScenarioTest, DistrictsNeverSpanShards) {
  // The histogram-merge contract: every district lives wholly in one
  // shard, at any shard count the bench sweeps.
  for (const std::size_t shards : {1u, 2u, 4u}) {
    MetroScenario metro{small_config(shards, 1)};
    const MetroConfig& cfg = metro.config();
    for (int ap = 1; ap < cfg.aps; ++ap) {
      const std::size_t d0 =
          metro.district_of(static_cast<std::size_t>(ap - 1));
      const std::size_t d1 = metro.district_of(static_cast<std::size_t>(ap));
      // Contiguous, monotone districts.
      EXPECT_LE(d0, d1);
      EXPECT_LE(d1 - d0, 1u);
    }
  }
}

TEST(MetroScenarioTest, EventCostStaysSublinearInUes) {
  MetroConfig config = small_config(1, 1);
  const RunOutput small = run_metro(1, 1);
  config.ues_per_ap = 250;  // 10x the UEs.
  MetroScenario metro{config};
  const MetroResult big = metro.run();
  EXPECT_EQ(big.ues_attached, 40u * 250u);
  // The aggregation contract: 10x UEs costs well under 2x the events.
  EXPECT_LT(big.events_executed, small.result.events_executed * 2);
}

}  // namespace
}  // namespace dlte::par
