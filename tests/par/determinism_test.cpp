#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "par/metro.h"
#include "par/registry_plane.h"
#include "par/sharded_sim.h"
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

// A sparse token ring on raw endpoints: four tokens hop around eight
// endpoints every 20–48 ms against a 1 ms lookahead and a 5 ms sample
// cadence, so most windows are idle fast-forwards that reach several
// sample points at once. Instruments appear at each endpoint's first
// delivery, so the shard samplers rebind on the threads that run them.
constexpr std::uint32_t kRingEndpoints = 8;
constexpr std::uint64_t kRingSamples = 200;  // 1 s horizon / 5 ms.

struct SparseRing {
  std::string series;
  std::vector<std::uint64_t> shard_samples;
  std::uint64_t windows{0};
};

SparseRing run_sparse_ring(std::size_t shards, std::size_t threads) {
  ShardedConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.lookahead = Duration::millis(1);
  cfg.sample_interval = Duration::millis(5);
  ShardedSimulator rt{cfg};
  const auto hop_delay = [](std::uint32_t ep, std::uint8_t hops) {
    return Duration::millis(20 + 7 * ((ep + hops) % 5));
  };
  for (std::uint32_t ep = 0; ep < kRingEndpoints; ++ep) {
    const std::size_t shard = ep % shards;
    rt.register_endpoint(ep, shard, [&rt, ep, shard, hop_delay](
                                        const Message& m) {
      const std::uint8_t hops = m.payload.at(0);
      obs::MetricsRegistry& reg = rt.shard_registry(shard);
      const std::string prefix = "ep" + std::to_string(ep);
      reg.counter(prefix + ".rx").inc();
      reg.gauge(prefix + ".last_src").set(static_cast<double>(m.src));
      reg.histogram(prefix + ".hops").record(static_cast<double>(hops));
      rt.post(ep, (ep + 1) % kRingEndpoints, hop_delay(ep, hops), 0,
              {static_cast<std::uint8_t>(hops + 1)});
    });
  }
  for (std::uint32_t ep = 0; ep < kRingEndpoints; ep += 2) {
    rt.post(ep, ep + 1, hop_delay(ep, 0), 0, {0});
  }
  rt.run_until(TimePoint{} + Duration::seconds(1.0));
  SparseRing ring;
  ring.series = rt.merged_series_json("sparse_ring");
  for (std::size_t s = 0; s < shards; ++s) {
    ring.shard_samples.push_back(rt.shard_sampler(s)->samples());
  }
  ring.windows = rt.windows_run();
  return ring;
}

// Each shard is sampled by the thread that ran it, at the end of the
// window; the merged series must not depend on which thread that was.
TEST(ParDeterminism, SeriesSampledOnWorkersMatchOneThread) {
  const SparseRing one = run_sparse_ring(1, 1);
  EXPECT_EQ(one.shard_samples, std::vector<std::uint64_t>{kRingSamples});
  // Every sample point is taken in exactly one window, so fewer windows
  // than points means some window crossed two or more of them.
  EXPECT_LT(one.windows, kRingSamples);
  EXPECT_NE(one.series.find("\"ep7.hops.p50\""), std::string::npos);
  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    const SparseRing many = run_sparse_ring(4, threads);
    EXPECT_EQ(one.series, many.series) << "threads=" << threads;
    EXPECT_EQ(many.shard_samples,
              std::vector<std::uint64_t>(4, kRingSamples))
        << "threads=" << threads;
    EXPECT_EQ(one.windows, many.windows) << "threads=" << threads;
  }
}

// DESIGN §16's partition rule, checked rather than trusted: every
// counter, gauge and histogram name lives in exactly one shard's
// registry. A name written from two shards would merge to the right
// total yet digest differently per shard in the audit plane.
void expect_no_name_spans_shards(const ShardedSimulator& rt,
                                 const std::string& scenario) {
  EXPECT_EQ(rt.shared_metric_names(), std::vector<std::string>{})
      << scenario;
  obs::MetricsRegistry merged;
  rt.merged_metrics_into(merged);
  EXPECT_GT(merged.counters().size() + merged.gauges().size() +
                merged.histograms().size(),
            0u)
      << scenario;
}

TEST(ParDeterminism, NoMetricNameSpansShards) {
  ShardedTown town{town_config(4, 4)};
  town.run();
  expect_no_name_spans_shards(town.runtime(), "town");

  MetroConfig metro_cfg;
  metro_cfg.aps = 16;
  metro_cfg.ues_per_ap = 8;
  metro_cfg.districts = 4;
  metro_cfg.shards = 4;
  metro_cfg.threads = 4;
  metro_cfg.horizon = Duration::seconds(1.0);
  metro_cfg.attach_window = Duration::millis(500);
  metro_cfg.flow_bytes_per_ue = 20'000;
  MetroScenario metro{metro_cfg};
  metro.run();
  expect_no_name_spans_shards(metro.runtime(), "metro");

  RegistryPlaneConfig plane_cfg;
  plane_cfg.blocks = 8;
  plane_cfg.leases_per_block = 16;
  plane_cfg.zones_x = 2;
  plane_cfg.zones_y = 2;
  plane_cfg.shards = 4;
  plane_cfg.threads = 4;
  plane_cfg.horizon = Duration::seconds(30.0);
  plane_cfg.lease_lifetime = Duration::seconds(8.0);
  plane_cfg.heartbeat_grace = Duration::seconds(4.0);
  plane_cfg.heartbeat_interval = Duration::seconds(5.0);
  plane_cfg.outage_at = Duration::seconds(10.0);
  plane_cfg.outage_duration = Duration::seconds(15.0);
  RegistryPlaneScenario plane{plane_cfg};
  plane.run();
  expect_no_name_spans_shards(plane.runtime(), "registry_plane");
}

}  // namespace
}  // namespace dlte::par
