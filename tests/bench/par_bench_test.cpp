// The sharded-bench scaffold's verdict logic: the sweep must flag a
// scenario whose merged artifacts depend on the partition, pass one that
// honours the determinism contract, and gate mode must write the full
// artifact set.
#include "par_bench.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "obs/snapshot.h"

namespace dlte::bench {
namespace {

constexpr std::uint32_t kEndpoints = 4;

// Toy scenario: four endpoints pass a token around a ring, each counting
// its receptions under its own metric name. With `leak_partition` shard 0
// also records the shard count — the one thing the contract forbids.
ParRun run_toy(ParBench& bench, std::size_t shards, std::size_t threads,
               bool leak_partition) {
  par::ShardedConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.profile = true;
  cfg.audit = true;
  par::ShardedSimulator rt{cfg};
  for (std::uint32_t ep = 0; ep < kEndpoints; ++ep) {
    const std::size_t shard = ep % rt.shard_count();
    obs::Counter& rx = rt.shard_registry(shard).counter(
        "toy.ep" + std::to_string(ep) + ".rx");
    rt.register_endpoint(ep, shard, [&rt, &rx, ep](const par::Message&) {
      rx.inc();
      rt.post(ep, (ep + 1) % kEndpoints, Duration::millis(1), 0, {});
    });
  }
  rt.post(0, 1, Duration::millis(1), 0, {});
  if (leak_partition) {
    rt.shard_registry(0).gauge("toy.shards").set(static_cast<double>(shards));
  }
  const TimePoint horizon = TimePoint{} + Duration::millis(20);
  return bench.measure(rt, [&] { rt.run_until(horizon); });
}

std::uint64_t counter(Harness& harness, const std::string& name) {
  return harness.metrics().counter(name).value();
}

TEST(ParBench, SweepFlagsPartitionDependentArtifacts) {
  Harness harness{"par_bench_test"};
  ParBench bench{harness, "toy"};
  int reports = 0;
  const int rc = bench.sweep(
      [&](std::size_t shards, std::size_t threads) {
        return run_toy(bench, shards, threads, /*leak_partition=*/true);
      },
      [&](const ParRun&, bool, double) { ++reports; });
  EXPECT_EQ(rc, 1);
  EXPECT_EQ(reports, 3);
  EXPECT_EQ(counter(harness, "toy.s1.identical"), 1u);
  EXPECT_EQ(counter(harness, "toy.s2.identical"), 0u);
  EXPECT_EQ(counter(harness, "toy.s4.identical"), 0u);
}

TEST(ParBench, SweepPassesShardInvariantScenario) {
  Harness harness{"par_bench_test"};
  ParBench bench{harness, "toy"};
  std::vector<std::size_t> shards_seen;
  const int rc = bench.sweep(
      [&](std::size_t shards, std::size_t threads) {
        return run_toy(bench, shards, threads, /*leak_partition=*/false);
      },
      [&](const ParRun& run, bool identical, double) {
        shards_seen.push_back(run.shards);
        EXPECT_TRUE(identical) << "shards=" << run.shards;
        EXPECT_GT(run.events, 0u);
        EXPECT_NE(run.metrics.find("toy.ep3.rx"), std::string::npos);
      });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(shards_seen, (std::vector<std::size_t>{1, 2, 4}));
  for (const char* shards : {"1", "2", "4"}) {
    EXPECT_EQ(counter(harness, std::string{"toy.s"} + shards + ".identical"),
              1u);
  }
  // Each run's runtime metrics land in its own namespace.
  EXPECT_EQ(harness.metrics().gauge("toy.s4.par.shards").value(), 4.0);
  // The 1-shard attribution becomes compared prof.* metrics, and the
  // last run's documents reach the harness for --prof-out/--audit-out.
  EXPECT_NE(obs::MetricsSnapshot{harness.metrics()}.to_json().find("prof."),
            std::string::npos);
  ASSERT_TRUE(harness.has_profile());
  EXPECT_EQ(harness.profile()->shard_profile.shards, 4u);
  ASSERT_TRUE(harness.has_audit());
}

TEST(ParBench, GateModeWritesTheFullArtifactSet) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("par_bench_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string prefix = (dir / "toy").string();
  std::string artifacts = "--par-artifacts=" + prefix;
  std::string shards = "--shards=2";
  char name[] = "par_bench_test";
  std::vector<char*> argv{name, artifacts.data(), shards.data()};

  Harness harness{"par_bench_test"};
  harness.parse_args(static_cast<int>(argv.size()), argv.data());
  ParBench bench{harness, "toy"};
  ASSERT_TRUE(bench.gate_mode());
  std::vector<std::size_t> shards_seen;
  const int rc = bench.gate(
      [&](std::size_t n, std::size_t threads) {
        return run_toy(bench, n, threads, /*leak_partition=*/false);
      },
      [&](const ParRun& run, bool identical, double speedup) {
        shards_seen.push_back(run.shards);
        EXPECT_TRUE(identical);
        EXPECT_EQ(speedup, 1.0);
      });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(shards_seen, (std::vector<std::size_t>{2}));
  for (const char* ext : {".metrics.json", ".series.json", ".openmetrics.txt",
                          ".prof.json", ".audit.json"}) {
    std::ifstream f{prefix + ext};
    ASSERT_TRUE(f.good()) << ext;
    const std::string text{std::istreambuf_iterator<char>(f), {}};
    EXPECT_FALSE(text.empty()) << ext;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dlte::bench
