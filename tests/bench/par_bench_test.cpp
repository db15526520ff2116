// The sharded-bench scaffold's verdict logic: the sweep must flag a
// scenario whose merged artifacts depend on the partition, pass one that
// honours the determinism contract, and both modes must fail a scenario
// whose shards share a metric name. Gate and sweep runs hand their
// documents to the harness, whose finish() writes them.
#include "par_bench.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "artifact_dir.h"
#include "obs/audit_export.h"
#include "obs/prof_export.h"
#include "obs/snapshot.h"

namespace dlte::bench {
namespace {

constexpr std::uint32_t kEndpoints = 4;

enum class Toy {
  kInvariant,      // honours the determinism contract
  kLeakPartition,  // shard 0 also records the shard count
  kSharedCounter,  // every shard bumps one shared counter name
};

// Toy scenario: four endpoints pass a token around a ring, each counting
// its receptions under its own metric name — unless `toy` breaks one of
// the contract's rules.
ParRun run_toy(ParBench& bench, std::size_t shards, std::size_t threads,
               Toy toy) {
  par::ShardedConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.profile = true;
  cfg.audit = true;
  par::ShardedSimulator rt{cfg};
  for (std::uint32_t ep = 0; ep < kEndpoints; ++ep) {
    const std::size_t shard = ep % rt.shard_count();
    obs::Counter& rx = rt.shard_registry(shard).counter(
        toy == Toy::kSharedCounter ? std::string{"toy.shared.rx"}
                                   : "toy.ep" + std::to_string(ep) + ".rx");
    rt.register_endpoint(ep, shard, [&rt, &rx, ep](const par::Message&) {
      rx.inc();
      rt.post(ep, (ep + 1) % kEndpoints, Duration::millis(1), 0, {});
    });
  }
  rt.post(0, 1, Duration::millis(1), 0, {});
  if (toy == Toy::kLeakPartition) {
    rt.shard_registry(0).gauge("toy.shards").set(static_cast<double>(shards));
  }
  const TimePoint horizon = TimePoint{} + Duration::millis(20);
  return bench.measure(rt, [&] { rt.run_until(horizon); });
}

ParBench::RunFn toy_run(ParBench& bench, Toy toy) {
  return [&bench, toy](std::size_t shards, std::size_t threads) {
    return run_toy(bench, shards, threads, toy);
  };
}

void ignore_report(const ParRun&, bool, double) {}

using ParBenchArtifacts = ArtifactDirTest;

std::uint64_t counter(Harness& harness, const std::string& name) {
  return harness.metrics().counter(name).value();
}

TEST(ParBench, SweepFlagsPartitionDependentArtifacts) {
  Harness harness{"par_bench_test"};
  ParBench bench{harness, "toy"};
  int reports = 0;
  const int rc = bench.sweep(
      toy_run(bench, Toy::kLeakPartition),
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
      toy_run(bench, Toy::kInvariant),
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
  // last run's documents reach the harness for --artifacts.
  EXPECT_NE(obs::MetricsSnapshot{harness.metrics()}.to_json().find("prof."),
            std::string::npos);
  ASSERT_TRUE(harness.has_profile());
  EXPECT_EQ(harness.profile()->shard_profile.shards, 4u);
  ASSERT_TRUE(harness.has_audit());
}

TEST_F(ParBenchArtifacts, GateRunWritesEveryDocumentThroughFinish) {
  Harness harness{"par_bench_test"};
  parse_flags(harness, {"--artifacts=" + path("toy"), "--shards=2"});
  ParBench bench{harness, "toy"};
  ASSERT_TRUE(bench.gate_mode());
  std::vector<std::size_t> shards_seen;
  std::string metrics;
  const int rc = bench.gate(
      toy_run(bench, Toy::kInvariant),
      [&](const ParRun& run, bool identical, double speedup) {
        shards_seen.push_back(run.shards);
        metrics = run.metrics;
        EXPECT_TRUE(identical);
        EXPECT_EQ(speedup, 1.0);
      });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(shards_seen, (std::vector<std::size_t>{2}));
  // Nothing is on disk until finish().
  EXPECT_FALSE(std::filesystem::exists(path("toy") + ".metrics.json"));
  EXPECT_EQ(harness.finish(rc), 0);
  for (const char* doc : {"metrics.json", "series.json", "openmetrics.txt",
                          "prof.json", "prof-trace.json", "audit.json"}) {
    EXPECT_FALSE(read_file(path("toy") + "." + doc).empty()) << doc;
  }
  EXPECT_EQ(read_file(path("toy") + ".metrics.json"), metrics);
  EXPECT_NE(read_file(path("toy") + ".prof.json").find("\"shard_profile\""),
            std::string::npos);
  // No tracer, so no folded stacks.
  EXPECT_FALSE(std::filesystem::exists(path("toy") + ".folded.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "BENCH_par_bench_test.json"));
}

TEST_F(ParBenchArtifacts, SweepArtifactsMatchOneShardGateRun) {
  Harness sweep_harness{"par_bench_test"};
  parse_flags(sweep_harness, {"--artifacts=" + path("sweep")});
  ParBench sweep{sweep_harness, "toy"};
  ASSERT_FALSE(sweep.gate_mode());
  ASSERT_EQ(sweep.sweep(toy_run(sweep, Toy::kInvariant), ignore_report), 0);
  ASSERT_EQ(sweep_harness.finish(), 0);

  Harness gate_harness{"par_bench_test"};
  parse_flags(gate_harness, {"--artifacts=" + path("gate"), "--shards=1"});
  ParBench gate{gate_harness, "toy"};
  ASSERT_EQ(gate.gate(toy_run(gate, Toy::kInvariant), ignore_report), 0);
  ASSERT_EQ(gate_harness.finish(), 0);

  for (const char* doc : {"metrics.json", "series.json", "openmetrics.txt"}) {
    const std::string swept = read_file(path("sweep") + "." + doc);
    EXPECT_FALSE(swept.empty()) << doc;
    EXPECT_EQ(swept, read_file(path("gate") + "." + doc)) << doc;
  }
  // The sweep's documents come from its widest run; only the
  // partition-invariant sections compare.
  ASSERT_TRUE(sweep_harness.has_audit() && gate_harness.has_audit());
  EXPECT_EQ(obs::AuditExporter::merged_json(*sweep_harness.audit()),
            obs::AuditExporter::merged_json(*gate_harness.audit()));
  ASSERT_TRUE(sweep_harness.has_profile() && gate_harness.has_profile());
  EXPECT_EQ(obs::ProfExporter::event_attribution_json(
                sweep_harness.profile()->attribution),
            obs::ProfExporter::event_attribution_json(
                gate_harness.profile()->attribution));
  EXPECT_EQ(sweep_harness.profile()->shard_profile.shards, 4u);
  EXPECT_EQ(gate_harness.profile()->shard_profile.shards, 1u);
}

TEST_F(ParBenchArtifacts, UnwritablePrefixFailsFinish) {
  Harness harness{"par_bench_test"};
  parse_flags(harness, {"--artifacts=/nonexistent-dir/toy", "--shards=2"});
  ParBench bench{harness, "toy"};
  ASSERT_EQ(bench.gate(toy_run(bench, Toy::kInvariant), ignore_report), 0);
  EXPECT_EQ(harness.finish(0), 1);
  // A failing bench keeps its own exit code.
  EXPECT_EQ(harness.finish(3), 3);
}

TEST(ParBench, SharedMetricNameFailsGateAndSweep) {
  Harness gate_harness{"par_bench_test"};
  parse_flags(gate_harness, {"--shards=2"});
  ParBench gate{gate_harness, "toy"};
  ::testing::internal::CaptureStderr();
  const int gate_rc = gate.gate(toy_run(gate, Toy::kSharedCounter),
                                ignore_report);
  const std::string gate_err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(gate_rc, 1);
  EXPECT_NE(gate_err.find("toy.shared.rx"), std::string::npos) << gate_err;

  Harness sweep_harness{"par_bench_test"};
  ParBench sweep{sweep_harness, "toy"};
  ::testing::internal::CaptureStderr();
  const int sweep_rc =
      sweep.sweep(toy_run(sweep, Toy::kSharedCounter), ignore_report);
  const std::string sweep_err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(sweep_rc, 1);
  EXPECT_NE(sweep_err.find("toy.shared.rx"), std::string::npos) << sweep_err;
}

}  // namespace
}  // namespace dlte::bench
