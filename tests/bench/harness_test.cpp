// The bench harness's one artifact path: parse_args() knows exactly four
// flags, and finish() writes each document a bench produced — and no
// document it did not — through one loop with one error path.
#include "bench_harness.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "artifact_dir.h"
#include "obs/merge.h"
#include "obs/trace_export.h"

namespace dlte::bench {
namespace {

using HarnessArtifacts = ArtifactDirTest;

TEST_F(HarnessArtifacts, RecognisesExactlyFourFlags) {
  Harness harness{"harness_test"};
  parse_flags(harness, {"--shards=4", "--par-threads=2",
                        "--artifacts=" + path("p"),
                        "--trace-out=" + path("t.json"), "--unknown=1"});
  EXPECT_EQ(harness.shards(), 4u);
  EXPECT_EQ(harness.par_threads(), 2u);
  EXPECT_TRUE(harness.tracing());
  EXPECT_NE(harness.sampler(), nullptr);  // Only --artifacts enables it.

  // Flags the one --artifacts prefix replaced are ignored like any other
  // unknown flag.
  Harness legacy{"harness_test"};
  parse_flags(legacy, {"--par-artifacts=" + path("a"),
                       "--series-out=" + path("b"),
                       "--openmetrics-out=" + path("c"),
                       "--prof-out=" + path("d"), "--audit-out=" + path("e"),
                       "--series-interval-ms=100"});
  EXPECT_EQ(legacy.shards(), 0u);
  EXPECT_FALSE(legacy.tracing());
  EXPECT_EQ(legacy.sampler(), nullptr);
  EXPECT_EQ(legacy.finish(), 0);
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    EXPECT_FALSE(std::filesystem::exists(path(name))) << name;
  }
}

TEST_F(HarnessArtifacts, TraceOutWithoutSpanSourceFails) {
  Harness harness{"harness_test"};
  parse_flags(harness, {"--trace-out=" + path("trace.json")});
  ASSERT_TRUE(harness.tracing());
  ::testing::internal::CaptureStderr();
  const int rc = harness.finish();
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.find("no span"), std::string::npos) << err;
  EXPECT_FALSE(std::filesystem::exists(path("trace.json")));
  // The bench's own JSON still lands.
  EXPECT_TRUE(std::filesystem::exists(dir_ / "BENCH_harness_test.json"));
}

TEST_F(HarnessArtifacts, TracedBenchWritesTraceAndFoldedStacks) {
  Harness harness{"harness_test"};
  parse_flags(harness, {"--trace-out=" + path("trace.json"),
                        "--artifacts=" + path("p")});
  TimePoint now{};
  harness.set_trace_clock([&now] { return now; });
  const obs::SpanId attach = harness.tracer()->begin("attach", "ran");
  now = now + Duration::millis(3.0);
  harness.tracer()->end(attach);
  ASSERT_EQ(harness.finish(), 0);
  EXPECT_EQ(read_file(path("trace.json")),
            obs::ChromeTraceExporter::to_json(*harness.tracer()) + "\n");
  EXPECT_EQ(read_file(path("p.folded.txt")), "attach 3000\n");
  EXPECT_FALSE(read_file(path("p.openmetrics.txt")).empty());
  // No sharded run handed documents over, and no sampler was asked for.
  for (const char* doc : {"metrics.json", "series.json", "prof.json",
                          "prof-trace.json", "audit.json"}) {
    EXPECT_FALSE(std::filesystem::exists(path("p.") + doc)) << doc;
  }
}

TEST_F(HarnessArtifacts, SeriesWrittenOnlyOnceSampled) {
  Harness idle{"harness_test"};
  EXPECT_EQ(idle.sampler(), nullptr);  // No --artifacts, no sampler.
  parse_flags(idle, {"--artifacts=" + path("idle")});
  ASSERT_NE(idle.sampler(), nullptr);
  ASSERT_NE(idle.slo(), nullptr);
  ASSERT_EQ(idle.finish(), 0);
  EXPECT_FALSE(std::filesystem::exists(path("idle.series.json")));
  EXPECT_TRUE(std::filesystem::exists(path("idle.openmetrics.txt")));

  Harness driven{"harness_test"};
  parse_flags(driven, {"--artifacts=" + path("driven")});
  driven.counter("x.rx", 2);
  driven.sampler()->sample(TimePoint{} + Duration::millis(500));
  ASSERT_EQ(driven.finish(), 0);
  EXPECT_EQ(read_file(path("driven.series.json")),
            obs::merged_series_json({driven.sampler()}, "harness_test",
                                    driven.slo()) +
                "\n");
}

// Peak memory rides next to the wall time, outside the byte-compared
// "metrics" object.
TEST(HarnessJson, RecordsPeakRssBesideWallSeconds) {
  Harness harness{"harness_test"};
  harness.metrics().counter("c").inc();
  const std::string json = harness.to_json();
  const std::string key = "\"peak_rss_mb\":";
  const std::size_t wall = json.find("\"wall_seconds\":");
  const std::size_t rss = json.find(key);
  const std::size_t metrics = json.find("\"metrics\":");
  ASSERT_NE(rss, std::string::npos) << json;
  EXPECT_LT(wall, rss);
  EXPECT_LT(rss, metrics);
  EXPECT_GT(std::stod(json.substr(rss + key.size())), 0.0);
  EXPECT_EQ(json.find("peak_rss_mb", metrics), std::string::npos);
}

TEST_F(HarnessArtifacts, SetDocumentReplacesTheHarnessRendering) {
  Harness harness{"harness_test"};
  parse_flags(harness, {"--artifacts=" + path("p")});
  harness.set_document("openmetrics.txt", "first");
  harness.set_document("openmetrics.txt", "merged\n# EOF\n");
  ASSERT_EQ(harness.finish(), 0);
  EXPECT_EQ(read_file(path("p.openmetrics.txt")), "merged\n# EOF\n");
}

}  // namespace
}  // namespace dlte::bench
