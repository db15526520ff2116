// The self-profiling plane's determinism contract (DESIGN.md §14): the
// merged event-attribution section is byte-identical at any shard count
// and any thread count, while the wall-clock shard profile is merely
// well-formed (its values are timing, never compared).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "obs/prof.h"
#include "obs/prof_export.h"
#include "par/town.h"

namespace dlte::par {
namespace {

TownConfig prof_town_config(std::size_t shards, std::size_t threads) {
  TownConfig cfg;
  cfg.aps = 8;
  cfg.ues_per_ap = 4;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.seed = 42;
  cfg.horizon = Duration::seconds(2.0);
  cfg.report_interval = Duration::millis(100);
  cfg.backbone_delay = Duration::millis(5);
  cfg.profile = true;
  return cfg;
}

std::string attribution_json(std::size_t shards, std::size_t threads) {
  ShardedTown town{prof_town_config(shards, threads)};
  town.run();
  obs::EventProfiler merged;
  town.runtime().merged_profiler_into(merged);
  return obs::ProfExporter::event_attribution_json(merged);
}

TEST(ProfDeterminism, AttributionCoversTheScenario) {
  const std::string json = attribution_json(2, 2);
  // Every layer that schedules events shows up under its own label.
  for (const char* label :
       {"core.s1", "ran.enodeb", "epc.mme", "net.hop", "par.delivery",
        "town.attach", "town.x2_report", "sim.unlabeled"}) {
    EXPECT_NE(json.find(std::string{"\""} + label + "\""), std::string::npos)
        << "missing label " << label;
  }
  // The unlabeled bucket stays empty: the whole scenario is attributed.
  EXPECT_NE(json.find("\"sim.unlabeled\":{\"schedules\":0"),
            std::string::npos);
}

TEST(ProfDeterminism, AttributionByteIdenticalAcrossShardCounts) {
  const std::string one = attribution_json(1, 1);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(one, attribution_json(shards, shards)) << "shards=" << shards;
  }
}

TEST(ProfDeterminism, AttributionByteIdenticalAcrossThreadCounts) {
  EXPECT_EQ(attribution_json(4, 1), attribution_json(4, 4));
}

TEST(ProfDeterminism, ShardProfileDescribesTheRun) {
  ShardedTown town{prof_town_config(4, 2)};
  town.run();
  const obs::ShardProfile prof = town.runtime().profile();
  EXPECT_EQ(prof.shards, 4u);
  EXPECT_EQ(prof.threads, 2u);
  EXPECT_EQ(prof.windows, town.runtime().windows_run());
  EXPECT_EQ(prof.messages, town.runtime().messages_exchanged());
  EXPECT_DOUBLE_EQ(prof.lookahead_s, 0.005);
  ASSERT_EQ(prof.lanes.size(), 4u);
  std::uint64_t lane_events = 0;
  for (const obs::ShardLane& lane : prof.lanes) lane_events += lane.events;
  EXPECT_EQ(lane_events, town.runtime().events_executed());
  // The load matrix accounts for every exchanged message, cells in
  // (src, dst) order with zero cells elided.
  std::uint64_t matrix_messages = 0;
  std::uint32_t last_src = 0, last_dst = 0;
  bool first = true;
  for (const obs::ShardMatrixCell& cell : prof.matrix) {
    EXPECT_GT(cell.messages, 0u);
    if (!first) {
      EXPECT_TRUE(cell.src > last_src ||
                  (cell.src == last_src && cell.dst > last_dst));
    }
    first = false;
    last_src = cell.src;
    last_dst = cell.dst;
    matrix_messages += cell.messages;
  }
  EXPECT_EQ(matrix_messages, prof.messages);
  // Samples are barrier checkpoints: monotone time, cumulative counts.
  ASSERT_FALSE(prof.samples.empty());
  EXPECT_LE(prof.samples.size(), 512u);
  double last_t = 0.0;
  std::uint64_t last_messages = 0;
  for (const obs::ShardWindowSample& s : prof.samples) {
    EXPECT_GT(s.t_s, last_t);
    EXPECT_GE(s.messages, last_messages);
    EXPECT_EQ(s.shard_events.size(), 4u);
    last_t = s.t_s;
    last_messages = s.messages;
  }
}

// The coordinator's serial phases and each lane's sampling time are
// timed apart from the shard run time; all are wall clock, so only their
// presence and sign are checked.
TEST(ProfDeterminism, CoordinatorPhasesAndLaneSamplingAreTimed) {
  TownConfig cfg = prof_town_config(4, 2);
  cfg.audit = true;
  ShardedTown town{cfg};
  town.run();
  const obs::ShardProfile prof = town.runtime().profile();
  EXPECT_GE(prof.coordinator.exchange_s, 0.0);
  EXPECT_GE(prof.coordinator.engine_sample_s, 0.0);
  EXPECT_GE(prof.coordinator.audit_s, 0.0);
  ASSERT_EQ(prof.lanes.size(), 4u);
  for (const obs::ShardLane& lane : prof.lanes) {
    EXPECT_GE(lane.sample_s, 0.0);
    EXPECT_GE(lane.run_s, 0.0);
    EXPECT_GE(lane.barrier_wait_s, 0.0);
  }
  obs::ProfileDoc doc;
  doc.shard_profile = prof;
  const std::string json = obs::ProfExporter::to_json(doc, "phases");
  EXPECT_NE(json.find("\"coordinator\":{\"exchange_s\":"),
            std::string::npos);
  EXPECT_NE(json.find("\"engine_sample_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"audit_s\":"), std::string::npos);
  EXPECT_NE(json.find("\"sample_s\":"), std::string::npos);

  cfg.profile = false;
  ShardedTown quiet{cfg};
  quiet.run();
  const obs::ShardProfile off = quiet.runtime().profile();
  EXPECT_EQ(off.coordinator.exchange_s, 0.0);
  EXPECT_EQ(off.coordinator.engine_sample_s, 0.0);
  EXPECT_EQ(off.coordinator.audit_s, 0.0);
  EXPECT_TRUE(off.lanes.empty());
}

TEST(ProfDeterminism, ProfilingOffYieldsEmptyPlane) {
  TownConfig cfg = prof_town_config(2, 2);
  cfg.profile = false;
  ShardedTown town{cfg};
  town.run();
  EXPECT_FALSE(town.runtime().profiling());
  obs::EventProfiler merged;
  town.runtime().merged_profiler_into(merged);
  EXPECT_EQ(merged.label_count(), 1u);  // Only the unlabeled bucket.
  const obs::ShardProfile prof = town.runtime().profile();
  EXPECT_EQ(prof.shards, 0u);
  EXPECT_TRUE(prof.lanes.empty());
  EXPECT_TRUE(prof.samples.empty());
}

}  // namespace
}  // namespace dlte::par
