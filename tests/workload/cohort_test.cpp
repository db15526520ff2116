#include "workload/cohort.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace dlte::workload {
namespace {

// Cohort attach and flow counters, as the metro scenario's hooks see them.
struct Tallies {
  obs::MetricsRegistry registry;
  UeCohort::Hooks hooks{&registry.counter("attached"),
                        &registry.counter("bytes"), &registry.counter("flows"),
                        nullptr};
  std::uint64_t attached() { return registry.counter("attached").value(); }
  std::uint64_t bytes() { return registry.counter("bytes").value(); }
  std::uint64_t flows() { return registry.counter("flows").value(); }
};

CohortConfig small_config() {
  CohortConfig config;
  config.ues = 100;
  config.attach_batches = 10;
  config.attach_window = Duration::seconds(1.0);
  config.flow_bytes_per_ue = 100'000;
  return config;
}

TEST(UeCohortTest, AttachesEveryUeWithinTheWindow) {
  sim::Simulator sim;
  Tallies tallies;
  UeCohort cohort{sim, small_config(), sim::RngStream::derive(1, "cohort"),
                  tallies.hooks};
  cohort.start();
  sim.run_until(TimePoint{} + Duration::seconds(1.0));
  EXPECT_EQ(tallies.attached(), 100u);
}

TEST(UeCohortTest, DeliversConfiguredBytesPerUe) {
  sim::Simulator sim;
  const CohortConfig config = small_config();
  Tallies tallies;
  UeCohort cohort{sim, config, sim::RngStream::derive(1, "cohort"),
                  tallies.hooks};
  cohort.start();
  sim.run_all();
  EXPECT_EQ(tallies.attached(), static_cast<std::uint64_t>(config.ues));
  EXPECT_EQ(tallies.bytes(), static_cast<std::uint64_t>(config.ues) *
                                 config.flow_bytes_per_ue);
  // One aggregate flow per batch, not one per UE.
  EXPECT_EQ(tallies.flows(),
            static_cast<std::uint64_t>(config.attach_batches));
}

TEST(UeCohortTest, HooksObserveAttachesAndBytes) {
  sim::Simulator sim;
  obs::MetricsRegistry registry;
  UeCohort::Hooks hooks;
  hooks.attached = &registry.counter("attached");
  hooks.bytes_delivered = &registry.counter("bytes");
  hooks.flows_completed = &registry.counter("flows");
  hooks.attach_ms = &registry.histogram("attach.ms");
  const CohortConfig config = small_config();
  UeCohort cohort{sim, config, sim::RngStream::derive(1, "cohort"), hooks};
  cohort.start();
  sim.run_all();
  EXPECT_EQ(registry.counter("attached").value(), 100u);
  EXPECT_EQ(registry.counter("bytes").value(), 100u * 100'000u);
  EXPECT_EQ(registry.counter("flows").value(), 10u);
  // One latency sample per UE, all inside 40 ms + uniform(0, 25 ms).
  EXPECT_EQ(registry.histogram("attach.ms").count(), 100u);
  EXPECT_GE(registry.histogram("attach.ms").min(), 40.0);
  EXPECT_LE(registry.histogram("attach.ms").max(), 65.0);
}

TEST(UeCohortTest, FlowRunsAtTheMetroShareOfTheCell) {
  // One batch of 10 UEs at t = 0 pulling 1 MB each: a 10 MB aggregate
  // flow over 10 x 25 Mbit/s at 20 ms RTT. Its window caps at
  // 250 Mbit/s x 20 ms / 1200 B = 520 packets. Slow start sends 100,
  // 200 and 400 packets (840,000 B by 60 ms); the remaining 9,160,000 B
  // take ceil(9,160,000 / 624,000) = 15 capped epochs, so the flow lands
  // at 60 + 300 = 360 ms. (At 50 Mbit/s per UE it would land at 220 ms.)
  sim::Simulator sim;
  CohortConfig config;
  config.ues = 10;
  config.attach_batches = 1;
  config.attach_window = Duration{};
  config.flow_bytes_per_ue = 1'000'000;
  Tallies tallies;
  UeCohort cohort{sim, config, sim::RngStream::derive(1, "cohort"),
                  tallies.hooks};
  cohort.start();
  sim.run_until(TimePoint{} + Duration::millis(359));
  EXPECT_EQ(tallies.flows(), 0u);
  EXPECT_EQ(tallies.bytes(), 840'000u);
  sim.run_all();
  EXPECT_EQ(sim.now(), TimePoint{} + Duration::millis(360));
  EXPECT_EQ(tallies.flows(), 1u);
  EXPECT_EQ(tallies.bytes(), 10'000'000u);
}

TEST(UeCohortTest, EventCountIsBatchesNotUes) {
  sim::Simulator sim;
  CohortConfig config = small_config();
  config.ues = 1000;  // 10x the UEs...
  Tallies tallies;
  UeCohort cohort{sim, config, sim::RngStream::derive(1, "cohort"),
                  tallies.hooks};
  cohort.start();
  sim.run_all();
  EXPECT_EQ(tallies.attached(), 1000u);
  // ...but the same number of batches, and each aggregate flow is a
  // handful of epoch events: well under one event per UE.
  EXPECT_LT(sim.events_executed(), 100u);
}

TEST(UeCohortTest, SameSeedSameSchedule) {
  auto run = [](std::uint64_t seed) {
    sim::Simulator sim;
    UeCohort cohort{sim, small_config(),
                    sim::RngStream::derive(seed, "cohort"), UeCohort::Hooks{}};
    cohort.start();
    sim.run_all();
    return sim.events_executed();
  };
  EXPECT_EQ(run(7), run(7));
  // Different seed still attaches everything; schedule may differ.
  EXPECT_GT(run(8), 0u);
}

TEST(UeCohortTest, ZeroFlowBytesAttachOnly) {
  sim::Simulator sim;
  CohortConfig config = small_config();
  config.flow_bytes_per_ue = 0;
  Tallies tallies;
  UeCohort cohort{sim, config, sim::RngStream::derive(1, "cohort"),
                  tallies.hooks};
  cohort.start();
  sim.run_all();
  EXPECT_EQ(tallies.attached(), 100u);
  EXPECT_EQ(tallies.bytes(), 0u);
  EXPECT_EQ(tallies.flows(), 0u);
}

}  // namespace
}  // namespace dlte::workload
