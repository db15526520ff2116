// Flow trains must be a faithful compression of the per-packet epochs:
// same delivered bytes, same completion time, orders of magnitude fewer
// events.
#include "transport/flow_train.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/simulator.h"

namespace dlte::transport {
namespace {

struct FlowRun {
  FlowTrainStats stats;
  TimePoint completed_at;
};

FlowRun run_flow(FlowTrainConfig config) {
  sim::Simulator sim;
  FlowTrain flow{sim, config};
  flow.start();
  sim.run_all();
  return FlowRun{flow.stats(), flow.stats().completed_at};
}

TEST(FlowTrainTest, ZeroByteFlowCompletesImmediately) {
  sim::Simulator sim;
  FlowTrainConfig config;
  config.total_bytes = 0;
  bool completed = false;
  FlowTrain flow{sim, config, nullptr,
                 [&](TimePoint) { completed = true; }};
  flow.start();
  EXPECT_TRUE(completed);
  EXPECT_EQ(flow.stats().events_scheduled, 0u);
  EXPECT_EQ(flow.stats().bytes_delivered, 0u);
}

TEST(FlowTrainTest, TrainMatchesPerPacketOnBytesAndCompletion) {
  // Sweep sizes that end mid-window, exactly on a window, below the
  // initial window, and deep into steady state.
  const std::vector<std::uint64_t> sizes{
      1, 1200, 11'999, 12'000, 50'000, 600'000, 2'500'000, 25'000'000};
  for (const std::uint64_t total : sizes) {
    FlowTrainConfig train_cfg;
    train_cfg.total_bytes = total;
    FlowTrainConfig packet_cfg = train_cfg;
    packet_cfg.per_packet = true;

    const FlowRun train = run_flow(train_cfg);
    const FlowRun packets = run_flow(packet_cfg);

    EXPECT_TRUE(train.stats.completed) << "total=" << total;
    EXPECT_TRUE(packets.stats.completed) << "total=" << total;
    EXPECT_EQ(train.stats.bytes_delivered, total) << "total=" << total;
    EXPECT_EQ(packets.stats.bytes_delivered, total) << "total=" << total;
    EXPECT_EQ(train.completed_at.ns(), packets.completed_at.ns())
        << "total=" << total;
    EXPECT_EQ(train.stats.rate_changes, packets.stats.rate_changes)
        << "total=" << total;
    EXPECT_LE(train.stats.events_scheduled, packets.stats.events_scheduled)
        << "total=" << total;
  }
}

TEST(FlowTrainTest, BulkFlowCostsRateChangesNotPackets) {
  FlowTrainConfig config;
  config.total_bytes = 25'000'000;  // ~20.8k packets at MSS 1200.
  const FlowRun train = run_flow(config);
  // Slow-start from 10 to the 52-packet cap is a handful of epochs, then
  // one steady-state completion event.
  EXPECT_TRUE(train.stats.completed);
  EXPECT_LT(train.stats.events_scheduled, 12u);
  EXPECT_EQ(train.stats.bytes_delivered, config.total_bytes);

  FlowTrainConfig per_packet = config;
  per_packet.per_packet = true;
  const FlowRun packets = run_flow(per_packet);
  EXPECT_GT(packets.stats.events_scheduled, 20'000u);
  EXPECT_EQ(packets.completed_at.ns(), train.completed_at.ns());
}

TEST(FlowTrainTest, SlowStartDoublesOncePerRtt) {
  sim::Simulator sim;
  FlowTrainConfig config;
  config.mss_bytes = 1000;
  config.initial_cwnd_packets = 2;
  config.rtt = Duration::millis(10);
  config.bottleneck = DataRate::mbps(800.0);  // cap 1000 pkts: no clamp.
  config.total_bytes = 14'000;                // 2+4+8 = 14 packets.
  std::vector<std::uint64_t> deliveries;
  FlowTrain flow{sim, config,
                 [&](std::uint64_t bytes) { deliveries.push_back(bytes); }};
  flow.start();
  sim.run_all();
  EXPECT_EQ(deliveries,
            (std::vector<std::uint64_t>{2000, 4000, 8000}));
  EXPECT_EQ(flow.stats().rate_changes, 2u);
  EXPECT_EQ(flow.stats().completed_at.ns(),
            3 * Duration::millis(10).ns());
}

TEST(FlowTrainTest, SteadyStateCollapsesToOneEvent) {
  sim::Simulator sim;
  FlowTrainConfig config;
  config.mss_bytes = 1000;
  config.initial_cwnd_packets = 4;
  config.rtt = Duration::millis(10);
  config.bottleneck = DataRate::mbps(3.2);  // cap = 4 packets: saturated.
  config.total_bytes = 400'000;             // 100 epochs of 4 packets.
  FlowTrain flow{sim, config};
  flow.start();
  sim.run_all();
  EXPECT_TRUE(flow.stats().completed);
  // Already at cap: the whole flow is one analytic completion event.
  EXPECT_EQ(flow.stats().events_scheduled, 1u);
  EXPECT_EQ(flow.stats().completed_at.ns(),
            100 * Duration::millis(10).ns());
}

}  // namespace
}  // namespace dlte::transport
