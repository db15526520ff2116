// Batched commit windows for the blockchain registry (DESIGN.md §16):
// per-block record caps and commits_per_block accounting.
#include <gtest/gtest.h>

#include <vector>

#include "obs/metrics.h"
#include "spectrum/chain.h"

namespace dlte::spectrum {
namespace {

ChainRecord grant_record(std::uint8_t tag) {
  return ChainRecord{ChainRecordKind::kGrant, {tag, 0x01, 0x02}};
}

TEST(BatchCommit, CapSlicesFifoAcrossBlocks) {
  sim::Simulator sim;
  SpectrumChain chain{sim, Duration::seconds(10.0)};
  chain.set_max_records_per_block(2);
  chain.start();
  std::vector<std::uint64_t> heights(5, 0);
  for (std::uint8_t i = 0; i < 5; ++i) {
    chain.submit(grant_record(i),
                 [&heights, i](std::uint64_t h) { heights[i] = h; });
  }
  sim.run_until(sim.now() + Duration::seconds(35.0));
  // 5 records at 2/block: blocks of 2, 2, 1 — strictly FIFO.
  ASSERT_EQ(chain.block_count(), 4u);  // Genesis + 3.
  EXPECT_EQ(chain.block(1).records.size(), 2u);
  EXPECT_EQ(chain.block(2).records.size(), 2u);
  EXPECT_EQ(chain.block(3).records.size(), 1u);
  EXPECT_EQ(heights, (std::vector<std::uint64_t>{1, 1, 2, 2, 3}));
  EXPECT_EQ(chain.block(1).records[0].payload[0], 0u);
  EXPECT_EQ(chain.block(3).records[0].payload[0], 4u);
  EXPECT_TRUE(chain.verify());
}

TEST(BatchCommit, UncappedKeepsHistoricalBehaviour) {
  sim::Simulator sim;
  SpectrumChain chain{sim, Duration::seconds(10.0)};
  chain.start();
  for (std::uint8_t i = 0; i < 7; ++i) chain.submit(grant_record(i));
  sim.run_until(sim.now() + Duration::seconds(11.0));
  ASSERT_EQ(chain.block_count(), 2u);
  EXPECT_EQ(chain.block(1).records.size(), 7u);
}

TEST(BatchCommit, MetricsTrackBatchEfficiency) {
  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  SpectrumChain chain{sim, Duration::seconds(10.0)};
  chain.set_max_records_per_block(4);
  chain.set_metrics(&metrics, "reg.");
  chain.start();
  for (std::uint8_t i = 0; i < 6; ++i) chain.submit(grant_record(i));
  sim.run_until(sim.now() + Duration::seconds(10.5));
  // First seal: 4 committed, 2 still pending.
  EXPECT_EQ(metrics.counter("reg.registry.blocks_sealed").value(), 1u);
  EXPECT_EQ(metrics.histogram("reg.registry.commits_per_block").count(), 1u);
  EXPECT_DOUBLE_EQ(metrics.gauge("reg.registry.commit_backlog").value(), 2.0);
  sim.run_until(sim.now() + Duration::seconds(10.0));
  EXPECT_EQ(metrics.counter("reg.registry.blocks_sealed").value(), 2u);
  EXPECT_DOUBLE_EQ(metrics.gauge("reg.registry.commit_backlog").value(), 0.0);
}

TEST(BatchCommit, ThroughputScalesWithBatchSize) {
  // The C12 acceptance shape in miniature: same offered load, same
  // horizon — commit throughput grows >= 4x from batch=1 to batch=64.
  auto committed_with_cap = [](std::size_t cap) {
    sim::Simulator sim;
    SpectrumChain chain{sim, Duration::seconds(1.0)};
    chain.set_max_records_per_block(cap);
    chain.start();
    std::uint64_t committed = 0;
    for (int i = 0; i < 1'000; ++i) {
      chain.submit(grant_record(static_cast<std::uint8_t>(i)),
                   [&committed](std::uint64_t) { ++committed; });
    }
    sim.run_until(sim.now() + Duration::seconds(10.0));
    return committed;
  };
  const auto batch1 = committed_with_cap(1);
  const auto batch64 = committed_with_cap(64);
  EXPECT_EQ(batch1, 10u);   // One record per 1 s block.
  EXPECT_EQ(batch64, 640u);  // 64 per block.
  EXPECT_GE(batch64, 4 * batch1);
}

}  // namespace
}  // namespace dlte::spectrum
