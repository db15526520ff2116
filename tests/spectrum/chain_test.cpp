// The blockchain registry variant (Kotobi & Bilén [27] / dHSS [25]).
#include "spectrum/chain.h"

#include <gtest/gtest.h>

#include "chain_records.h"
#include "obs/prof.h"
#include "spectrum/registry.h"

namespace dlte::spectrum {
namespace {

ChainRecord grant_record(std::uint8_t tag) {
  return ChainRecord{ChainRecordKind::kGrant, {tag, 0x01, 0x02}};
}

TEST(SpectrumChain, GenesisOnly) {
  sim::Simulator sim;
  SpectrumChain chain{sim, Duration::seconds(60.0)};
  EXPECT_EQ(chain.block_count(), 1u);
  EXPECT_TRUE(chain.verify());
}

TEST(SpectrumChain, InclusionWaitsForBlockInterval) {
  sim::Simulator sim;
  SpectrumChain chain{sim, Duration::seconds(60.0)};
  chain.start();
  std::uint64_t included_height = 0;
  TimePoint included_at;
  chain.submit(grant_record(1), [&](std::uint64_t h) {
    included_height = h;
    included_at = sim.now();
  });
  EXPECT_EQ(chain.pending_count(), 1u);
  sim.run_until(sim.now() + Duration::seconds(120.0));
  EXPECT_EQ(included_height, 1u);
  EXPECT_NEAR(included_at.to_seconds(), 60.0, 0.1);
  EXPECT_EQ(chain.pending_count(), 0u);
}

TEST(SpectrumChain, BatchesRecordsPerBlock) {
  sim::Simulator sim;
  SpectrumChain chain{sim, Duration::seconds(60.0)};
  chain.start();
  for (std::uint8_t i = 0; i < 5; ++i) chain.submit(grant_record(i));
  sim.run_until(sim.now() + Duration::seconds(61.0));
  EXPECT_EQ(chain.block_count(), 2u);
  EXPECT_EQ(chain.block(1).records.size(), 5u);
}

TEST(SpectrumChain, NoEmptyBlocks) {
  sim::Simulator sim;
  SpectrumChain chain{sim, Duration::seconds(60.0)};
  chain.start();
  sim.run_until(sim.now() + Duration::seconds(600.0));
  EXPECT_EQ(chain.block_count(), 1u);  // Only genesis.
}

TEST(SpectrumChain, SealTimerIsAttributedToItsLabel) {
  // A profiled run books every seal-timer event under registry.seal,
  // empty intervals included; nothing falls to sim.unlabeled.
  sim::Simulator sim;
  obs::EventProfiler profiler;
  sim.set_profiler(&profiler);
  SpectrumChain chain{sim, Duration::seconds(60.0)};
  chain.start();
  chain.submit(grant_record(1));
  sim.run_until(sim.now() + Duration::seconds(150.0));
  ASSERT_EQ(chain.block_count(), 2u);
  const std::uint32_t seal = profiler.intern("registry.seal");
  EXPECT_EQ(profiler.stats(seal).executed, 2u);
  EXPECT_EQ(profiler.stats(obs::kUnlabeledEvent).executed, 0u);
  EXPECT_EQ(profiler.totals().executed, 2u);
}

TEST(SpectrumChain, HashChainLinksBlocks) {
  sim::Simulator sim;
  SpectrumChain chain{sim, Duration::seconds(10.0)};
  chain.start();
  chain.submit(grant_record(1));
  sim.run_until(sim.now() + Duration::seconds(11.0));
  chain.submit(grant_record(2));
  sim.run_until(sim.now() + Duration::seconds(11.0));
  ASSERT_EQ(chain.block_count(), 3u);
  EXPECT_EQ(chain.block(1).previous_hash, chain.block(0).hash);
  EXPECT_EQ(chain.block(2).previous_hash, chain.block(1).hash);
  EXPECT_TRUE(chain.verify());
}

TEST(SpectrumChain, TamperingIsDetected) {
  sim::Simulator sim;
  SpectrumChain chain{sim, Duration::seconds(10.0)};
  chain.start();
  chain.submit(grant_record(7));
  sim.run_until(sim.now() + Duration::seconds(11.0));
  ASSERT_TRUE(chain.verify());
  // An operator quietly rewrites a sealed grant record…
  chain.mutable_block(1).records[0].payload[0] ^= 0xff;
  EXPECT_FALSE(chain.verify());
}

TEST(SpectrumChain, RecordsQueryableByKind) {
  sim::Simulator sim;
  SpectrumChain chain{sim, Duration::seconds(10.0)};
  chain.start();
  chain.submit(grant_record(1));
  chain.submit(ChainRecord{ChainRecordKind::kSubscriberKey, {0xaa}});
  sim.run_until(sim.now() + Duration::seconds(11.0));
  EXPECT_EQ(committed_payloads(chain, ChainRecordKind::kGrant).size(), 1u);
  EXPECT_EQ(
      committed_payloads(chain, ChainRecordKind::kSubscriberKey).size(), 1u);
}

TEST(ChainBackedRegistry, GrantCommitsAtBlockInclusion) {
  sim::Simulator sim;
  SpectrumChain chain{sim, Duration::seconds(60.0)};
  Registry reg{sim, RegistryKind::kBlockchain};
  reg.attach_chain(&chain);
  EXPECT_TRUE(reg.chain_backed());

  GrantRequest req;
  req.ap = ApId{1};
  req.center_frequency = Hertz::mhz(850.0);
  req.bandwidth = Hertz::mhz(10.0);
  req.operator_contact = "op@example.net";
  bool granted = false;
  TimePoint when;
  reg.request_grant(req, [&](Result<SpectrumGrant> g) {
    granted = g.ok();
    when = sim.now();
  });
  sim.run_until(sim.now() + Duration::seconds(120.0));
  EXPECT_TRUE(granted);
  EXPECT_NEAR(when.to_seconds(), 60.0, 0.5);  // One block, not 200 ms.
  EXPECT_EQ(reg.grant_count(), 1u);
  EXPECT_TRUE(chain.verify());
}

TEST(ChainBackedRegistry, KeyPublicationLeavesAuditRecord) {
  sim::Simulator sim;
  SpectrumChain chain{sim, Duration::seconds(10.0)};
  Registry reg{sim, RegistryKind::kBlockchain};
  reg.attach_chain(&chain);
  epc::PublishedKeys keys;
  keys.imsi = Imsi{777};
  reg.publish_subscriber(keys);
  sim.run_until(sim.now() + Duration::seconds(11.0));
  EXPECT_EQ(
      committed_payloads(chain, ChainRecordKind::kSubscriberKey).size(), 1u);
  // The registry facade still lists the subscriber.
  ASSERT_EQ(reg.published_subscriber_count(), 1u);
  EXPECT_EQ(reg.published_subscribers()[0].imsi, Imsi{777});
}

}  // namespace
}  // namespace dlte::spectrum
