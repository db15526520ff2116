#include "mac/wifi_dcf.h"

#include <gtest/gtest.h>

#include "phy/wifi_phy.h"

namespace dlte::mac {
namespace {

TEST(WifiDcf, SingleStationNearsPhyEfficiency) {
  DcfSimulator sim{1};
  const int s = sim.add_station(DcfStationConfig{.rate_index = 4});
  sim.run(Duration::seconds(1.0));
  const auto rate = sim.stats(s).goodput(sim.elapsed());
  // MCS3 = 26 Mb/s PHY; MAC efficiency with DIFS/backoff/ACK ≈ 60–80%.
  EXPECT_GT(rate.to_mbps(), 14.0);
  EXPECT_LT(rate.to_mbps(), 26.0);
  EXPECT_EQ(sim.stats(s).collisions, 0);
}

TEST(WifiDcf, TwoSensingStationsShareFairly) {
  DcfSimulator sim{2};
  const int a = sim.add_station(DcfStationConfig{});
  const int b = sim.add_station(DcfStationConfig{});
  sim.run(Duration::seconds(2.0));
  const double ga = sim.stats(a).goodput(sim.elapsed()).to_mbps();
  const double gb = sim.stats(b).goodput(sim.elapsed()).to_mbps();
  EXPECT_GT(ga, 0.0);
  EXPECT_GT(gb, 0.0);
  EXPECT_NEAR(ga / (ga + gb), 0.5, 0.1);
}

TEST(WifiDcf, ContentionWastesCapacity) {
  // Aggregate of N contending stations is below a lone station's rate.
  auto aggregate = [](int n) {
    DcfSimulator sim{3};
    for (int i = 0; i < n; ++i) sim.add_station(DcfStationConfig{});
    sim.run(Duration::seconds(1.0));
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      total += sim.stats(i).goodput(sim.elapsed()).to_mbps();
    }
    return total;
  };
  const double one = aggregate(1);
  const double eight = aggregate(8);
  EXPECT_LT(eight, one);
}

TEST(WifiDcf, HiddenTerminalsCollideBadly) {
  // a and b cannot sense each other but both corrupt frames at the common
  // receiver — the classic hidden-terminal pathology.
  DcfSimulator hidden{4};
  const int ha = hidden.add_station(DcfStationConfig{});
  const int hb = hidden.add_station(DcfStationConfig{});
  hidden.set_sensing(ha, hb, false);
  hidden.run(Duration::seconds(1.0));

  DcfSimulator exposed{4};
  const int ea = exposed.add_station(DcfStationConfig{});
  const int eb = exposed.add_station(DcfStationConfig{});
  exposed.run(Duration::seconds(1.0));
  (void)ea;
  (void)eb;

  // Exponential backoff adapts, so the pathology shows as a large
  // multiple of collisions and a substantial throughput loss rather than
  // total starvation.
  const auto h_coll = hidden.stats(ha).collisions + hidden.stats(hb).collisions;
  const auto e_coll =
      exposed.stats(ea).collisions + exposed.stats(eb).collisions;
  EXPECT_GT(h_coll, 4 * std::max<std::int64_t>(e_coll, 1));

  const double h_good = hidden.stats(ha).delivered_bits +
                        hidden.stats(hb).delivered_bits;
  const double e_good = exposed.stats(ea).delivered_bits +
                        exposed.stats(eb).delivered_bits;
  EXPECT_LT(h_good, 0.7 * e_good);
}

TEST(WifiDcf, IndependentCollisionDomainsDontInteract) {
  DcfSimulator sim{5};
  const int a = sim.add_station(DcfStationConfig{});
  const int b = sim.add_station(DcfStationConfig{});
  // Fully isolate the two stations (different towns).
  sim.set_sensing(a, b, false);
  sim.set_interference(a, b, false);
  sim.set_interference(b, a, false);
  sim.run(Duration::seconds(1.0));
  // Each performs like a lone station.
  EXPECT_GT(sim.stats(a).goodput(sim.elapsed()).to_mbps(), 14.0);
  EXPECT_GT(sim.stats(b).goodput(sim.elapsed()).to_mbps(), 14.0);
  EXPECT_EQ(sim.stats(a).collisions, 0);
}

TEST(WifiDcf, UnsaturatedStationDeliversOfferedLoad) {
  DcfSimulator sim{6};
  // 100 frames/s of 1500 B = 1.2 Mb/s, far below capacity.
  const int s = sim.add_station(DcfStationConfig{
      .saturated = false, .arrival_fps = 100.0, .frame_bytes = 1500});
  sim.run(Duration::seconds(2.0));
  const auto& st = sim.stats(s);
  EXPECT_NEAR(static_cast<double>(st.delivered_frames), 200.0, 40.0);
  EXPECT_EQ(st.dropped_frames, 0);
}

TEST(WifiDcf, ChannelErrorsCountedSeparatelyFromCollisions) {
  DcfSimulator sim{7};
  const int s = sim.add_station(DcfStationConfig{.channel_fer = 0.3});
  sim.run(Duration::seconds(0.5));
  EXPECT_GT(sim.stats(s).channel_losses, 0);
  EXPECT_EQ(sim.stats(s).collisions, 0);
}

TEST(WifiDcf, RetryLimitDropsFrames) {
  // Two permanently-hidden saturated stations: every frame collides, so
  // frames are eventually dropped at the retry limit.
  DcfSimulator sim{8};
  const int a = sim.add_station(DcfStationConfig{.retry_limit = 2});
  const int b = sim.add_station(DcfStationConfig{.retry_limit = 2});
  sim.set_sensing(a, b, false);
  sim.run(Duration::seconds(1.0));
  EXPECT_GT(sim.stats(a).dropped_frames + sim.stats(b).dropped_frames, 0);
}

TEST(WifiDcf, DeterministicForSameSeed) {
  auto run_once = [] {
    DcfSimulator sim{42};
    sim.add_station(DcfStationConfig{});
    sim.add_station(DcfStationConfig{});
    sim.run(Duration::seconds(0.5));
    return sim.stats(0).delivered_frames;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(WifiDcf, CcaReportsBusyWhileSensedStationTransmits) {
  DcfSimulator sim{10};
  const int a = sim.add_station(DcfStationConfig{});
  const int b = sim.add_station(DcfStationConfig{});
  // Step slot by slot until one station is on the air, then check CCA on
  // both sides of the sensing relation.
  bool observed = false;
  for (int i = 0; i < 2000 && !observed; ++i) {
    sim.run(phy::kSlot);
    if (sim.transmitting(a)) {
      EXPECT_TRUE(sim.medium_busy_for(b));
      EXPECT_FALSE(sim.medium_busy_for(a));  // Own frame is not CCA busy.
      observed = true;
    }
  }
  EXPECT_TRUE(observed);
}

TEST(WifiDcf, CcaIgnoresStationsOutsideSensingRange) {
  DcfSimulator sim{11};
  const int a = sim.add_station(DcfStationConfig{});
  const int b = sim.add_station(DcfStationConfig{});
  sim.set_sensing(a, b, false);
  bool observed = false;
  for (int i = 0; i < 2000 && !observed; ++i) {
    sim.run(phy::kSlot);
    if (sim.transmitting(a) && !sim.transmitting(b)) {
      EXPECT_FALSE(sim.medium_busy_for(b));  // Hidden: b cannot hear a.
      observed = true;
    }
  }
  EXPECT_TRUE(observed);
}

TEST(WifiDcf, HiddenTerminalAccountingIsConsistent) {
  // Every attempt ends exactly one way: delivered, collided, or lost to
  // channel error; drops are a subset of failed attempts.
  DcfSimulator sim{12};
  const int a = sim.add_station(DcfStationConfig{.retry_limit = 3});
  const int b = sim.add_station(DcfStationConfig{.retry_limit = 3});
  sim.set_sensing(a, b, false);
  sim.run(Duration::seconds(1.0));
  for (int s : {a, b}) {
    const auto& st = sim.stats(s);
    // A frame still in flight at the horizon is attempted but unresolved.
    const std::int64_t in_flight = sim.transmitting(s) ? 1 : 0;
    EXPECT_EQ(st.attempts,
              st.delivered_frames + st.collisions + st.channel_losses +
                  in_flight);
    EXPECT_LE(st.dropped_frames, st.collisions + st.channel_losses);
    EXPECT_GT(st.collisions, 0);
  }
}

TEST(DcfBackoff, DrawsAreDeterministicPerDerivedStream) {
  // The backoff discipline the coexistence subsystem reuses: draws from
  // streams derived with the same (seed, component, index) must agree,
  // and distinct indices must give distinct sequences.
  auto draws = [](std::uint64_t index) {
    auto rng = sim::RngStream::derive(7, "coex-lte", index);
    DcfBackoff backoff{7};
    std::vector<int> out;
    for (int i = 0; i < 32; ++i) {
      out.push_back(backoff.draw(rng));
      (void)backoff.note_failure();  // Widen CW as a losing station would.
    }
    return out;
  };
  EXPECT_EQ(draws(0), draws(0));
  EXPECT_EQ(draws(3), draws(3));
  EXPECT_NE(draws(0), draws(1));
}

TEST(DcfBackoff, WindowDoublesOnFailureAndResetsOnSuccess) {
  DcfBackoff backoff{7};
  EXPECT_EQ(backoff.contention_window(), 15);
  EXPECT_FALSE(backoff.note_failure());
  EXPECT_EQ(backoff.contention_window(), 31);
  EXPECT_FALSE(backoff.note_failure());
  EXPECT_EQ(backoff.contention_window(), 63);
  backoff.note_success();
  EXPECT_EQ(backoff.contention_window(), 15);
}

TEST(DcfBackoff, RetryLimitSignalsDropAndResets) {
  DcfBackoff backoff{2};
  EXPECT_FALSE(backoff.note_failure());
  EXPECT_FALSE(backoff.note_failure());
  EXPECT_TRUE(backoff.note_failure());  // Third failure exceeds limit 2.
  EXPECT_EQ(backoff.contention_window(), 15);
  // The retry count restarted too: the next frame gets the full budget.
  EXPECT_FALSE(backoff.note_failure());
  EXPECT_FALSE(backoff.note_failure());
  EXPECT_TRUE(backoff.note_failure());
}

TEST(DcfBackoff, WindowIsCappedAtCwMax) {
  DcfBackoff backoff{100};
  // 15 → 31 → … → 1023 in six doublings; four more stay at the cap.
  for (int i = 0; i < 10; ++i) (void)backoff.note_failure();
  EXPECT_EQ(backoff.contention_window(), phy::kCwMax);
}

// Parameterized: aggregate goodput decreases (or at best saturates) as
// contenders are added — DCF's collision overhead grows with n.
class ContenderSweep : public ::testing::TestWithParam<int> {};

TEST_P(ContenderSweep, AggregateNonIncreasingInContention) {
  const int n = GetParam();
  auto aggregate = [](int k) {
    DcfSimulator sim{9};
    for (int i = 0; i < k; ++i) sim.add_station(DcfStationConfig{});
    sim.run(Duration::seconds(1.0));
    double total = 0.0;
    for (int i = 0; i < k; ++i) total += sim.stats(i).delivered_bits;
    return total;
  };
  EXPECT_LE(aggregate(n + 2), aggregate(n) * 1.03);
}

INSTANTIATE_TEST_SUITE_P(Contenders, ContenderSweep,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace dlte::mac
