#include "par/sharded_sim.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace dlte::par {
namespace {

ShardedConfig two_shards(std::size_t threads) {
  ShardedConfig cfg;
  cfg.shards = 2;
  cfg.threads = threads;
  cfg.lookahead = Duration::millis(1);
  return cfg;
}

TEST(ShardedSimulator, CrossShardPingPongPaysLookaheadPerHop) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardedSimulator rt{two_shards(threads)};
    std::vector<double> deliveries_ms;
    int bounces = 0;
    rt.register_endpoint(0, 0, [&](const Message& m) {
      deliveries_ms.push_back(rt.shard_sim(0).now().to_millis());
      EXPECT_EQ(m.src, 1u);
      rt.post(0, 1, Duration::millis(1), 0, {});
    });
    rt.register_endpoint(1, 1, [&](const Message& m) {
      deliveries_ms.push_back(rt.shard_sim(1).now().to_millis());
      EXPECT_EQ(m.src, 0u);
      if (++bounces < 3) rt.post(1, 0, Duration::millis(1), 0, {});
    });
    rt.post(0, 1, Duration::millis(1), 0, {});
    rt.run_until(TimePoint::from_ns(0) + Duration::millis(10));
    // 0→1 at 1ms, 1→0 at 2ms, 0→1 at 3ms, ... one lookahead per hop.
    EXPECT_EQ(deliveries_ms,
              (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}))
        << "threads=" << threads;
    EXPECT_EQ(rt.messages_exchanged(), 5u);
    EXPECT_DOUBLE_EQ(rt.shard_sim(0).now().to_millis(), 10.0);
    EXPECT_DOUBLE_EQ(rt.shard_sim(1).now().to_millis(), 10.0);
  }
}

TEST(ShardedSimulator, ShortPostsClampToLookaheadAndCount) {
  ShardedSimulator rt{two_shards(1)};
  double delivered_ms = -1.0;
  rt.register_endpoint(0, 0, [](const Message&) {});
  rt.register_endpoint(1, 1, [&](const Message& m) {
    delivered_ms = m.deliver_at.to_millis();
  });
  rt.post(0, 1, Duration::micros(10), 0, {});  // Below the 1 ms lookahead.
  rt.run_until(TimePoint::from_ns(0) + Duration::millis(5));
  EXPECT_DOUBLE_EQ(delivered_ms, 1.0);
  EXPECT_EQ(rt.posts_clamped(), 1u);
}

TEST(ShardedSimulator, SimultaneousMessagesInjectInEndpointSeqOrder) {
  // Three sources on two shards all target endpoint 9 at the same
  // instant. Whatever order the outboxes are gathered in, injection must
  // follow (deliver_at, src, per-source seq).
  ShardedSimulator rt{two_shards(2)};
  std::vector<std::pair<std::uint32_t, std::uint64_t>> order;
  rt.register_endpoint(0, 0, [](const Message&) {});
  rt.register_endpoint(1, 1, [](const Message&) {});
  rt.register_endpoint(2, 1, [](const Message&) {});
  rt.register_endpoint(9, 0, [&](const Message& m) {
    order.emplace_back(m.src, m.seq);
  });
  // Posted in scrambled source order; second post from src 2 first.
  rt.post(2, 9, Duration::millis(2), 0, {});
  rt.post(1, 9, Duration::millis(2), 0, {});
  rt.post(2, 9, Duration::millis(2), 0, {});
  rt.post(0, 9, Duration::millis(2), 0, {});
  rt.run_until(TimePoint::from_ns(0) + Duration::millis(5));
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> expected{
      {0u, 0u}, {1u, 0u}, {2u, 0u}, {2u, 1u}};
  EXPECT_EQ(order, expected);
}

// An unregistered endpoint is a scenario bug: post() must name it in
// every build type, not dereference a missing map entry (source) or
// leave it for a later lookup to trip over (destination).
TEST(ShardedSimulator, PostFromAnUnregisteredSourceThrows) {
  ShardedSimulator rt{two_shards(1)};
  rt.register_endpoint(1, 1, [](const Message&) {});
  EXPECT_THROW(rt.post(7, 1, Duration::millis(1), 0, {}), std::out_of_range);
  try {
    (void)rt.owner_of(7);
    ADD_FAILURE() << "owner_of(7) did not throw";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find('7'), std::string::npos);
  }
}

TEST(ShardedSimulator, PostToAnUnregisteredDestinationThrows) {
  ShardedSimulator rt{two_shards(1)};
  int delivered = 0;
  rt.register_endpoint(0, 0, [&](const Message&) { ++delivered; });
  EXPECT_THROW(rt.post(0, 7, Duration::millis(1), 0, {}), std::out_of_range);
  // The refused post left nothing behind: the run is clean.
  rt.post(0, 0, Duration::millis(1), 0, {});
  EXPECT_NO_THROW(rt.run_until(TimePoint::from_ns(0) + Duration::millis(3)));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rt.messages_exchanged(), 1u);
}

// The same bug inside a window reaches the run_until caller instead of
// ending the program. Both shards throw, and a thread stops claiming
// after its throw, so with two threads the worker's claim throws too.
TEST(ShardedSimulator, PostToAnUnregisteredEndpointInAWindowThrowsToTheCaller) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardedSimulator rt{two_shards(threads)};
    rt.register_endpoint(0, 0, [&](const Message&) {
      rt.post(0, 7, Duration::millis(1), 0, {});
    });
    rt.register_endpoint(1, 1, [&](const Message&) {
      rt.post(1, 7, Duration::millis(1), 0, {});
    });
    rt.post(0, 1, Duration::millis(1), 0, {});
    rt.post(1, 0, Duration::millis(1), 0, {});
    EXPECT_THROW(rt.run_until(TimePoint::from_ns(0) + Duration::millis(5)),
                 std::out_of_range)
        << "threads=" << threads;
  }
}

TEST(ShardedSimulator, IdleWindowsAreSkippedOnTheGrid) {
  // One event a second into the run with a 1 ms lookahead: the runtime
  // must jump to it rather than grind through ~1000 empty windows.
  ShardedSimulator rt{two_shards(1)};
  rt.register_endpoint(0, 0, [](const Message&) {});
  rt.register_endpoint(1, 1, [](const Message&) {});
  double seen_ms = -1.0;
  rt.shard_sim(1).schedule(Duration::seconds(1.0), [&] {
    seen_ms = rt.shard_sim(1).now().to_millis();
  });
  rt.run_until(TimePoint::from_ns(0) + Duration::seconds(2.0));
  EXPECT_DOUBLE_EQ(seen_ms, 1000.0);
  EXPECT_LE(rt.windows_run(), 4u);
}

TEST(ShardedSimulator, QueueDepthCountsMessagesStillInFlight) {
  // A message posted in the window (0, 1ms] waits in its outbox until
  // the next window injects it; the barrier at 1 ms must still count it
  // as pending, as a queue filled at the barrier would.
  ShardedConfig cfg = two_shards(2);
  cfg.engine_sample_interval = Duration::millis(1);
  ShardedSimulator rt{cfg};
  rt.register_endpoint(0, 0, [](const Message&) {});
  rt.register_endpoint(1, 1, [](const Message&) {});
  rt.shard_sim(0).schedule(Duration::micros(500), [&] {
    rt.post(0, 1, Duration::millis(5), 0, {});
  });
  rt.run_until(TimePoint::from_ns(0) + Duration::millis(8));
  const std::string series = rt.merged_series_json("depth");
  const std::size_t at = series.find("\"sim.queue_depth\"");
  ASSERT_NE(at, std::string::npos);
  const std::size_t points = series.find("\"points\":", at);
  ASSERT_NE(points, std::string::npos);
  // 1 ms: in flight; 2–5 ms: sampled at the 6 ms barrier, delivered.
  const std::string expected = "\"points\":[[0.001,1],[0.002,0]";
  EXPECT_EQ(series.compare(points, expected.size(), expected), 0)
      << series.substr(at, 160);
}

TEST(ShardedSimulator, MergedMetricsFoldDomainRegistries) {
  ShardedSimulator rt{two_shards(1)};
  rt.shard_registry(0).counter("ap0.x").inc(2);
  rt.shard_registry(1).counter("ap1.x").inc(5);
  rt.shard_registry(0).counter("shared").inc(1);
  rt.shard_registry(1).counter("shared").inc(1);
  obs::MetricsRegistry merged;
  rt.merged_metrics_into(merged);
  EXPECT_EQ(merged.counter("ap0.x").value(), 2u);
  EXPECT_EQ(merged.counter("ap1.x").value(), 5u);
  EXPECT_EQ(merged.counter("shared").value(), 2u);
}

TEST(ShardedSimulator, RuntimeMetricsLandInAttachedRegistry) {
  ShardedSimulator rt{two_shards(2)};
  obs::MetricsRegistry reg;
  rt.set_metrics(&reg);
  rt.register_endpoint(0, 0, [](const Message&) {});
  rt.register_endpoint(1, 1, [](const Message&) {});
  rt.post(0, 1, Duration::micros(1), 0, {});
  rt.run_until(TimePoint::from_ns(0) + Duration::millis(3));
  EXPECT_EQ(reg.counter("par.messages").value(), 1u);
  EXPECT_EQ(reg.counter("par.posts_clamped").value(), 1u);
  EXPECT_GT(reg.counter("par.windows").value(), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("par.shards").value(), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("par.threads").value(), 2.0);
}

TEST(ShardedSimulator, CoordinatorSamplingIsOnTheConfiguredCadence) {
  ShardedConfig cfg = two_shards(1);
  cfg.sample_interval = Duration::millis(10);
  ShardedSimulator rt{cfg};
  rt.register_endpoint(0, 0, [](const Message&) {});
  rt.register_endpoint(1, 1, [](const Message&) {});
  rt.shard_registry(0).counter("ap0.c").inc(1);
  rt.run_until(TimePoint::from_ns(0) + Duration::millis(50));
  // Five samples, the first at t = 10 ms.
  const std::string json = rt.merged_series_json("cadence");
  EXPECT_NE(json.find("\"samples\":5,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ap0.c\":{\"kind\":\"counter\",\"dropped\":0,"
                      "\"points\":[[0.01,1],[0.02,1],[0.03,1],[0.04,1],"
                      "[0.05,1]]}"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace dlte::par
