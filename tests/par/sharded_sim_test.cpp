#include "par/sharded_sim.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
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

ShardedConfig four_shards(std::size_t threads) {
  ShardedConfig cfg = two_shards(threads);
  cfg.shards = 4;
  return cfg;
}

TimePoint at_ms(std::int64_t ms) {
  return TimePoint::from_ns(0) + Duration::millis(ms);
}

// The thread ids the handlers ran on, from any thread.
struct ThreadLog {
  std::mutex mu;
  std::vector<std::thread::id> ids;

  void record() {
    std::lock_guard<std::mutex> lock(mu);
    ids.push_back(std::this_thread::get_id());
  }
};

TEST(ShardedSimulator, CrossShardPingPongPaysLookaheadPerHop) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    ShardedSimulator rt{two_shards(threads)};
    std::vector<double> deliveries_ms;
    int bounces = 0;
    rt.register_endpoint(0, 0, [&](const Message& m) {
      deliveries_ms.push_back(
          (rt.shard_sim(0).now() - TimePoint{}).to_millis());
      EXPECT_EQ(m.src, 1u);
      rt.post(0, 1, Duration::millis(1), 0, {});
    });
    rt.register_endpoint(1, 1, [&](const Message& m) {
      deliveries_ms.push_back(
          (rt.shard_sim(1).now() - TimePoint{}).to_millis());
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
    EXPECT_DOUBLE_EQ((rt.shard_sim(0).now() - TimePoint{}).to_millis(), 10.0);
    EXPECT_DOUBLE_EQ((rt.shard_sim(1).now() - TimePoint{}).to_millis(), 10.0);
  }
}

TEST(ShardedSimulator, ShortPostsClampToLookaheadAndCount) {
  ShardedSimulator rt{two_shards(1)};
  double delivered_ms = -1.0;
  rt.register_endpoint(0, 0, [](const Message&) {});
  rt.register_endpoint(1, 1, [&](const Message& m) {
    delivered_ms = (m.deliver_at - TimePoint{}).to_millis();
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
  try {
    rt.post(7, 1, Duration::millis(1), 0, {});
    ADD_FAILURE() << "post from 7 did not throw";
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
    seen_ms = (rt.shard_sim(1).now() - TimePoint{}).to_millis();
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

// Endpoint ids index a table: an id in a gap below the largest one is as
// unregistered as one past it, and a source's seq is its own.
TEST(ShardedSimulator, SparseEndpointIdsResolveAndGapsThrow) {
  ShardedSimulator rt{two_shards(2)};
  std::vector<std::pair<std::uint32_t, std::uint64_t>> at_1000;
  int at_5 = 0;
  // Each handler counts on its own shard's registry.
  rt.register_endpoint(1000, 1, [&](const Message& m) {
    at_1000.emplace_back(m.src, m.seq);
    rt.shard_registry(1).counter("ep1000.rx").inc();
  });
  rt.register_endpoint(5, 0, [&](const Message&) {
    ++at_5;
    rt.shard_registry(0).counter("ep5.rx").inc();
  });
  rt.register_endpoint(0, 1, [](const Message&) {});
  for (const EndpointId gap : {1u, 4u, 6u, 999u, 1001u, 4'000'000'000u}) {
    try {
      rt.post(gap, 5, Duration::millis(1), 0, {});
      ADD_FAILURE() << "post from " << gap << " did not throw";
    } catch (const std::out_of_range& e) {
      EXPECT_NE(std::string(e.what()).find(std::to_string(gap)),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(rt.post(5, gap, Duration::millis(1), 0, {}),
                 std::out_of_range)
        << gap;
  }
  rt.post(5, 1000, Duration::millis(1), 0, {});
  rt.post(0, 1000, Duration::millis(1), 0, {});
  rt.post(5, 1000, Duration::millis(1), 0, {});
  rt.post(1000, 5, Duration::millis(1), 0, {});
  rt.run_until(at_ms(3));
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> expected{
      {0u, 0u}, {5u, 0u}, {5u, 1u}};
  EXPECT_EQ(at_1000, expected);
  EXPECT_EQ(at_5, 1);
  EXPECT_TRUE(rt.shared_metric_names().empty());
}

// A few events per window: after the first window (always heavy, having
// no previous one to measure) every window is light, so every handler
// runs on the run_until caller's thread although three workers wait.
TEST(ShardedSimulator, LightWindowsRunOnTheCallersThread) {
  ShardedSimulator rt{four_shards(4)};
  ThreadLog log;
  std::atomic<int> hops{0};
  for (EndpointId ep = 0; ep < 4; ++ep) {
    rt.register_endpoint(ep, ep, [&rt, &log, &hops, ep](const Message&) {
      log.record();
      if (++hops < 40) rt.post(ep, (ep + 1) % 4, Duration::millis(1), 0, {});
    });
  }
  rt.post(0, 1, Duration::millis(1), 0, {});
  rt.post(2, 3, Duration::millis(1), 0, {});
  rt.run_until(at_ms(60));
  ASSERT_GE(log.ids.size(), 40u);
  // The first window, (0, 1 ms], delivered the two set-up posts.
  const std::thread::id caller = std::this_thread::get_id();
  for (std::size_t i = 2; i < log.ids.size(); ++i) {
    EXPECT_EQ(log.ids[i], caller) << "handler " << i;
  }
  EXPECT_EQ(rt.windows_inline(), rt.windows_run() - 1);
}

// kInlineWindowLoad messages about to be injected make the window heavy,
// one fewer keeps it light. In the heavy one, shard 0's handler waits for
// shard 1's: they meet only if another thread runs shard 1 meanwhile.
TEST(ShardedSimulator, LoadAtTheConstantPublishesTheWindowToThePool) {
  for (const std::uint64_t load : {ShardedSimulator::kInlineWindowLoad - 1,
                                   ShardedSimulator::kInlineWindowLoad}) {
    SCOPED_TRACE("load " + std::to_string(load));
    const bool heavy = load >= ShardedSimulator::kInlineWindowLoad;
    ShardedSimulator rt{four_shards(4)};
    ThreadLog log;
    std::atomic<bool> shard1_ran{false};
    bool met = false;
    rt.register_endpoint(0, 0, [&](const Message&) {
      log.record();
      if (!heavy) return;
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!shard1_ran.load() && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      met = shard1_ran.load();
    });
    rt.register_endpoint(1, 1, [&](const Message&) {
      log.record();
      shard1_ran.store(true);
    });
    rt.register_endpoint(2, 2, [](const Message&) {});
    rt.register_endpoint(3, 3, [](const Message&) {});
    rt.run_until(at_ms(1));  // The first window: heavy, empty.
    ASSERT_EQ(rt.windows_run(), 1u);
    rt.post(2, 0, Duration::millis(1), 0, {});
    rt.post(2, 1, Duration::millis(1), 0, {});
    for (std::uint64_t i = 2; i < load; ++i) {
      rt.post(3, 2 + i % 2, Duration::millis(1), 0, {});
    }
    rt.run_until(at_ms(2));
    EXPECT_EQ(rt.windows_run(), 2u);
    EXPECT_EQ(rt.windows_inline(), heavy ? 0u : 1u);
    ASSERT_EQ(log.ids.size(), 2u);
    if (heavy) {
      EXPECT_TRUE(met) << "shard 1 never ran beside shard 0";
      EXPECT_NE(log.ids[0], log.ids[1]);
    } else {
      EXPECT_EQ(log.ids[0], std::this_thread::get_id());
      EXPECT_EQ(log.ids[1], std::this_thread::get_id());
    }
  }
}

// A throw inside a light window leaves run_until on the caller's thread;
// the workers, parked all along, still join in the destructor.
TEST(ShardedSimulator, ThrowInALightWindowReachesTheCaller) {
  ShardedSimulator rt{four_shards(4)};
  ThreadLog log;
  rt.register_endpoint(0, 0, [](const Message&) {});
  rt.register_endpoint(3, 3, [&](const Message&) {
    log.record();
    throw std::runtime_error("handler failed");
  });
  rt.run_until(at_ms(1));
  rt.post(0, 3, Duration::millis(1), 0, {});
  EXPECT_THROW(rt.run_until(at_ms(5)), std::runtime_error);
  EXPECT_EQ(rt.windows_inline(), 1u);
  ASSERT_EQ(log.ids.size(), 1u);
  EXPECT_EQ(log.ids[0], std::this_thread::get_id());
}

// The barrier's choice reads only global totals, so the inline count is
// the same at every thread count: here single hops (light windows) with,
// every 10 ms, a burst whose size grows past kInlineWindowLoad.
TEST(ShardedSimulator, InlineWindowCountIsEqualAcrossThreadCounts) {
  std::vector<std::uint64_t> inline_counts;
  std::vector<std::uint64_t> windows;
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    ShardedConfig cfg = four_shards(threads);
    cfg.profile = true;
    ShardedSimulator rt{cfg};
    for (EndpointId ep = 0; ep < 4; ++ep) {
      rt.register_endpoint(ep, ep, [&rt, ep](const Message& m) {
        const std::int64_t now_ms = m.deliver_at.ns() / 1'000'000;
        if (m.kind == 1 || now_ms >= 80) return;
        if (now_ms % 10 == 0) {
          for (std::int64_t i = 0; i < now_ms; ++i) {
            rt.post(ep, static_cast<EndpointId>(i % 4), Duration::millis(1),
                    1, {});
          }
        }
        rt.post(ep, (ep + 1) % 4, Duration::millis(1), 0, {});
      });
    }
    rt.post(0, 1, Duration::millis(1), 0, {});
    rt.run_until(at_ms(100));
    inline_counts.push_back(rt.windows_inline());
    windows.push_back(rt.windows_run());
    EXPECT_EQ(rt.profile().windows_inline, rt.windows_inline());
  }
  for (std::size_t i = 1; i < inline_counts.size(); ++i) {
    EXPECT_EQ(inline_counts[i], inline_counts[0]) << "run " << i;
    EXPECT_EQ(windows[i], windows[0]) << "run " << i;
  }
  EXPECT_GT(inline_counts[0], 0u);
  EXPECT_LT(inline_counts[0], windows[0]);
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
