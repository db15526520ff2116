// Seeded property test of the sharded runtime (DESIGN.md §11): random
// endpoint graphs, random placements over 1–8 shards and 1–4 threads,
// random message traffic and local timers, run to the horizon in several
// run_until calls of random length. Every message must be delivered at
// its deliver_at, and every configuration must reproduce the 1-shard,
// 1-thread run exactly: each endpoint's delivery log, the runtime's
// event, window, inline-window, message and clamp totals, the earliest
// pending event after every run_until call, and the partition-invariant
// merged artifacts (metrics, series, audit digests).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "obs/audit_export.h"
#include "par/sharded_sim.h"
#include "sim/random.h"

namespace dlte::par {
namespace {

constexpr Duration kLookahead = Duration::millis(1);
// Every endpoint stops posting after this many posts, so a run drains.
constexpr std::uint32_t kPostBudget = 40;

struct Received {
  std::int64_t at_ns{0};
  EndpointId src{0};
  std::uint64_t seq{0};
  std::uint16_t kind{0};
  std::vector<std::uint8_t> payload;

  bool operator==(const Received& o) const {
    return std::tie(at_ns, src, seq, kind, payload) ==
           std::tie(o.at_ns, o.src, o.seq, o.kind, o.payload);
  }
};

// The scenario, drawn from the seed alone: the graph, the per-endpoint
// random streams and the run_until horizons never depend on the
// partition, so every configuration must behave the same.
struct Graph {
  std::uint64_t seed{0};
  std::vector<std::vector<EndpointId>> neighbours;
  std::vector<TimePoint> horizons;  // One run_until call each.
};

Graph draw_graph(std::uint64_t seed) {
  sim::RngStream rng = sim::RngStream::derive(seed, "graph");
  Graph g;
  g.seed = seed;
  const std::size_t endpoints = rng.uniform_int(4, 32);
  g.neighbours.resize(endpoints);
  for (auto& out : g.neighbours) {
    const std::size_t degree = rng.uniform_int(1, 4);
    for (std::size_t i = 0; i < degree; ++i) {
      // Self-loops allowed: a post to oneself still crosses the barrier.
      out.push_back(static_cast<EndpointId>(rng.uniform_int(0, endpoints - 1)));
    }
  }
  // Horizons: random lengths, some on the window grid and some off it,
  // and some zero-length calls that only flush.
  std::int64_t t = 0;
  for (int i = 0, calls = static_cast<int>(rng.uniform_int(3, 8)); i < calls;
       ++i) {
    switch (rng.uniform_int(0, 3)) {
      case 0:
        break;
      case 1:
        t += static_cast<std::int64_t>(rng.uniform_int(1, 30)) *
             kLookahead.ns();
        break;
      default:
        t += static_cast<std::int64_t>(rng.uniform_int(1, 30'000'000));
        break;
    }
    g.horizons.push_back(TimePoint::from_ns(t));
  }
  return g;
}

struct Outcome {
  std::vector<std::vector<Received>> logs;
  std::vector<std::int64_t> earliest_after_call;
  std::uint64_t events{0};
  std::uint64_t windows{0};
  std::uint64_t windows_inline{0};
  std::uint64_t messages{0};
  std::uint64_t clamped{0};
  std::uint64_t late{0};  // Deliveries off their deliver_at.
  std::string metrics;
  std::string series;
  std::string audit_merged;
};

// Per-endpoint state, written only from handlers and timers running on
// the endpoint's own shard.
struct Node {
  sim::RngStream rng;
  std::uint32_t posts{0};
  std::uint64_t late{0};
  std::vector<Received> log;
  obs::Counter* rx{nullptr};
};

Outcome run(const Graph& g, std::size_t shards, std::size_t threads,
            const std::vector<std::size_t>& placement) {
  ShardedConfig cfg;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.lookahead = kLookahead;
  cfg.sample_interval = Duration::millis(7);
  cfg.engine_sample_interval = Duration::millis(3);
  cfg.audit = true;
  cfg.audit_window = Duration::millis(10);
  cfg.profile = g.seed % 2 == 0;
  ShardedSimulator rt{cfg};

  const std::size_t n = g.neighbours.size();
  std::vector<Node> nodes(n);
  std::vector<std::uint32_t> timer_label(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    timer_label[s] = rt.shard_sim(s).label("prop.timer");
  }

  // Post one or two messages to random neighbours (until the budget is
  // spent): random kind, payload and delay, a third of the delays below
  // the lookahead (clamped).
  const auto emit = [&](EndpointId self) {
    Node& node = nodes[self];
    const std::uint64_t fanout = node.rng.uniform_int(1, 2);
    for (std::uint64_t i = 0; i < fanout && node.posts < kPostBudget; ++i) {
      ++node.posts;
      const auto& out = g.neighbours[self];
      const EndpointId dst = out[node.rng.uniform_int(0, out.size() - 1)];
      // Quarter-lookahead steps make simultaneous deliveries common.
      Duration delay = Duration::nanos(
          static_cast<std::int64_t>(node.rng.uniform_int(0, 12)) *
          kLookahead.ns() / 4);
      if (node.rng.bernoulli(0.2)) {
        delay = delay + Duration::nanos(static_cast<std::int64_t>(
                            node.rng.uniform_int(1, 999)));
      }
      std::vector<std::uint8_t> payload(node.rng.uniform_int(0, 8));
      for (auto& byte : payload) {
        byte = static_cast<std::uint8_t>(node.rng.uniform_int(0, 255));
      }
      rt.post(self, dst, delay,
              static_cast<std::uint16_t>(node.rng.uniform_int(0, 5)),
              std::move(payload));
    }
  };

  for (std::size_t ep = 0; ep < n; ++ep) {
    const std::size_t shard = placement[ep];
    const auto self = static_cast<EndpointId>(ep);
    nodes[ep].rng = sim::RngStream::derive(g.seed, "endpoint", ep);
    nodes[ep].rx =
        &rt.shard_registry(shard).counter("ep" + std::to_string(ep) + ".rx");
    rt.register_endpoint(self, shard, [&, self, shard](const Message& m) {
      Node& node = nodes[self];
      sim::Simulator& sim = rt.shard_sim(shard);
      node.log.push_back(
          Received{sim.now().ns(), m.src, m.seq, m.kind, m.payload});
      if (m.deliver_at != sim.now()) ++node.late;
      node.rx->inc();
      // Sometimes answer later from a local timer: its tie-break seq
      // interleaves with deliveries injected into the same engine.
      if (node.rng.bernoulli(0.3)) {
        const Duration later = Duration::nanos(
            static_cast<std::int64_t>(node.rng.uniform_int(0, 8)) *
            kLookahead.ns() / 4);
        sim.schedule(later, [&emit, self] { emit(self); },
                     timer_label[shard]);
      } else {
        emit(self);
      }
    });
  }
  // Set-up posts: every endpoint starts one exchange.
  for (std::size_t ep = 0; ep < n; ++ep) {
    ++nodes[ep].posts;
    rt.post(static_cast<EndpointId>(ep), g.neighbours[ep].front(),
            Duration::nanos(0), 1, {static_cast<std::uint8_t>(ep)});
  }

  Outcome out;
  for (const TimePoint horizon : g.horizons) {
    rt.run_until(horizon);
    // run_until's contract: every posted message is in its destination
    // queue when the call returns.
    std::int64_t earliest = std::numeric_limits<std::int64_t>::max();
    for (std::size_t s = 0; s < shards; ++s) {
      earliest = std::min(earliest, rt.shard_sim(s).next_event_time().ns());
    }
    out.earliest_after_call.push_back(earliest);
  }
  for (Node& node : nodes) {
    out.logs.push_back(std::move(node.log));
    out.late += node.late;
  }
  for (std::size_t s = 0; s < shards; ++s) {
    out.late += rt.shard_sim(s).schedule_past_events();
  }
  out.events = rt.events_executed();
  out.windows = rt.windows_run();
  out.windows_inline = rt.windows_inline();
  out.messages = rt.messages_exchanged();
  out.clamped = rt.posts_clamped();
  out.metrics = rt.merged_metrics_json();
  out.series = rt.merged_series_json("property");
  out.audit_merged = obs::AuditExporter::merged_json(rt.audit_doc());
  return out;
}

TEST(ShardedSimProperty, AnyPartitionAndThreadCountMatchesOneShard) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Graph g = draw_graph(seed);
    const std::size_t n = g.neighbours.size();
    const Outcome ref = run(g, 1, 1, std::vector<std::size_t>(n, 0));
    ASSERT_GT(ref.messages, n) << "the traffic never got going";
    ASSERT_GT(ref.clamped, 0u) << "no post was clamped";
    EXPECT_EQ(ref.late, 0u);

    sim::RngStream rng = sim::RngStream::derive(seed, "partition");
    for (int trial = 0; trial < 4; ++trial) {
      const std::size_t shards = rng.uniform_int(1, 8);
      const std::size_t threads =
          rng.uniform_int(1, std::min<std::size_t>(shards, 4));
      std::vector<std::size_t> placement(n);
      for (auto& shard : placement) shard = rng.uniform_int(0, shards - 1);
      SCOPED_TRACE("shards " + std::to_string(shards) + " threads " +
                   std::to_string(threads));
      const Outcome got = run(g, shards, threads, placement);
      for (std::size_t ep = 0; ep < n; ++ep) {
        EXPECT_EQ(got.logs[ep], ref.logs[ep]) << "endpoint " << ep;
      }
      EXPECT_EQ(got.earliest_after_call, ref.earliest_after_call);
      EXPECT_EQ(got.events, ref.events);
      EXPECT_EQ(got.windows, ref.windows);
      EXPECT_EQ(got.windows_inline, ref.windows_inline);
      EXPECT_EQ(got.messages, ref.messages);
      EXPECT_EQ(got.clamped, ref.clamped);
      EXPECT_EQ(got.late, 0u);
      EXPECT_EQ(got.metrics, ref.metrics);
      EXPECT_EQ(got.series, ref.series);
      EXPECT_EQ(got.audit_merged, ref.audit_merged);
    }
  }
}

}  // namespace
}  // namespace dlte::par
