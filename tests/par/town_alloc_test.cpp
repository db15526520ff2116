// The attach path's allocation budget. A small one-shard town runs twice:
// to a one-microsecond horizon (building the scenario and nothing else)
// and to its full horizon, with X2 reports and telemetry sampling off. The
// difference, divided by the attaches that completed, is what one attach
// costs in heap allocations while the town runs: its S1AP messages, NAS
// PDUs, events and contexts. The bound holds that cost well under what it
// was when every S1AP hop copied its message and hashed its ids, so a
// copy creeping back into the path fails here. This binary replaces the
// global operator new to count allocations, so it holds this test alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "par/town.h"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dlte::par {
namespace {

TownConfig small_town(Duration horizon) {
  TownConfig config;
  config.aps = 4;
  config.ues_per_ap = 16;
  config.shards = 1;
  config.threads = 1;
  config.horizon = horizon;
  // No X2 reports and no telemetry samples: the attaches are all it does.
  config.report_interval = Duration::seconds(60.0);
  config.sample_interval = Duration{};
  return config;
}

// Allocations made by constructing and running a town to `horizon`.
long allocations_to(Duration horizon, TownResult& result) {
  const long before = g_allocations.load();
  {
    ShardedTown town{small_town(horizon)};
    result = town.run();
  }
  return g_allocations.load() - before;
}

TEST(TownAllocations, AttachPathStaysUnderItsBudget) {
  TownResult build_only;
  const long build = allocations_to(Duration::micros(1), build_only);
  TownResult full;
  const long total = allocations_to(Duration::seconds(5.0), full);
  ASSERT_EQ(full.attaches_completed, 64u);
  ASSERT_EQ(full.attaches_failed, 0u);
  const double per_attach =
      static_cast<double>(total - build) /
      static_cast<double>(full.attaches_completed);
  std::printf("allocations per completed attach: %.1f\n", per_attach);
  // Before the attach path moved its messages and indexed its ids this
  // read 73.0; the bound is half of that.
  EXPECT_LE(per_attach, 36.5);
}

}  // namespace
}  // namespace dlte::par
