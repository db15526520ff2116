// The column store's allocation contract: a sample writes one row, so
// it allocates at most the row itself (and the ring's growth) while the
// ring fills, and nothing once the ring is full — never one allocation
// per series. This binary replaces the global operator new to count
// allocations, so it holds this test alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "obs/series.h"

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

namespace dlte::obs {
namespace {

TimePoint at(int t_s) { return TimePoint{} + Duration::seconds(t_s); }

TEST(TimeSeriesSampler, SampleAllocatesNothingPerSeries) {
  MetricsRegistry reg;
  for (int i = 0; i < 500; ++i) {
    reg.counter("c" + std::to_string(i)).inc(static_cast<std::uint64_t>(i));
    reg.gauge("g" + std::to_string(i)).set(i);
    reg.histogram("h" + std::to_string(i)).record(i + 1.0);
  }
  SamplerConfig config;
  config.capacity = 8;
  TimeSeriesSampler sampler{reg, config};
  sampler.sample(at(1));  // Binds 3,500 series.

  long before = g_allocations.load();
  for (int s = 2; s <= 8; ++s) sampler.sample(at(s));
  // Filling: each sample allocates its row, plus the ring's own growth.
  EXPECT_LE(g_allocations.load() - before, 2 * 7);

  before = g_allocations.load();
  for (int s = 9; s <= 50; ++s) sampler.sample(at(s));
  // Full: every sample reuses the oldest row.
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_EQ(sampler.columns_by_name().size(), 3500u);
}

}  // namespace
}  // namespace dlte::obs
