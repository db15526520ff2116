// A town's memory contract: an AP costs its own state, not arenas and
// timers sized for a busier node. A 64-AP town of 64 UEs each runs its
// attaches, X2 reports and telemetry at one shard to the default 5 s
// horizon; the high water of live heap bytes, divided by the APs, must
// stay under a budget. This binary replaces the global operator new to
// count live bytes, so it holds this test alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "par/town.h"

namespace {
std::atomic<long> g_live_bytes{0};
std::atomic<long> g_peak_bytes{0};
// Each block carries its size in a header, so delete can subtract it; 16
// bytes keep the payload as aligned as malloc's.
constexpr std::size_t kHeader = 16;
}  // namespace

void* operator new(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc{};
  *static_cast<std::size_t*>(block) = size;
  const long live =
      g_live_bytes.fetch_add(static_cast<long>(size),
                             std::memory_order_relaxed) +
      static_cast<long>(size);
  long peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(block) + kHeader;
}
// Out of line: inlined into gtest's `new TestClass`, the free() reads to
// GCC as a mismatch with operator new (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes.fetch_sub(static_cast<long>(*static_cast<std::size_t*>(block)),
                         std::memory_order_relaxed);
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  operator delete(p);
}

namespace dlte::par {
namespace {

constexpr int kAps = 64;
constexpr int kUesPerAp = 64;

TEST(TownMemory, BytesPerApStayUnderBudget) {
  const long before = g_live_bytes.load();
  g_peak_bytes.store(before);
  TownResult result;
  {
    TownConfig config;
    config.aps = kAps;
    config.ues_per_ap = kUesPerAp;
    config.shards = 1;
    config.threads = 1;
    config.seed = 42;
    ShardedTown town{config};
    result = town.run();
  }
  EXPECT_EQ(g_live_bytes.load(), before);  // The town gave it all back.
  ASSERT_EQ(result.attaches_completed,
            static_cast<std::uint64_t>(kAps) * kUesPerAp);

  const double per_ap =
      static_cast<double>(g_peak_bytes.load() - before) / kAps;
  std::printf("peak %ld B for %d APs: %.0f B per AP\n",
              g_peak_bytes.load() - before, kAps, per_ap);
  // 69.5 KB per AP. With a fixed 256-slot hop arena in every AP's
  // network this read 87.6 KB, and with three pending NAS timers per
  // attach besides, 103.8 KB.
  EXPECT_LE(per_ap, 75'000.0);
}

}  // namespace
}  // namespace dlte::par
