// The calendar queue's memory contract: the bytes it holds follow the
// pending set, not the largest burst each bucket of the ring ever saw.
// A hold model shaped like town_attach (an equal-time burst of 10,000
// events that ripples through the ring as short hops, a steady
// population of near events and two-second timers) runs until the burst
// has drained; the heap bytes still held by the queue must then fit a
// bound per event of the peak pending set (the action slab and its free
// list keep that peak) plus per pending key plus per bucket of the
// largest ring. This binary replaces the global operator new to count
// live bytes, so it holds this test alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>

#include "sim/event_queue.h"

namespace {
std::atomic<long> g_live_bytes{0};
// Each block carries its size in a header, so delete can subtract it; 16
// bytes keep the payload as aligned as malloc's.
constexpr std::size_t kHeader = 16;
}  // namespace

void* operator new(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc{};
  *static_cast<std::size_t*>(block) = size;
  g_live_bytes.fetch_add(static_cast<long>(size), std::memory_order_relaxed);
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

namespace dlte::sim {
namespace {

constexpr std::int64_t kMs = 1'000'000;

// Event kinds, carried in the label so a pop knows what to schedule next.
enum Kind : std::uint32_t { kNear = 1, kTimer = 2, kBurstHop = 3 };

struct HoldModel {
  CalendarQueue queue;
  std::mt19937_64 rng{42};
  std::uint64_t seq{0};
  std::size_t peak{0};
  std::size_t burst_left{0};

  void push(std::int64_t when_ns, Kind kind) {
    queue.push(QueuedEvent{TimePoint::from_ns(when_ns), seq++, [] {}, kind});
    if (queue.size() > peak) peak = queue.size();
  }
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(rng);
  }

  // Background: a near event schedules a near event or (one in four) a
  // 2 s timer; a timer schedules a near event.
  // Burst: every hop schedules the next hop 0-1 ms later; one in forty
  // hops ends and arms a 2 s timer instead, so the wave spreads as it
  // travels over a few hundred buckets and drains after about forty hops
  // per event.
  void step() {
    const QueuedEvent e = queue.pop();
    const std::int64_t now = e.when.ns();
    switch (e.label) {
      case kNear:
        if (uniform(0, 3) == 0) {
          push(now + 2'000 * kMs, kTimer);
        } else {
          push(now + uniform(0, 4 * kMs), kNear);
        }
        break;
      case kTimer:
        push(now + uniform(0, 4 * kMs), kNear);
        break;
      case kBurstHop:
        if (uniform(0, 39) == 0) {
          push(now + 2'000 * kMs, kTimer);
          --burst_left;
        } else {
          push(now + uniform(0, kMs), kBurstHop);
        }
        break;
      default:
        FAIL() << "unknown kind " << e.label;
    }
  }
};

TEST(QueueMemory, HeldBytesFollowThePendingSetAfterABurst) {
  const long before = g_live_bytes.load();
  long held = 0;
  std::size_t pending = 0;
  std::size_t peak = 0;
  {
    HoldModel model;
    for (int i = 0; i < 4'000; ++i) {
      model.push(model.uniform(0, 2'000 * kMs), i % 4 == 0 ? kTimer : kNear);
    }
    // Warm the hold model up for a while, then fire the burst: 10,000
    // events at one timestamp.
    while (model.queue.peek()->when.ns() < 3'000 * kMs) model.step();
    const std::int64_t burst_at = model.queue.peek()->when.ns() + kMs;
    for (int i = 0; i < 10'000; ++i) model.push(burst_at, kBurstHop);
    model.burst_left = 10'000;
    while (model.burst_left > 0) model.step();
    // Run on 50 ms past the burst's last hop.
    const std::int64_t settle_until = model.queue.peek()->when.ns() + 50 * kMs;
    while (model.queue.peek()->when.ns() < settle_until) model.step();

    held = g_live_bytes.load() - before;
    pending = model.queue.size();
    peak = model.peak;
  }
  EXPECT_EQ(g_live_bytes.load(), before);  // The queue gave everything back.

  // The ring never has more buckets than the peak pending set rounded up
  // to a power of two (16 at least).
  const std::size_t buckets_bound =
      std::bit_ceil(std::max<std::size_t>(peak, 16));
  std::printf("held %ld B: %zu pending, peak %zu, at most %zu buckets\n",
              held, pending, peak, buckets_bound);
  // Per peak event: a 40-byte action slot and a 4-byte free-list entry,
  // each vector at most doubled. Per pending key: 24 bytes, doubled.
  // Per bucket: its 32-byte header and a kept run of at most 16 keys.
  // Keeping every bucket's high water instead held 15.7 MB here, against
  // 2.4 MB when emptied buckets above 16 keys give their storage back.
  const double bound =
      2.0 * 44.0 * static_cast<double>(peak) +
      2.0 * 24.0 * static_cast<double>(pending) +
      (32.0 + 16.0 * 24.0) * static_cast<double>(buckets_bound);
  std::printf("bound %.0f B\n", bound);
  EXPECT_LE(static_cast<double>(held), bound);
}

}  // namespace
}  // namespace dlte::sim
