// sim::EventAction: inline and heap storage, move-only captures, and the
// lifetime of a captured object through the engine — destroyed exactly
// once whether its event runs, never runs, or is relocated by the
// calendar queue's slot slab growing underneath it.
#include "sim/event_action.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace dlte::sim {
namespace {

// Counts the destructions of live (not moved-from) copies of itself, so
// a capture destroyed twice or never shows in `*destroyed`.
struct Probe {
  explicit Probe(int* destroyed_count) : destroyed(destroyed_count) {}
  Probe(Probe&& other) noexcept
      : destroyed(other.destroyed), live(std::exchange(other.live, false)) {}
  Probe& operator=(Probe&&) = delete;
  ~Probe() {
    if (live) ++*destroyed;
  }
  int* destroyed;
  bool live{true};
};

TEST(EventAction, SmallCaptureIsStoredInlineAndRuns) {
  int hits = 0;
  std::uint64_t a = 1;
  std::uint64_t b = 2;
  std::uint64_t c = 3;
  // Four words: the FlowTrain epoch lambda's shape, exactly kInlineBytes.
  auto f = [&hits, a, b, c] { hits += static_cast<int>(a + b + c); };
  static_assert(sizeof(f) == EventAction::kInlineBytes);
  static_assert(EventAction::stores_inline<decltype(f)>());
  static_assert(sizeof(EventAction) == EventAction::kInlineBytes + 8);
  EventAction action{f};
  action();
  action();
  EXPECT_EQ(hits, 12);
}

TEST(EventAction, LargeCaptureFallsBackToTheHeap) {
  std::array<std::uint64_t, 5> words{1, 2, 3, 4, 5};
  std::uint64_t sum = 0;
  auto f = [&sum, words] { sum += words[0] + words[4]; };
  static_assert(sizeof(f) > EventAction::kInlineBytes);
  static_assert(!EventAction::stores_inline<decltype(f)>());
  EventAction action{f};
  EventAction moved{std::move(action)};
  moved();
  EXPECT_EQ(sum, 6u);
}

TEST(EventAction, MoveOnlyCaptureRunsThroughTheSimulator) {
  Simulator sim;
  int seen = 0;
  auto owned = std::make_unique<int>(41);
  sim.schedule(Duration::millis(1),
               [&seen, p = std::move(owned)] { seen = *p + 1; });
  sim.run_all();
  EXPECT_EQ(seen, 42);
}

TEST(EventAction, CaptureOfARunEventIsDestroyedOnce) {
  int destroyed = 0;
  int runs = 0;
  {
    Simulator sim;
    sim.schedule(Duration::millis(1),
                 [&runs, probe = Probe{&destroyed}] { ++runs; });
    EXPECT_EQ(destroyed, 0);
    sim.run_all();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(destroyed, 1);  // Gone once it ran, not at teardown.
  }
  EXPECT_EQ(destroyed, 1);
}

TEST(EventAction, CaptureOfAnEventThatNeverRunsIsDestroyedWithTheQueue) {
  int destroyed = 0;
  int runs = 0;
  {
    Simulator sim;
    sim.schedule(Duration::seconds(10.0),
                 [&runs, probe = Probe{&destroyed}] { ++runs; });
    sim.run_until(TimePoint{} + Duration::seconds(1.0));
    EXPECT_EQ(destroyed, 0);
  }
  EXPECT_EQ(runs, 0);
  EXPECT_EQ(destroyed, 1);
}

TEST(EventAction, CaptureRelocatedBySlabGrowthIsDestroyedOnce) {
  int destroyed = 0;
  int runs = 0;
  CalendarQueue queue;
  queue.push(QueuedEvent{TimePoint::from_ns(1'000'000), 0,
                         [&runs, probe = Probe{&destroyed}] { ++runs; }});
  // Enough later events to regrow the slot slab many times over, with
  // heap-stored captures among them.
  std::uint64_t sum = 0;
  for (std::uint64_t seq = 1; seq <= 4096; ++seq) {
    const std::int64_t when_ns = 1'000'000 + static_cast<std::int64_t>(seq);
    const std::array<std::uint64_t, 5> pad{seq, seq, seq, seq, seq};
    queue.push(QueuedEvent{TimePoint::from_ns(when_ns), seq,
                           [&sum, pad] { sum += pad[0]; }});
  }
  EXPECT_EQ(destroyed, 0);
  QueuedEvent first = queue.pop();
  EXPECT_EQ(first.seq, 0u);
  first.action();
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(destroyed, 0);
  first.action = EventAction{};  // Assigning over it destroys the capture.
  EXPECT_EQ(destroyed, 1);
  while (!queue.empty()) queue.pop().action();
  EXPECT_EQ(sum, 4096u * 4097u / 2);
  EXPECT_EQ(destroyed, 1);
}

}  // namespace
}  // namespace dlte::sim
