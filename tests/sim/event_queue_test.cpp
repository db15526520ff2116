// Parity suite for the calendar queue (DESIGN.md §13): for any push/pop
// schedule, CalendarQueue must pop the byte-identical (when, seq)
// sequence a binary heap would — including the equal-timestamp FIFO
// tie-break the whole engine's determinism contract rests on.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/simulator.h"

namespace dlte::sim {
namespace {

QueuedEvent make_event(std::int64_t when_ns, std::uint64_t seq) {
  return QueuedEvent{TimePoint::from_ns(when_ns), seq, [] {}};
}

// Drain both queues and require identical (when, seq) at every step.
void expect_identical_drain(CalendarQueue& calendar, BinaryHeapQueue& heap) {
  ASSERT_EQ(calendar.size(), heap.size());
  while (!heap.empty()) {
    const QueuedEvent expected = heap.pop();
    ASSERT_FALSE(calendar.empty());
    const QueuedEvent* peeked = calendar.peek();
    ASSERT_NE(peeked, nullptr);
    EXPECT_EQ(peeked->when.ns(), expected.when.ns());
    EXPECT_EQ(peeked->seq, expected.seq);
    const QueuedEvent got = calendar.pop();
    ASSERT_EQ(got.when.ns(), expected.when.ns());
    ASSERT_EQ(got.seq, expected.seq);
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(CalendarQueueTest, EmptyQueueBehaviour) {
  CalendarQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.peek(), nullptr);
}

TEST(CalendarQueueTest, SingleEventRoundTrip) {
  CalendarQueue q;
  q.push(make_event(1'000'000, 7));
  ASSERT_EQ(q.size(), 1u);
  const QueuedEvent* p = q.peek();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->when.ns(), 1'000'000);
  const QueuedEvent e = q.pop();
  EXPECT_EQ(e.seq, 7u);
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueueTest, EqualTimestampsPopInSchedulingOrder) {
  CalendarQueue calendar;
  BinaryHeapQueue heap;
  // Many events on one timestamp plus neighbours, pushed out of seq
  // order: the FIFO tie-break must still hold.
  const std::vector<std::uint64_t> seqs{5, 1, 9, 3, 7, 0, 8, 2, 6, 4};
  for (const std::uint64_t seq : seqs) {
    calendar.push(make_event(500'000, seq));
    heap.push(make_event(500'000, seq));
  }
  calendar.push(make_event(499'999, 100));
  heap.push(make_event(499'999, 100));
  calendar.push(make_event(500'001, 101));
  heap.push(make_event(500'001, 101));
  expect_identical_drain(calendar, heap);
}

TEST(CalendarQueueTest, RandomizedParityWithBinaryHeap) {
  std::mt19937_64 rng{0xc0ffee};
  for (int round = 0; round < 20; ++round) {
    CalendarQueue calendar;
    BinaryHeapQueue heap;
    std::uint64_t seq = 0;
    // Mixed regimes per round: dense sub-microsecond bursts, sparse
    // multi-second gaps, and heavy equal-timestamp pileups.
    const std::int64_t spread =
        (round % 3 == 0) ? 1'000 : (round % 3 == 1) ? 1'000'000'000
                                                    : 50'000;
    std::int64_t now = 0;
    const int pushes = 500 + static_cast<int>(rng() % 1500);
    for (int i = 0; i < pushes; ++i) {
      const std::int64_t when =
          now + static_cast<std::int64_t>(rng() % spread);
      calendar.push(make_event(when, seq));
      heap.push(make_event(when, seq));
      ++seq;
      // Interleave pops so the scan cursor moves like a real run.
      if (rng() % 4 == 0 && !heap.empty()) {
        const QueuedEvent expected = heap.pop();
        const QueuedEvent got = calendar.pop();
        ASSERT_EQ(got.when.ns(), expected.when.ns());
        ASSERT_EQ(got.seq, expected.seq);
        now = expected.when.ns();  // Hold model: time only advances.
      }
      if (rng() % 16 == 0) {
        // Equal-timestamp pileup on the current head.
        const std::int64_t when_tie = now + 10;
        for (int t = 0; t < 8; ++t) {
          calendar.push(make_event(when_tie, seq));
          heap.push(make_event(when_tie, seq));
          ++seq;
        }
      }
    }
    expect_identical_drain(calendar, heap);
  }
}

TEST(CalendarQueueTest, GrowAndShrinkKeepOrder) {
  CalendarQueue calendar;
  BinaryHeapQueue heap;
  // Push enough to force growth resizes, then drain to force shrink.
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const std::int64_t when = static_cast<std::int64_t>((i * 7919) % 4096);
    calendar.push(make_event(when, i));
    heap.push(make_event(when, i));
  }
  EXPECT_GT(calendar.resizes(), 0u);
  expect_identical_drain(calendar, heap);
}

TEST(CalendarQueueTest, SparseTimestampsUseDirectSearchCorrectly) {
  CalendarQueue calendar;
  BinaryHeapQueue heap;
  // Timestamps many laps apart: the lap scan gives up and the direct
  // min search must still find the true minimum.
  std::uint64_t seq = 0;
  for (const std::int64_t when :
       {9'000'000'000'000LL, 3'000'000'000LL, 7'000'000'000'000LL, 0LL,
        5'000'000'000'000'000LL, 1'000'000LL}) {
    calendar.push(make_event(when, seq));
    heap.push(make_event(when, seq));
    ++seq;
  }
  expect_identical_drain(calendar, heap);
}

TEST(CalendarQueueTest, PushEarlierThanCursorRewinds) {
  CalendarQueue q;
  q.push(make_event(1'000'000'000, 0));
  EXPECT_EQ(q.pop().seq, 0u);
  // The cursor now sits at ~1s; a later push far before it must still
  // surface first.
  q.push(make_event(2'000'000'000, 1));
  q.push(make_event(1'500, 2));
  EXPECT_EQ(q.pop().seq, 2u);
  EXPECT_EQ(q.pop().seq, 1u);
}

// The engine-level guarantee built on the queue: schedule_at into the
// past is clamped to "immediately after the current event" and counted,
// not silently reordered.
TEST(SimulatorQueueTest, SchedulePastIsClampedAndCounted) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_ns(1'000'000), [&] {
    order.push_back(1);
    // Target in the past: must run after this event, in schedule order.
    sim.schedule_at(TimePoint::from_ns(500), [&] { order.push_back(2); });
    sim.schedule_at(TimePoint::from_ns(400), [&] { order.push_back(3); });
  });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.schedule_past_events(), 2u);
  EXPECT_EQ(sim.now().ns(), 1'000'000);
}

TEST(CalendarQueueTest, LabelsRideThePayloadSlab) {
  // The attribution label travels in the action slab beside the payload,
  // never in the 24-byte sort key — pops must return each event's own
  // label regardless of insertion order.
  CalendarQueue q;
  q.push(QueuedEvent{TimePoint::from_ns(2'000), 0, [] {}, 7});
  q.push(QueuedEvent{TimePoint::from_ns(1'000), 1, [] {}, 9});
  q.push(QueuedEvent{TimePoint::from_ns(3'000), 2, [] {}});  // Defaults to 0.
  EXPECT_EQ(q.pop().label, 9u);
  EXPECT_EQ(q.pop().label, 7u);
  EXPECT_EQ(q.pop().label, 0u);
}

TEST(CalendarQueueTest, LabelsSurviveResize) {
  // Push enough spread to force calendar recalibration; every event must
  // keep its label through slab growth and re-bucketing.
  CalendarQueue q;
  for (std::uint64_t i = 0; i < 600; ++i) {
    q.push(QueuedEvent{TimePoint::from_ns(static_cast<std::int64_t>(i) * 1'000),
                       i, [] {}, static_cast<std::uint32_t>(i % 5)});
  }
  for (std::uint64_t i = 0; i < 600; ++i) {
    const QueuedEvent e = q.pop();
    EXPECT_EQ(e.label, static_cast<std::uint32_t>(e.seq % 5));
  }
}

TEST(CalendarQueueTest, BurstsThatDrainKeepHeapParity) {
  // Equal-time bursts grow a bucket far past the storage a drained bucket
  // keeps, so each drain frees it and the next burst regrows it; pops
  // interleave with pushes so bursts land in buckets that are part
  // drained, and every pop must match the heap's, label included.
  CalendarQueue calendar;
  BinaryHeapQueue heap;
  std::mt19937_64 rng(7);
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  auto push = [&](std::int64_t when_ns) {
    const auto label = static_cast<std::uint32_t>(rng() % 1000);
    calendar.push(QueuedEvent{TimePoint::from_ns(when_ns), seq, [] {}, label});
    heap.push(QueuedEvent{TimePoint::from_ns(when_ns), seq, [] {}, label});
    ++seq;
  };
  auto pop_both = [&] {
    const QueuedEvent expected = heap.pop();
    const QueuedEvent got = calendar.pop();
    ASSERT_EQ(got.when.ns(), expected.when.ns());
    ASSERT_EQ(got.seq, expected.seq);
    ASSERT_EQ(got.label, expected.label);
    now = got.when.ns();
  };
  for (int cycle = 0; cycle < 12; ++cycle) {
    // A burst of equal timestamps (sizes 40 to 3,000), then near-equal
    // stragglers and a few far events.
    const std::int64_t at = now + 1'000'000;
    const int burst = 40 + static_cast<int>(rng() % 2'961);
    for (int i = 0; i < burst; ++i) push(at);
    for (int i = 0; i < 200; ++i) {
      push(at + static_cast<std::int64_t>(rng() % 50'000));
    }
    for (int i = 0; i < 20; ++i) {
      push(now + 2'000'000'000 + static_cast<std::int64_t>(rng() % 1'000'000));
    }
    // Drain most of it, pushing behind and into the burst as it drains.
    const std::size_t keep = 30 + rng() % 50;
    while (heap.size() > keep) {
      pop_both();
      if (rng() % 8 == 0) push(now + static_cast<std::int64_t>(rng() % 3));
    }
  }
  while (!heap.empty()) pop_both();
  EXPECT_TRUE(calendar.empty());
  EXPECT_GT(calendar.resizes(), 0u);
}

TEST(SimulatorQueueTest, EventCountAndDepthSurvivedSwap) {
  Simulator sim;
  obs::MetricsRegistry metrics;
  sim.set_metrics(&metrics);
  for (int i = 0; i < 100; ++i) {
    sim.schedule(Duration::micros(i), [] {});
  }
  EXPECT_EQ(sim.pending_events(), 100u);
  sim.run_all();
  EXPECT_EQ(sim.events_executed(), 100u);
  EXPECT_EQ(metrics.gauge("sim.max_queue_depth").value(), 100.0);
}

}  // namespace
}  // namespace dlte::sim
