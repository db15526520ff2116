// Attribution labels riding the calendar queue (DESIGN.md §13/§15).
// Labels live in a slot-parallel slab beside the action slab and never
// participate in ordering; these tests pin the edge cases the audit
// plane depends on: slot recycling must not leak a stale label into a
// fresh event, recalibration rebuilds must carry labels across, the
// pop order must stay byte-identical to the binary-heap reference with
// labels mixed in, and Simulator::label must intern idempotently and
// register name hashes with an attached auditor.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "obs/audit.h"
#include "obs/prof.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace dlte::sim {
namespace {

QueuedEvent make_event(std::int64_t when_ns, std::uint64_t seq,
                       std::uint32_t label) {
  return QueuedEvent{TimePoint::from_ns(when_ns), seq, [] {}, label};
}

TEST(CalendarQueueLabels, SlotRecyclingNeverLeaksALabel) {
  // Drain-and-refill cycles recycle action slots through the free list;
  // a fresh unlabeled event landing in a slot that last held a labeled
  // one must pop with label 0, not the leftover.
  CalendarQueue queue;
  std::uint64_t seq = 0;
  for (int round = 0; round < 8; ++round) {
    const std::uint32_t label = (round % 2 == 0) ? 7u : 0u;
    for (int i = 0; i < 16; ++i) {
      queue.push(make_event(round * 1000 + i, seq++, label));
    }
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(queue.pop().label, label) << "round " << round;
    }
  }
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueueLabels, LabelsSurviveRecalibration) {
  // Grow far enough to force at least one ring rebuild, then shrink
  // back through the downsize path: every event keeps its own label
  // (label == a function of seq makes any slab mix-up visible).
  CalendarQueue queue;
  const std::size_t n = 4096;
  for (std::size_t i = 0; i < n; ++i) {
    queue.push(make_event(static_cast<std::int64_t>(i * 17), i,
                          static_cast<std::uint32_t>(i % 5)));
  }
  EXPECT_GT(queue.resizes(), 0u);
  for (std::size_t i = 0; i < n; ++i) {
    const QueuedEvent event = queue.pop();
    EXPECT_EQ(event.seq, i);
    EXPECT_EQ(event.label, static_cast<std::uint32_t>(i % 5));
  }
}

TEST(CalendarQueueLabels, MixedLabelsKeepHeapParity) {
  // The byte-identical contract with labels in play: both queues pop
  // the same (when, seq, label) sequence for a same-timestamp-heavy
  // schedule (labels must never leak into the ordering).
  CalendarQueue calendar;
  BinaryHeapQueue heap;
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t seq = 0; seq < 512; ++seq) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const std::int64_t when_ns =
        static_cast<std::int64_t>((state >> 33) % 64) * 1000;
    const auto label = static_cast<std::uint32_t>(state % 3);
    calendar.push(make_event(when_ns, seq, label));
    heap.push(make_event(when_ns, seq, label));
  }
  while (!heap.empty()) {
    ASSERT_FALSE(calendar.empty());
    const QueuedEvent a = calendar.pop();
    const QueuedEvent b = heap.pop();
    EXPECT_EQ(a.when.ns(), b.when.ns());
    EXPECT_EQ(a.seq, b.seq);
    EXPECT_EQ(a.label, b.label);
  }
  EXPECT_TRUE(calendar.empty());
}

TEST(SimulatorLabels, InternIsIdempotentAndUnlabeledWithoutProfiler) {
  Simulator sim;
  // No profiler: every name maps to the unlabeled id, so components can
  // intern at construction regardless of profiling state.
  EXPECT_EQ(sim.label("ran.enodeb"), obs::kUnlabeledEvent);
  obs::EventProfiler profiler;
  sim.set_profiler(&profiler);
  const std::uint32_t id = sim.label("ran.enodeb");
  EXPECT_NE(id, obs::kUnlabeledEvent);
  EXPECT_EQ(sim.label("ran.enodeb"), id);  // Re-intern: same id.
  EXPECT_EQ(profiler.label_count(), 2u);   // unlabeled + ran.enodeb.
}

TEST(SimulatorLabels, InternRegistersNameHashWithTheAuditor) {
  Simulator sim;
  obs::EventProfiler profiler;
  obs::DigestTimeline auditor{Duration::millis(250).ns()};
  sim.set_profiler(&profiler);
  sim.set_auditor(&auditor);
  const std::uint32_t id = sim.label("core.s1");
  EXPECT_EQ(auditor.label_name(id), "core.s1");
  sim.schedule(Duration::millis(1), [] {}, id);
  sim.run_all();
  ASSERT_EQ(auditor.windows().size(), 1u);
  EXPECT_EQ(auditor.windows()[0].events, 1u);
  ASSERT_GT(auditor.windows()[0].labels.size(), id);
  EXPECT_EQ(auditor.windows()[0].labels[id].count, 1u);
}

TEST(SimulatorLabels, PreAttachmentIdsFoldAsUnlabeled) {
  // A label interned before the auditor attached has no name hash in
  // the timeline; executing under it must clamp to the unlabeled
  // bucket instead of reading out of bounds.
  Simulator sim;
  obs::EventProfiler profiler;
  sim.set_profiler(&profiler);
  const std::uint32_t early = sim.label("net.hop");
  obs::DigestTimeline auditor{Duration::millis(250).ns()};
  sim.set_auditor(&auditor);  // After interning: id unknown to auditor.
  sim.schedule(Duration::millis(1), [] {}, early);
  sim.run_all();
  ASSERT_EQ(auditor.windows().size(), 1u);
  EXPECT_EQ(auditor.windows()[0].events, 1u);
  EXPECT_EQ(auditor.windows()[0].labels[obs::kUnlabeledEvent].count, 1u);
}

}  // namespace
}  // namespace dlte::sim
