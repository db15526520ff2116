#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

namespace dlte::sim {
namespace {

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule(Duration::millis(20), [&] { order.push_back(2); });
  s.schedule(Duration::millis(10), [&] { order.push_back(1); });
  s.schedule(Duration::millis(30), [&] { order.push_back(3); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.events_executed(), 3u);
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule(Duration::millis(1), [&order, i] { order.push_back(i); });
  }
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, NowAdvancesToEventTime) {
  Simulator s;
  TimePoint seen{};
  s.schedule(Duration::seconds(1.5), [&] { seen = s.now(); });
  s.run_all();
  EXPECT_DOUBLE_EQ(seen.to_seconds(), 1.5);
}

TEST(Simulator, EventsScheduleFurtherEvents) {
  Simulator s;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) s.schedule(Duration::millis(1), chain);
  };
  s.schedule(Duration::millis(1), chain);
  s.run_all();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ((s.now() - TimePoint{}).to_millis(), 10.0);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator s;
  int ran = 0;
  s.schedule(Duration::millis(5), [&] { ++ran; });
  s.schedule(Duration::millis(15), [&] { ++ran; });
  s.run_until(TimePoint::from_ns(0) + Duration::millis(10));
  EXPECT_EQ(ran, 1);
  EXPECT_DOUBLE_EQ((s.now() - TimePoint{}).to_millis(), 10.0);
  EXPECT_EQ(s.pending_events(), 1u);
  // Continue to drain the rest.
  s.run_all();
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, DeadlineEventStillRuns) {
  Simulator s;
  int ran = 0;
  s.schedule(Duration::millis(10), [&] { ++ran; });
  s.run_until(TimePoint::from_ns(0) + Duration::millis(10));
  EXPECT_EQ(ran, 1);
}

TEST(Simulator, NegativeDelayClampedToNow) {
  Simulator s;
  bool ran = false;
  s.schedule(Duration::millis(5), [&] {
    s.schedule(Duration::millis(-10), [&] { ran = true; });
  });
  s.run_all();
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ((s.now() - TimePoint{}).to_millis(), 5.0);
}

TEST(Simulator, PeriodicProcessFiresRepeatedly) {
  Simulator s;
  int ticks = 0;
  s.every(Duration::millis(10), [&] { ++ticks; });
  s.run_until(TimePoint::from_ns(0) + Duration::millis(95));
  EXPECT_EQ(ticks, 9);
}

// A periodic closure must not own itself: once nothing can run it again,
// whatever it captured is freed.
TEST(Simulator, PeriodicClosureFreedWithSimulator) {
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  {
    Simulator s;
    s.every(Duration::millis(10), [sentinel] { ++*sentinel; });
    sentinel.reset();
    s.run_until(TimePoint::from_ns(0) + Duration::millis(25));
    EXPECT_EQ(*watch.lock(), 2);
  }
  EXPECT_TRUE(watch.expired());
}

TEST(Simulator, CancelledPeriodicFreedAfterOneMorePeriod) {
  auto sentinel = std::make_shared<int>(0);
  const std::weak_ptr<int> watch = sentinel;
  Simulator s;
  Simulator::PeriodicHandle handle =
      s.every_cancellable(Duration::millis(10), [sentinel] { ++*sentinel; });
  sentinel.reset();
  s.run_until(TimePoint::from_ns(0) + Duration::millis(25));
  handle.cancel();
  EXPECT_FALSE(watch.expired());  // The next tick is still queued.
  s.run_until(TimePoint::from_ns(0) + Duration::millis(35));
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(s.events_executed(), 3u);  // Two firings + the cancelled tick.
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator s;
  s.run_until(TimePoint::from_ns(0) + Duration::seconds(3.0));
  EXPECT_DOUBLE_EQ(s.now().to_seconds(), 3.0);
}

TEST(Simulator, PastScheduleAtClampsAndCounts) {
  Simulator s;
  obs::MetricsRegistry reg;
  s.set_metrics(&reg);
  bool ran = false;
  s.schedule(Duration::millis(5), [&] {
    // Target 2 ms — already in the past at t=5 ms: must run "now", not
    // silently reorder behind us.
    s.schedule_at(TimePoint::from_ns(0) + Duration::millis(2),
                  [&] { ran = true; });
  });
  s.run_all();
  EXPECT_TRUE(ran);
  EXPECT_DOUBLE_EQ((s.now() - TimePoint{}).to_millis(), 5.0);
  EXPECT_EQ(s.schedule_past_events(), 1u);
  EXPECT_EQ(reg.counter("sim.schedule_past_events").value(), 1u);
}

TEST(Simulator, FutureScheduleAtDoesNotCount) {
  Simulator s;
  s.schedule_at(TimePoint::from_ns(0) + Duration::millis(1), [] {});
  s.run_all();
  EXPECT_EQ(s.schedule_past_events(), 0u);
}

TEST(Simulator, LabelWithoutProfilerIsUnlabeled) {
  Simulator s;
  // Components intern at construction regardless of profiling state; with
  // no profiler attached every name maps to the unlabeled id and the
  // labeled overloads behave exactly like the plain ones.
  EXPECT_EQ(s.label("ran.enodeb"), obs::kUnlabeledEvent);
  int ran = 0;
  s.schedule(Duration::millis(1), [&] { ++ran; }, s.label("ran.enodeb"));
  s.run_all();
  EXPECT_EQ(ran, 1);
}

TEST(Simulator, ProfilerAttributesScheduleExecuteResidency) {
  Simulator s;
  obs::EventProfiler prof;
  s.set_profiler(&prof);
  const std::uint32_t enb = s.label("ran.enodeb");
  ASSERT_NE(enb, obs::kUnlabeledEvent);
  s.schedule(Duration::millis(2), [] {}, enb);
  s.schedule(Duration::millis(4), [] {}, enb);
  s.schedule(Duration::millis(1), [] {});  // Unlabeled overload.
  s.run_all();
  const obs::EventProfiler::LabelStats& st = prof.stats(enb);
  EXPECT_EQ(st.schedules, 2u);
  EXPECT_EQ(st.executed, 2u);
  // Residency is simulated ns queued: 2 ms + 4 ms.
  EXPECT_EQ(st.residency_ns, 6'000'000u);
  EXPECT_EQ(prof.stats(obs::kUnlabeledEvent).schedules, 1u);
  EXPECT_EQ(prof.stats(obs::kUnlabeledEvent).executed, 1u);
}

TEST(Simulator, ProfilerCountsPastClampsPerLabel) {
  Simulator s;
  obs::EventProfiler prof;
  s.set_profiler(&prof);
  const std::uint32_t inj = s.label("par.delivery");
  s.schedule(Duration::millis(5), [&] {
    s.schedule_at(TimePoint::from_ns(0) + Duration::millis(2), [] {}, inj);
  });
  s.run_all();
  EXPECT_EQ(prof.stats(inj).past_clamps, 1u);
  // A clamped event still executes and is attributed.
  EXPECT_EQ(prof.stats(inj).executed, 1u);
  EXPECT_EQ(prof.stats(inj).residency_ns, 0u);
}

TEST(Simulator, PeriodicEventsKeepTheirLabel) {
  Simulator s;
  obs::EventProfiler prof;
  s.set_profiler(&prof);
  const std::uint32_t tick = s.label("town.x2_report");
  s.every(Duration::millis(10), [] {}, tick);
  s.run_until(TimePoint::from_ns(0) + Duration::millis(45));
  // Every reschedule carries the label, not just the first firing.
  EXPECT_EQ(prof.stats(tick).executed, 4u);
  EXPECT_EQ(prof.stats(tick).schedules, 5u);  // 4 fired + 1 pending.
}

TEST(Simulator, QueueDepthAndResizeMetrics) {
  Simulator s;
  obs::MetricsRegistry reg;
  s.set_metrics(&reg);
  s.schedule(Duration::millis(5), [] {});
  s.schedule(Duration::millis(15), [] {});
  s.run_until(TimePoint::from_ns(0) + Duration::millis(10));
  // sim.queue_depth is the live pending count at flush; one event is
  // still queued past the deadline.
  EXPECT_DOUBLE_EQ(reg.gauge("sim.queue_depth").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.max_queue_depth").value(), 2.0);
  EXPECT_EQ(reg.counter("sim.queue_resizes").value(), s.queue_resizes());
  s.run_all();
  EXPECT_DOUBLE_EQ(reg.gauge("sim.queue_depth").value(), 0.0);
}

TEST(Simulator, NextEventTimePeeksEarliestPending) {
  Simulator s;
  EXPECT_EQ(s.next_event_time().ns(),
            std::numeric_limits<std::int64_t>::max());
  s.schedule(Duration::millis(30), [] {});
  s.schedule(Duration::millis(10), [] {});
  EXPECT_DOUBLE_EQ((s.next_event_time() - TimePoint{}).to_millis(), 10.0);
  s.run_all();
  EXPECT_EQ(s.next_event_time().ns(),
            std::numeric_limits<std::int64_t>::max());
}

}  // namespace
}  // namespace dlte::sim
