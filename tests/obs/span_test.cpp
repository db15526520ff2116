#include "obs/span.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "common/time.h"
#include "obs/metrics.h"

namespace dlte::obs {
namespace {

// A hand-cranked clock: the tests advance simulated time explicitly.
struct FakeClock {
  TimePoint now{};
  [[nodiscard]] SpanTracer::NowFn fn() {
    return [this] { return now; };
  }
  void advance(Duration d) { now = now + d; }
};

TEST(SpanKey, DeterministicAndInputSensitive) {
  // Both sides of a handoff must derive the same key from the same
  // protocol-visible values — and nothing else may collide cheaply.
  static_assert(span_key("gtpu", 5000, 2) == span_key("gtpu", 5000, 2));
  EXPECT_EQ(span_key("attach", 7, 31), span_key("attach", 7, 31));
  EXPECT_NE(span_key("attach", 7, 31), span_key("attach", 7, 32));
  EXPECT_NE(span_key("attach", 7, 31), span_key("attach", 8, 31));
  EXPECT_NE(span_key("attach", 7, 31), span_key("x2", 7, 31));
  EXPECT_NE(span_key("gtpu", 0), span_key("gtpd", 0));
}

TEST(SpanTracer, BeginAssignsSequentialIdsAndStampsClock) {
  FakeClock clock;
  SpanTracer t{clock.fn()};
  const SpanId a = t.begin("attach", "ran", kNoSpan);
  clock.advance(Duration::millis(3.0));
  const SpanId b = t.begin("aka", "epc", kNoSpan);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  ASSERT_NE(t.find(b), nullptr);
  EXPECT_EQ(t.find(a)->start, TimePoint{});
  EXPECT_EQ(t.find(b)->start, TimePoint{} + Duration::millis(3.0));
  EXPECT_TRUE(t.find(a)->open);
  EXPECT_EQ(t.open_count(), 2u);
}

TEST(SpanTracer, ActivationStackAutoParents) {
  FakeClock clock;
  SpanTracer t{clock.fn()};
  const SpanId root = t.begin("attach", "ran", kNoSpan);
  t.activate(root);
  // kCurrentSpan (the default) adopts the active span.
  const SpanId child = t.begin("aka", "epc");
  EXPECT_EQ(t.find(child)->parent, root);
  // An explicit kNoSpan forces a root even while something is active.
  const SpanId other = t.begin("x2_round", "coord", kNoSpan);
  EXPECT_EQ(t.find(other)->parent, kNoSpan);
  // An explicit parent wins over the stack.
  t.activate(child);
  const SpanId leaf = t.begin("net_delivery", "net", root);
  EXPECT_EQ(t.find(leaf)->parent, root);
  EXPECT_EQ(t.current(), child);
}

TEST(SpanTracer, EndIsIdempotentAndSafeOutOfOrder) {
  FakeClock clock;
  SpanTracer t{clock.fn()};
  const SpanId parent = t.begin("handover", "ho", kNoSpan);
  t.activate(parent);
  const SpanId child = t.begin("rrc_reconfiguration", "ho");
  t.activate(child);
  clock.advance(Duration::millis(10.0));
  // Parent ends first: the child survives, and the stack drops every
  // occurrence of the ended span (so the child is no longer "current"
  // through a dead ancestor).
  t.end(parent);
  EXPECT_FALSE(t.find(parent)->open);
  EXPECT_EQ(t.find(parent)->duration(), Duration::millis(10.0));
  EXPECT_EQ(t.current(), child);
  clock.advance(Duration::millis(5.0));
  t.end(child);
  EXPECT_EQ(t.find(child)->duration(), Duration::millis(15.0));
  EXPECT_EQ(t.current(), kNoSpan);
  // Idempotent: a second end must not move the recorded end time.
  clock.advance(Duration::millis(100.0));
  t.end(parent);
  EXPECT_EQ(t.find(parent)->duration(), Duration::millis(10.0));
  // Unknown / kNoSpan ids are ignored.
  t.end(kNoSpan);
  t.end(999);
  EXPECT_EQ(t.open_count(), 0u);
}

TEST(SpanTracer, CapacityOverflowDropsAndCounts) {
  FakeClock clock;
  SpanTracer t{clock.fn(), 2};
  EXPECT_NE(t.begin("a", "c", kNoSpan), kNoSpan);
  EXPECT_NE(t.begin("b", "c", kNoSpan), kNoSpan);
  EXPECT_EQ(t.begin("c", "c", kNoSpan), kNoSpan);
  EXPECT_EQ(t.begin("d", "c", kNoSpan), kNoSpan);
  EXPECT_EQ(t.dropped_spans(), 2u);
  EXPECT_EQ(t.spans().size(), 2u);
  // Every entry point must accept the kNoSpan it just handed out.
  t.annotate(kNoSpan, "k", "v");
  t.end(kNoSpan);
  t.activate(kNoSpan);
  EXPECT_EQ(t.current(), kNoSpan);
}

TEST(SpanTracer, AnnotationsCapPerSpan) {
  FakeClock clock;
  SpanTracer t{clock.fn()};
  const SpanId id = t.begin("attach", "ran", kNoSpan);
  for (std::size_t i = 0; i < SpanTracer::kMaxAnnotationsPerSpan + 5; ++i) {
    t.annotate(id, "k" + std::to_string(i), "v");
  }
  EXPECT_EQ(t.find(id)->annotations.size(),
            SpanTracer::kMaxAnnotationsPerSpan);
  EXPECT_EQ(t.dropped_annotations(), 5u);
}

TEST(SpanTracer, AnnotateCurrentTargetsInnermostActiveSpan) {
  FakeClock clock;
  SpanTracer t{clock.fn()};
  // No active span: a silent no-op (fault hooks fire outside procedures).
  t.annotate_current("fault", "ap-crash");
  const SpanId outer = t.begin("attach", "ran", kNoSpan);
  t.activate(outer);
  const SpanId inner = t.begin("aka", "epc");
  t.activate(inner);
  clock.advance(Duration::millis(2.0));
  t.annotate_current("fault", "registry outage");
  EXPECT_TRUE(t.find(outer)->annotations.empty());
  ASSERT_EQ(t.find(inner)->annotations.size(), 1u);
  EXPECT_EQ(t.find(inner)->annotations[0].key, "fault");
  EXPECT_EQ(t.find(inner)->annotations[0].value, "registry outage");
  EXPECT_EQ(t.find(inner)->annotations[0].when,
            TimePoint{} + Duration::millis(2.0));
}

TEST(SpanTracer, StashedPeeksAndTakeClaims) {
  FakeClock clock;
  SpanTracer t{clock.fn()};
  const SpanId id = t.begin("gtp_uplink", "gtp", kNoSpan);
  const std::uint64_t key = span_key("gtpu", 5000, 0);
  t.stash(key, id);
  EXPECT_EQ(t.stashed(key), id);
  EXPECT_EQ(t.stashed(key), id);  // Peeking does not consume.
  EXPECT_EQ(t.take(key), id);
  EXPECT_EQ(t.take(key), kNoSpan);  // Claimed exactly once.
  EXPECT_EQ(t.stashed(key), kNoSpan);
  EXPECT_EQ(t.take(span_key("gtpu", 5000, 1)), kNoSpan);
  // Stashing kNoSpan (tracing off upstream) leaves the slot empty.
  t.stash(key, kNoSpan);
  EXPECT_EQ(t.stashed(key), kNoSpan);
}

TEST(SpanTracer, MetricsRollupOnFirstEndOnly) {
  FakeClock clock;
  MetricsRegistry reg;
  SpanTracer t{clock.fn(), 2};
  t.set_metrics(&reg, "bench.");
  const SpanId id = t.begin("attach", "ran", kNoSpan);
  clock.advance(Duration::millis(31.0));
  t.end(id);
  t.end(id);  // Idempotent end must not double-record.
  const Histogram* h = reg.find_histogram("bench.span.attach");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_DOUBLE_EQ(h->sum(), 31.0);
  EXPECT_EQ(reg.counter("bench.span.total").value(), 1u);
  // Overflow past capacity lands in span.dropped.
  t.begin("b", "c", kNoSpan);
  t.begin("c", "c", kNoSpan);
  EXPECT_EQ(reg.counter("bench.span.total").value(), 2u);
  EXPECT_EQ(reg.counter("bench.span.dropped").value(), 1u);
}

TEST(SpanTracer, ClocklessTracerFreezesAtLatestSeen) {
  // The bench harness constructs its tracer before any Simulator exists;
  // until set_clock(), timestamps freeze at the latest observed.
  SpanTracer t;
  const SpanId early = t.begin("warmup", "bench", kNoSpan);
  EXPECT_EQ(t.find(early)->start, TimePoint{});
  FakeClock clock;
  clock.advance(Duration::millis(8.0));
  t.set_clock(clock.fn());
  const SpanId late = t.begin("attach", "ran", kNoSpan);
  EXPECT_EQ(t.find(late)->start, TimePoint{} + Duration::millis(8.0));
  EXPECT_EQ(t.latest(), TimePoint{} + Duration::millis(8.0));
  // Detaching the clock again freezes at the high-water mark rather
  // than rewinding.
  t.set_clock({});
  t.end(late);
  EXPECT_EQ(t.find(late)->end, TimePoint{} + Duration::millis(8.0));
}

TEST(NullSafeHelpers, IgnoreNullTracer) {
  EXPECT_EQ(span_begin(nullptr, "attach", "ran"), kNoSpan);
  span_end(nullptr, 1);        // Must not crash.
  span_annotate(nullptr, 1, "k", "v");
  ScopedActivation activation{nullptr, kNoSpan};
  // A lazy value is never built without a tracer or without a live span.
  int calls = 0;
  const auto value = [&calls] {
    ++calls;
    return std::string("v");
  };
  span_annotate(nullptr, 1, "k", value);
  FakeClock clock;
  SpanTracer t{clock.fn()};
  span_annotate(&t, kNoSpan, "k", value);
  EXPECT_EQ(calls, 0);
  // Stash/take/stashed/current degrade to kNoSpan.
  span_stash(nullptr, span_key("attach", 1, 2), 1);
  EXPECT_EQ(span_stashed(nullptr, span_key("attach", 1, 2)), kNoSpan);
  EXPECT_EQ(span_take(nullptr, span_key("attach", 1, 2)), kNoSpan);
  EXPECT_EQ(span_current(nullptr), kNoSpan);
}

TEST(NullSafeHelpers, ForwardToLiveTracer) {
  FakeClock clock;
  SpanTracer t{clock.fn()};
  const SpanId id = span_begin(&t, std::string_view{"attach"}, "ran");
  ASSERT_NE(id, kNoSpan);
  int calls = 0;
  span_annotate(&t, id, "imsi", [&calls] {
    ++calls;
    return std::to_string(1001);
  });
  EXPECT_EQ(calls, 1);
  ASSERT_EQ(t.find(id)->annotations.size(), 1u);
  EXPECT_EQ(t.find(id)->annotations[0].key, "imsi");
  EXPECT_EQ(t.find(id)->annotations[0].value, "1001");

  const auto key = span_key("attach", 1, 2);
  span_stash(&t, key, id);
  EXPECT_EQ(span_stashed(&t, key), id);
  EXPECT_EQ(span_take(&t, key), id);
  EXPECT_EQ(span_take(&t, key), kNoSpan);

  EXPECT_EQ(span_current(&t), kNoSpan);
  {
    ScopedActivation act{&t, id};
    EXPECT_EQ(span_current(&t), id);
  }
  span_end(&t, id);
  EXPECT_FALSE(t.find(id)->open);
}

TEST(ScopedActivation, RestoresPreviousCurrent) {
  FakeClock clock;
  SpanTracer t{clock.fn()};
  const SpanId outer = t.begin("x2_round", "coord", kNoSpan);
  t.activate(outer);
  {
    const SpanId inner = t.begin("net_delivery", "net");
    ScopedActivation act{&t, inner};
    EXPECT_EQ(t.current(), inner);
    {
      // kNoSpan activation is a no-op, not a stack entry.
      ScopedActivation noop{&t, kNoSpan};
      EXPECT_EQ(t.current(), inner);
    }
  }
  EXPECT_EQ(t.current(), outer);
}

TEST(SpanTracer, ActivateRejectsClosedSpans) {
  FakeClock clock;
  SpanTracer t{clock.fn()};
  const SpanId id = t.begin("attach", "ran", kNoSpan);
  t.end(id);
  t.activate(id);
  EXPECT_EQ(t.current(), kNoSpan);
}

}  // namespace
}  // namespace dlte::obs
