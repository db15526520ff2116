#include "obs/merge.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <vector>

#include "obs/snapshot.h"

namespace dlte::obs {
namespace {

TEST(HistogramMerge, MergedEqualsSingleRecorder) {
  // The shard-invariance property: recording a stream into one histogram
  // or splitting it across two and merging must give identical stats.
  Histogram whole, left, right;
  for (int i = 0; i < 200; ++i) {
    const double v = 0.5 + static_cast<double>(i % 37);
    whole.record(v);
    (i % 2 == 0 ? left : right).record(v);
  }
  left.merge_from(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
  EXPECT_DOUBLE_EQ(left.quantile(0.5), whole.quantile(0.5));
  EXPECT_DOUBLE_EQ(left.quantile(0.95), whole.quantile(0.95));
}

TEST(HistogramMerge, EmptySidesAreNeutral) {
  Histogram a, b;
  a.record(3.0);
  a.merge_from(b);  // Empty source: no-op.
  EXPECT_EQ(a.count(), 1u);
  b.merge_from(a);  // Empty destination: copies extrema.
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.min(), 3.0);
  EXPECT_DOUBLE_EQ(b.max(), 3.0);
}

TEST(HistogramMerge, MismatchedBucketLayoutsUnion) {
  // Shards observing disjoint value ranges occupy disjoint sparse-bucket
  // sets; merging must union them, not assume aligned layouts. Include
  // the underflow bucket (zero/negative samples) on one side only.
  Histogram whole, tiny, huge;
  const double small_vals[] = {0.001, 0.002, -1.0};
  const double big_vals[] = {1e6, 2e6, 4e6};
  for (const double v : small_vals) {
    whole.record(v);
    tiny.record(v);
  }
  for (const double v : big_vals) {
    whole.record(v);
    huge.record(v);
  }
  tiny.merge_from(huge);
  EXPECT_EQ(tiny.count(), whole.count());
  EXPECT_DOUBLE_EQ(tiny.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(tiny.min(), whole.min());
  EXPECT_DOUBLE_EQ(tiny.max(), whole.max());
  for (const double q : {0.25, 0.5, 0.95}) {
    EXPECT_DOUBLE_EQ(tiny.quantile(q), whole.quantile(q));
  }
}

TEST(MergeRegistry, EmptyRegistryFoldsAreNeutral) {
  MetricsRegistry populated, empty;
  populated.counter("c").inc(5);
  populated.gauge("g").set(2.5);
  populated.histogram("h").record(1.0);
  // Folding an empty source changes nothing.
  merge_registry(populated, empty);
  EXPECT_EQ(populated.counter("c").value(), 5u);
  EXPECT_DOUBLE_EQ(populated.gauge("g").value(), 2.5);
  EXPECT_EQ(populated.histogram("h").count(), 1u);
  // Folding into an empty destination copies everything.
  MetricsRegistry dst;
  merge_registry(dst, populated);
  EXPECT_EQ(dst.counter("c").value(), 5u);
  EXPECT_DOUBLE_EQ(dst.gauge("g").value(), 2.5);
  EXPECT_EQ(dst.histogram("h").count(), 1u);
}

TEST(MergeRegistry, GaugeMaxInvariantAcrossShardCounts) {
  // The same observation stream split over 1, 2, or 4 shard registries
  // must fold to the same "worst observed" gauge — the property that
  // lets per-shard sim.max_queue_depth merge into one compared value.
  const double observations[] = {3.0, 11.0, 7.0, 2.0, 9.0, 5.0, 8.0, 1.0};
  for (const std::size_t shard_count : {1u, 2u, 4u}) {
    std::vector<MetricsRegistry> shards(shard_count);
    for (std::size_t i = 0; i < std::size(observations); ++i) {
      shards[i % shard_count].gauge("worst").set_max(observations[i]);
    }
    MetricsRegistry merged;
    for (const MetricsRegistry& shard : shards) {
      merge_registry(merged, shard);
    }
    EXPECT_DOUBLE_EQ(merged.gauge("worst").value(), 11.0)
        << "shard_count=" << shard_count;
  }
}

TEST(MergeRegistry, CountersAddGaugesMaxHistogramsMerge) {
  MetricsRegistry a, b, merged;
  a.counter("shared.count").inc(3);
  b.counter("shared.count").inc(4);
  a.gauge("shared.worst").set(2.0);
  b.gauge("shared.worst").set(9.0);
  a.histogram("ap0.lat").record(1.0);
  b.histogram("ap1.lat").record(5.0);
  merge_registry(merged, a);
  merge_registry(merged, b);
  EXPECT_EQ(merged.counter("shared.count").value(), 7u);
  EXPECT_DOUBLE_EQ(merged.gauge("shared.worst").value(), 9.0);
  EXPECT_EQ(merged.histogram("ap0.lat").count(), 1u);
  EXPECT_EQ(merged.histogram("ap1.lat").count(), 1u);
}

TEST(MergeRegistry, PrefixRelocatesNames) {
  MetricsRegistry src, dst;
  src.counter("sim.events_executed").inc(11);
  merge_registry(dst, src, "par.shard0.");
  EXPECT_EQ(dst.counter("par.shard0.sim.events_executed").value(), 11u);
  EXPECT_EQ(dst.find_counter("sim.events_executed"), nullptr);
}

TEST(MergedSeriesJson, UnionOfDisjointSamplersEqualsCombinedRun) {
  // Two registries holding disjoint halves of the metric namespace,
  // sampled at the same instants, must merge into the same document a
  // single combined registry produces — the 1-vs-N shard series check.
  MetricsRegistry whole, part0, part1;
  whole.counter("ap0.c").inc(1);
  whole.counter("ap1.c").inc(2);
  part0.counter("ap0.c").inc(1);
  part1.counter("ap1.c").inc(2);
  TimeSeriesSampler sw{whole}, s0{part0}, s1{part1};
  for (int k = 1; k <= 3; ++k) {
    const TimePoint t = TimePoint::from_ns(0) + Duration::millis(500 * k);
    sw.sample(t);
    s0.sample(t);
    s1.sample(t);
  }
  EXPECT_EQ(merged_series_json({&s0, &s1}, "t"),
            merged_series_json({&sw}, "t"));
}

}  // namespace
}  // namespace dlte::obs
