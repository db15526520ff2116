#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <limits>

namespace dlte::sim {

namespace {
[[nodiscard]] std::size_t pow2_at_least(std::size_t n, std::size_t floor) {
  return std::bit_ceil(std::max(n, floor));
}
}  // namespace

CalendarQueue::CalendarQueue() {
  // ~1 ms buckets until the first recalibration measures the real
  // inter-event spacing.
  rebuild(kMinBuckets, 20);
}

CalendarQueue::Bucket& CalendarQueue::direct_search_min() {
  const Key* min_key = nullptr;
  std::size_t min_bucket = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const Bucket& bucket = buckets_[i];
    if (bucket.drained()) continue;
    if (min_key == nullptr || key_before(bucket.front(), *min_key)) {
      min_key = &bucket.front();
      min_bucket = i;
    }
  }
  seek_to(min_key->when_ns);
  return buckets_[min_bucket];
}

void CalendarQueue::maybe_resize() {
  // Scan once for the live span; the new width targets a handful of
  // events per bucket (Brown's heuristic, power-of-two rounded).
  std::int64_t min_ns = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ns = std::numeric_limits<std::int64_t>::min();
  for (const Bucket& bucket : buckets_) {
    for (std::size_t i = bucket.head; i < bucket.keys.size(); ++i) {
      const std::int64_t ns = bucket.keys[i].when_ns;
      min_ns = std::min(min_ns, ns);
      max_ns = std::max(max_ns, ns);
    }
  }
  int shift = shift_;
  if (size_ >= 2 && max_ns > min_ns) {
    const std::int64_t gap =
        (max_ns - min_ns) / static_cast<std::int64_t>(size_);
    // Width in [gap, 2*gap): ~1 live event per bucket at recalibration
    // time, so sorted inserts stay short even after the queue doubles.
    shift = gap > 0 ? std::bit_width(static_cast<std::uint64_t>(gap))
                    : kMinShift;
    shift = std::clamp(shift, kMinShift, kMaxShift);
  }
  rebuild(std::min(pow2_at_least(size_, kMinBuckets), kMaxBuckets), shift);
}

void CalendarQueue::rebuild(std::size_t nbuckets, int shift) {
  std::vector<Key> live;
  live.reserve(size_);
  for (Bucket& bucket : buckets_) {
    for (std::size_t i = bucket.head; i < bucket.keys.size(); ++i) {
      live.push_back(bucket.keys[i]);
    }
  }
  // Globally sorted, every insert below is an O(1) append. Keys only —
  // the action slab is untouched by recalibration.
  std::sort(live.begin(), live.end(), key_before);
  // Old buckets carry over emptied, keeping storage as a drained bucket
  // does: assign() would keep every bucket's high water, a fresh ring
  // would regrow every small bucket after each recalibration.
  for (Bucket& bucket : buckets_) bucket.empty_out();
  buckets_.resize(nbuckets);
  mask_ = nbuckets - 1;
  shift_ = shift;
  if (!live.empty()) {
    seek_to(live.front().when_ns);
  } else {
    cur_bucket_ = 0;
    cur_window_start_ = 0;
  }
  // Size each bucket once for the keys it receives, then append.
  std::vector<std::uint32_t> counts(nbuckets, 0);
  for (const Key& key : live) ++counts[bucket_of(key.when_ns)];
  for (std::size_t b = 0; b < nbuckets; ++b) {
    if (counts[b] != 0) buckets_[b].keys.reserve(counts[b]);
  }
  for (const Key& key : live) {
    buckets_[bucket_of(key.when_ns)].keys.push_back(key);
  }
  if (size_ != 0 || !live.empty()) ++resizes_;
}

}  // namespace dlte::sim
