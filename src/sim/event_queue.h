// Event queues for the discrete-event engine (DESIGN.md §13).
//
// Two implementations of one pending-event set, both totally ordered by
// (when, seq) so equal-timestamp events pop in scheduling order:
//
//   * BinaryHeapQueue — std::priority_queue, O(log n) push/pop. The
//     original engine queue, kept as the parity reference for tests and
//     as the comparison baseline in bench_microbench.
//   * CalendarQueue — Brown's calendar queue: a ring of time buckets of
//     power-of-two width, O(1) amortized push/pop under the hold model
//     (the steady state of a big simulation: queue size roughly constant,
//     pops mostly near the clock). This is what sim::Simulator runs on.
//
// The byte-identical contract: for any push sequence, both queues pop
// the exact same (when, seq, action) sequence. Equal-time events share a
// bucket (the bucket index is a pure function of `when`), where they are
// kept in (when, seq) sorted order, so the FIFO tie-break survives the
// change of data structure. tests/sim/event_queue_test.cpp drives both
// with randomized schedules and compares the full pop order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "common/time.h"
#include "sim/event_action.h"

namespace dlte::sim {

struct QueuedEvent {
  TimePoint when;
  std::uint64_t seq{0};
  EventAction action;
  // Interned attribution label (obs::EventProfiler id); 0 = unlabeled.
  // Never participates in ordering — it rides along for the profiler.
  std::uint32_t label{0};
};

// Strict weak order: earliest first, then scheduling order.
[[nodiscard]] inline bool event_before(const QueuedEvent& a,
                                       const QueuedEvent& b) {
  if (a.when != b.when) return a.when < b.when;
  return a.seq < b.seq;
}

// Reference implementation: binary min-heap on (when, seq).
class BinaryHeapQueue {
 public:
  void push(QueuedEvent event) { queue_.push(std::move(event)); }

  // Pop the minimum. Precondition: !empty().
  QueuedEvent pop() {
    // priority_queue::top is const; moving out before pop is the
    // standard escape hatch (the popped element is never read again).
    QueuedEvent event = std::move(const_cast<QueuedEvent&>(queue_.top()));
    queue_.pop();
    return event;
  }

  // Minimum element, or nullptr when empty.
  [[nodiscard]] const QueuedEvent* peek() const {
    return queue_.empty() ? nullptr : &queue_.top();
  }

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t size() const { return queue_.size(); }

 private:
  struct After {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      return event_before(b, a);
    }
  };
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, After> queue_;
};

// Calendar queue. Bucket b of the ring covers every time window
// [t, t + width) with (t / width) % nbuckets == b; width is a power of
// two (a shift), nbuckets is a power of two (a mask), so the bucket of a
// timestamp is two ALU ops. Buckets hold trivially-copyable sort keys
// (when, seq, slot, label) kept (when, seq)-ascending behind a drained-head
// index; the EventAction payloads (40 bytes, captures inline) live in a
// slot slab off to the side and move exactly twice — into the slab on
// push, out on pop — so the sorted inserts and the recalibration
// rebuilds shuffle 24-byte PODs (memmove), never callables. A bucket's
// key storage follows what it holds: a drained bucket keeps at most
// kKeptBucketKeys of capacity, a rebuild sizes each bucket once for the
// keys it receives, and the slab keeps the peak pending set. The common
// push (append at the bucket back) and the common pop (head of the
// current bucket) are O(1); a full lap without an in-window event falls
// back to a direct min search, and the bucket count / width recalibrate
// as the queue grows and shrinks. Timestamps must be non-negative — the
// engine clamps past/negative targets before pushing.
class CalendarQueue {
 public:
  CalendarQueue();

  void push(QueuedEvent event) {
    const std::int64_t when_ns = event.when.ns();
    if (size_ == 0 || when_ns < cur_window_start_) {
      // The new event precedes the scan cursor (or the ring is idle):
      // rewind so the next pop cannot miss it.
      seek_to(when_ns);
    }
    insert_key(buckets_[bucket_of(when_ns)],
               Key{when_ns, event.seq, store_action(std::move(event.action)),
                   event.label});
    ++size_;
    // mask_ + 1 == buckets_.size(); comparing against the cached mask
    // keeps the common no-resize path free of vector-size loads.
    if (size_ > 2 * mask_ + 2 && mask_ + 1 < kMaxBuckets) {
      maybe_resize();
    }
  }

  // Pop the global minimum by (when, seq). Precondition: !empty().
  QueuedEvent pop() {
    Bucket& bucket = find_min_bucket();
    const Key key = bucket.keys[bucket.head];
    ++bucket.head;
    --size_;
    bucket.compact_if_drained();
    if (size_ * 4 <= mask_ && mask_ + 1 > kMinBuckets) {
      maybe_resize();
    }
    return QueuedEvent{TimePoint::from_ns(key.when_ns), key.seq,
                       take_action(key.slot), key.label};
  }

  // Minimum element, or nullptr when empty. Advances the internal scan
  // cursor (cached for the following pop) but never reorders anything.
  // Only `when` and `seq` are populated — the action stays queued until
  // pop() (no caller inspects an action it has not yet popped).
  [[nodiscard]] const QueuedEvent* peek() {
    if (size_ == 0) return nullptr;
    const Key& key = find_min_bucket().front();
    peek_event_.when = TimePoint::from_ns(key.when_ns);
    peek_event_.seq = key.seq;
    return &peek_event_;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] std::uint64_t resizes() const { return resizes_; }

 private:
  // Bucket-count bounds: never fewer than 16 (tiny queues stay cheap to
  // lap-scan), never more than 1<<22 (a hard cap on ring memory).
  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 22;
  // Width bounds as shifts: 1 ns .. ~9.3 simulated hours per bucket.
  static constexpr int kMinShift = 0;
  static constexpr int kMaxShift = 45;
  // A bucket that empties (drained by pop, or emptied by a rebuild)
  // keeps storage for at most this many keys and frees anything larger.
  // Equal-time bursts pass over every bucket of the ring (town_attach's
  // popped bucket held 198 keys on average, at most 2,116), so keeping
  // each bucket's high water held 66.9 MB of bucket storage for 73,945
  // pending events at its run end, 15.2 MB with this cap. 16 keeps the
  // regrowth of ordinary buckets off the allocator: a 64-AP metro makes
  // 4.11 run-phase allocations per attach batch with it, 4.92 with a cap
  // of 4 (MetroAllocations bounds it at 5.0).
  static constexpr std::size_t kKeptBucketKeys = 16;

  // Sort key: everything the ordering needs, trivially copyable so the
  // bucket vectors shift with memmove. `slot` indexes the action slab
  // (32 bits: a slab of 2^32 40-byte actions is far past any host's
  // memory); the attribution label fills the rest of the 24 bytes and
  // never takes part in ordering.
  struct Key {
    std::int64_t when_ns;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t label;
  };
  [[nodiscard]] static bool key_before(const Key& a, const Key& b) {
    if (a.when_ns != b.when_ns) return a.when_ns < b.when_ns;
    return a.seq < b.seq;
  }

  struct Bucket {
    // keys[head..] are live, (when, seq)-ascending.
    std::vector<Key> keys;
    std::size_t head{0};

    [[nodiscard]] bool drained() const { return head >= keys.size(); }
    [[nodiscard]] const Key& front() const { return keys[head]; }
    void compact_if_drained() {
      if (drained() && !keys.empty()) empty_out();
    }
    void empty_out() {
      if (keys.capacity() > kKeptBucketKeys) {
        // A burst grew this bucket: give the storage back, so the ring
        // holds about what is pending, not every bucket's high water.
        std::vector<Key>{}.swap(keys);
      } else {
        keys.clear();
      }
      head = 0;
    }
  };

  [[nodiscard]] std::size_t bucket_of(std::int64_t when_ns) const {
    return static_cast<std::size_t>(when_ns >> shift_) & mask_;
  }
  [[nodiscard]] std::int64_t window_start_of(std::int64_t when_ns) const {
    return (when_ns >> shift_) << shift_;
  }
  // Point the scan cursor at the window containing `when_ns`.
  void seek_to(std::int64_t when_ns) {
    cur_bucket_ = bucket_of(when_ns);
    cur_window_start_ = window_start_of(when_ns);
  }

  // Park the action in a recycled or fresh slab slot; the key carries
  // the slot index through the sorted bucket.
  [[nodiscard]] std::uint32_t store_action(EventAction&& action) {
    if (free_slots_.empty()) {
      actions_.push_back(std::move(action));
      return static_cast<std::uint32_t>(actions_.size() - 1);
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    actions_[slot] = std::move(action);
    return slot;
  }
  [[nodiscard]] EventAction take_action(std::uint32_t slot) {
    free_slots_.push_back(slot);
    return std::move(actions_[slot]);
  }

  void insert_key(Bucket& bucket, Key key) {
    // pop() compacts the bucket it drains, so `bucket` is never
    // drained-but-nonempty here; keys[head..] is the live sorted run.
    if (bucket.keys.empty() || !key_before(key, bucket.keys.back())) {
      bucket.keys.push_back(key);
      return;
    }
    // Buckets hold a handful of keys by construction (the resize policy
    // targets a few per bucket), so a backward linear scan beats a
    // branchy binary search.
    auto pos = bucket.keys.end() - 1;
    const auto live_begin =
        bucket.keys.begin() + static_cast<std::ptrdiff_t>(bucket.head);
    while (pos != live_begin && key_before(key, *(pos - 1))) --pos;
    bucket.keys.insert(pos, key);
  }

  // Locate the bucket holding the global minimum; positions the cursor
  // on it. Precondition: !empty().
  Bucket& find_min_bucket() {
    const std::int64_t width = std::int64_t{1} << shift_;
    std::size_t scanned = 0;
    for (;;) {
      Bucket& bucket = buckets_[cur_bucket_];
      if (!bucket.drained() &&
          bucket.front().when_ns < cur_window_start_ + width) {
        // In-window head: nothing earlier can live in any other bucket —
        // equal timestamps always share a bucket, and every earlier
        // window was scanned empty (or rewound to on push).
        return bucket;
      }
      cur_bucket_ = (cur_bucket_ + 1) & mask_;
      cur_window_start_ += width;
      if (++scanned > mask_) {
        // A full lap without an in-window event: the pending set is
        // sparse relative to the ring span. Cold path, out of line.
        return direct_search_min();
      }
    }
  }

  Bucket& direct_search_min();
  void maybe_resize();
  void rebuild(std::size_t nbuckets, int shift);

  std::vector<Bucket> buckets_;
  std::size_t mask_{0};
  int shift_{0};
  std::size_t size_{0};
  // Scan cursor: no live event exists before cur_window_start_.
  std::size_t cur_bucket_{0};
  std::int64_t cur_window_start_{0};
  // Action slab + free list; keys index it via Key::slot.
  std::vector<EventAction> actions_;
  std::vector<std::uint32_t> free_slots_;
  QueuedEvent peek_event_;
  std::uint64_t resizes_{0};
};

}  // namespace dlte::sim
