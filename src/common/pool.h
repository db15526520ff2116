// Chunked object pool: arena allocation for per-event records.
//
// A metro-scale run schedules millions of short-lived records — one per
// packet hop, one per cross-shard message delivery. Allocating each on
// the general heap costs a malloc/free round trip per event and, worse,
// pushes the capturing lambda past std::function's small-buffer limit so
// the event queue pays a second allocation. The pool fixes both: records
// live in stable chunked arenas and recycle through a free list, and an
// event only needs to capture the record pointer (8 bytes — comfortably
// inside the small-buffer optimization).
//
// Arenas grow with use: the first holds kFirstChunk objects and each
// growth doubles the next, up to kMaxChunk. A town builds one pool per
// AP's network, S1 fabric, eNodeB and MME, and most of them never hold
// more than a few records at once; a busy pool still reaches full-size
// arenas after a handful of growth steps.
//
// Not thread-safe. The single-owner pattern the runtime uses — a pool
// touched by one shard's worker during a window and by the coordinator
// only at barriers — is safe because those phases never overlap.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <vector>

namespace dlte {

template <typename T>
class ObjectPool {
 public:
  static constexpr std::size_t kFirstChunk = 4;
  static constexpr std::size_t kMaxChunk = 256;

  ObjectPool() = default;
  ObjectPool(const ObjectPool&) = delete;
  ObjectPool& operator=(const ObjectPool&) = delete;

  // A pointer with stable address, valid until release() or pool
  // destruction. Recycled objects keep whatever state they were released
  // with — the caller overwrites the fields it uses.
  [[nodiscard]] T* acquire() {
    if (free_.empty()) grow();
    T* object = free_.back();
    free_.pop_back();
    return object;
  }

  // Return an object obtained from acquire(). No destructor runs; the
  // object waits, as-is, for the next acquire().
  void release(T* object) { free_.push_back(object); }

  [[nodiscard]] std::size_t allocated() const { return allocated_; }
  [[nodiscard]] std::size_t available() const { return free_.size(); }
  [[nodiscard]] std::size_t in_use() const {
    return allocated() - available();
  }

 private:
  // Only called with the free list empty.
  void grow() {
    const std::size_t n = next_chunk_;
    next_chunk_ = std::min(2 * n, kMaxChunk);
    allocated_ += n;
    chunks_.push_back(std::make_unique<T[]>(n));
    T* base = chunks_.back().get();
    free_.reserve(n);
    // Reverse order so the first acquire() gets the chunk's first slot.
    for (std::size_t i = n; i > 0; --i) {
      free_.push_back(base + (i - 1));
    }
  }

  std::size_t next_chunk_{kFirstChunk};
  std::size_t allocated_{0};
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<T*> free_;
};

}  // namespace dlte
