#include "common/pool.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

namespace dlte {
namespace {

struct Payload {
  int value{0};
  std::string tag;
};

using Pool = ObjectPool<Payload>;

TEST(ObjectPoolTest, AcquireGrowsInChunks) {
  Pool pool;
  EXPECT_EQ(pool.allocated(), 0u);
  Payload* first = pool.acquire();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(pool.allocated(), Pool::kFirstChunk);
  EXPECT_EQ(pool.in_use(), 1u);
  EXPECT_EQ(pool.available(), Pool::kFirstChunk - 1);
  for (std::size_t i = 1; i < Pool::kFirstChunk; ++i) (void)pool.acquire();
  EXPECT_EQ(pool.allocated(), Pool::kFirstChunk);
  EXPECT_EQ(pool.available(), 0u);
  (void)pool.acquire();  // A fifth: the next chunk, twice the first.
  EXPECT_EQ(pool.allocated(), 3 * Pool::kFirstChunk);
  EXPECT_EQ(pool.in_use(), Pool::kFirstChunk + 1);
}

TEST(ObjectPoolTest, ChunksDoubleUpToTheCap) {
  Pool pool;
  // Acquire one more object than the arenas hold, each time: every
  // growth adds the next chunk, 4, 8, 16, ... 256, then 256 per step.
  std::vector<std::size_t> chunks;
  std::size_t held = 0;
  for (int step = 0; step < 9; ++step) {
    const std::size_t before = pool.allocated();
    (void)pool.acquire();
    ++held;
    chunks.push_back(pool.allocated() - before);
    while (held < pool.allocated()) {
      (void)pool.acquire();
      ++held;
    }
    EXPECT_EQ(pool.in_use(), held);
  }
  const std::vector<std::size_t> expected{4, 8, 16, 32, 64, 128, 256, 256,
                                          256};
  EXPECT_EQ(chunks, expected);
  EXPECT_EQ(Pool::kMaxChunk, 256u);
  EXPECT_EQ(pool.allocated(), 4u + 8 + 16 + 32 + 64 + 128 + 3 * 256);
}

TEST(ObjectPoolTest, ReleaseReusesTheSameSlot) {
  Pool pool;
  Payload* a = pool.acquire();
  a->value = 42;
  Payload* b = pool.acquire();
  pool.release(a);
  pool.release(b);
  // LIFO free list: the last slot released comes back first (and keeps
  // whatever state the releaser left — pools do not reconstruct).
  EXPECT_EQ(pool.acquire(), b);
  Payload* again = pool.acquire();
  EXPECT_EQ(again, a);
  EXPECT_EQ(again->value, 42);
  EXPECT_EQ(pool.in_use(), 2u);
  EXPECT_EQ(pool.allocated(), Pool::kFirstChunk);
}

TEST(ObjectPoolTest, AddressesAreStableAcrossGrowth) {
  Pool pool;
  std::vector<Payload*> held;
  // Enough to cross every doubling and two capped chunks.
  for (int i = 0; i < 1'000; ++i) {
    Payload* p = pool.acquire();
    p->value = i;
    held.push_back(p);
  }
  EXPECT_GT(pool.allocated(), 2 * Pool::kMaxChunk);
  // Growth must never move live objects (events capture these pointers).
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_EQ(held[static_cast<std::size_t>(i)]->value, i);
  }
  std::set<Payload*> unique(held.begin(), held.end());
  EXPECT_EQ(unique.size(), held.size());
}

TEST(ObjectPoolTest, InterleavedAcquireReleaseStaysBalanced) {
  ObjectPool<int> pool;
  std::vector<int*> live;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 7; ++i) live.push_back(pool.acquire());
    for (int i = 0; i < 5 && !live.empty(); ++i) {
      pool.release(live.back());
      live.pop_back();
    }
  }
  EXPECT_EQ(pool.in_use(), live.size());
  for (int* p : live) pool.release(p);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.available(), pool.allocated());
}

}  // namespace
}  // namespace dlte
