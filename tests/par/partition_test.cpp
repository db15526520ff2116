#include "par/partition.h"

#include <gtest/gtest.h>

namespace dlte::par {
namespace {

TEST(Partition, BlockIsMonotoneAndBalanced) {
  for (std::size_t n : {1u, 2u, 7u, 16u, 33u}) {
    for (std::size_t s : {1u, 2u, 3u, 4u, 8u}) {
      std::size_t prev = 0;
      std::vector<std::size_t> sizes(s, 0);
      for (std::size_t item = 0; item < n; ++item) {
        const std::size_t shard = shard_of_block(item, n, s);
        EXPECT_GE(shard, prev) << "n=" << n << " s=" << s;
        EXPECT_LT(shard, s);
        prev = shard;
        ++sizes[shard];
      }
      std::size_t lo = n, hi = 0, total = 0;
      for (std::size_t shard = 0; shard < s; ++shard) {
        total += sizes[shard];
        if (sizes[shard] > 0) lo = std::min(lo, sizes[shard]);
        hi = std::max(hi, sizes[shard]);
      }
      EXPECT_EQ(total, n);
      if (n >= s) EXPECT_LE(hi - lo, 1u) << "n=" << n << " s=" << s;
    }
  }
}

TEST(Partition, OneShardOwnsEverything) {
  for (std::size_t item = 0; item < 10; ++item) {
    EXPECT_EQ(shard_of_block(item, 10, 1), 0u);
  }
}

}  // namespace
}  // namespace dlte::par
