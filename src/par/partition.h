// Topology partitioner: which shard owns which AP.
//
// The only property the determinism machinery needs from a partition is
// that it is a pure function of (item count, shard count) — never of
// thread timing. The block partition is additionally MONOTONE (shard
// index is non-decreasing in item index), which makes the
// (timestamp, source_shard, sequence) exchange ordering coincide with
// the shard-count-invariant (timestamp, source_endpoint, sequence) order
// actually used for injection.
#pragma once

#include <cstddef>

namespace dlte::par {

// Contiguous block partition of items 0..n_items-1 over n_shards shards:
// balanced (shard sizes differ by at most one) and monotone.
[[nodiscard]] std::size_t shard_of_block(std::size_t item,
                                         std::size_t n_items,
                                         std::size_t n_shards);

}  // namespace dlte::par
