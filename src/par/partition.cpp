#include "par/partition.h"

namespace dlte::par {

std::size_t shard_of_block(std::size_t item, std::size_t n_items,
                           std::size_t n_shards) {
  if (n_items == 0 || n_shards == 0) return 0;
  if (item >= n_items) item = n_items - 1;
  if (n_shards > n_items) n_shards = n_items;
  // item*S/N is monotone in item and yields block sizes within one of
  // each other (the classic balanced block formula).
  return item * n_shards / n_items;
}

}  // namespace dlte::par
