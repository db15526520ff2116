// FlatMap against std::unordered_map over seeded insert/erase/lookup
// runs: dense key ranges make long probe runs, so erase's backward shift
// is exercised across wrap-around and growth.
#include "common/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>

#include "common/ids.h"

namespace dlte {
namespace {

TEST(FlatMap, MatchesAnUnorderedMapOverSeededRuns) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 7u, 42u, 1234u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng{seed};
    FlatMap<Imsi, std::uint64_t> map;
    std::unordered_map<std::uint64_t, std::uint64_t> model;
    // A small key range collides and refills; a huge one spreads.
    const std::uint64_t range = seed % 2 == 0 ? 64 : (1ull << 60);
    for (int step = 0; step < 5000; ++step) {
      const std::uint64_t key = rng() % range;
      switch (rng() % 4) {
        case 0: {
          const auto [value, inserted] = map.try_emplace(Imsi{key});
          ASSERT_EQ(inserted, !model.contains(key));
          if (inserted) {
            ASSERT_EQ(*value, 0u);
          }
          *value = step;
          model[key] = static_cast<std::uint64_t>(step);
          break;
        }
        case 1:
          map.insert_or_assign(Imsi{key}, key * 3);
          model[key] = key * 3;
          break;
        case 2:
          ASSERT_EQ(map.erase(Imsi{key}), model.erase(key) == 1);
          break;
        default:
          if (rng() % 50 == 0) {
            map.clear();
            model.clear();
          }
          break;
      }
      ASSERT_EQ(map.size(), model.size());
      if (step % 97 == 0 || range == 64) {
        for (const auto& [k, v] : model) {
          const std::uint64_t* found = map.find(Imsi{k});
          ASSERT_NE(found, nullptr) << "key " << k;
          ASSERT_EQ(*found, v);
        }
      }
      const std::uint64_t probe = rng() % range;
      ASSERT_EQ(map.contains(Imsi{probe}), model.contains(probe));
    }
  }
}

TEST(FlatMap, FindIfScansTheValues) {
  FlatMap<CellId, int> map;
  for (std::uint32_t c = 1; c <= 20; ++c) map[CellId{c}] = static_cast<int>(c);
  const int* found = map.find_if([](int v) { return v == 13; });
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, 13);
  EXPECT_EQ(map.find_if([](int v) { return v > 20; }), nullptr);
  EXPECT_EQ(map.find(CellId{0}), nullptr);
}

}  // namespace
}  // namespace dlte
