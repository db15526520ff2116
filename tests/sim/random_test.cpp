#include "sim/random.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

namespace dlte::sim {
namespace {

TEST(RngStream, DeterministicForSameSeed) {
  RngStream a{1234}, b{1234};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(RngStream, DerivedStreamsAreIndependentOfEachOther) {
  auto a = RngStream::derive(42, "ue-0/mobility");
  auto b = RngStream::derive(42, "ue-1/mobility");
  // Not a statistical test: just ensure they don't produce the identical
  // stream (which would break experiment independence).
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngStream, DeriveIsStableAcrossCalls) {
  auto a = RngStream::derive(7, "link/shadowing");
  auto b = RngStream::derive(7, "link/shadowing");
  EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(RngStream, IndexedDeriveIsStableAndMatchesChildSeed) {
  auto a = RngStream::derive(42, "town.attach", 7);
  auto b = RngStream::derive(42, "town.attach", 7);
  RngStream c{RngStream::child_seed(42, "town.attach", 7)};
  const double v = a.uniform();
  EXPECT_DOUBLE_EQ(v, b.uniform());
  EXPECT_DOUBLE_EQ(v, c.uniform());
}

TEST(RngStream, IndexedDerivesAreIndependentAcrossIndices) {
  auto a = RngStream::derive(42, "town.attach", 0);
  auto b = RngStream::derive(42, "town.attach", 1);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngStream, ChildSeedVariesWithEveryInput) {
  const auto base = RngStream::child_seed(1, "shard", 0);
  EXPECT_NE(base, RngStream::child_seed(2, "shard", 0));
  EXPECT_NE(base, RngStream::child_seed(1, "other", 0));
  EXPECT_NE(base, RngStream::child_seed(1, "shard", 1));
  // Same inputs always reproduce.
  EXPECT_EQ(base, RngStream::child_seed(1, "shard", 0));
}

TEST(RngStream, UniformRespectsBounds) {
  RngStream r{99};
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 3.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(RngStream, UniformIntRespectsBounds) {
  RngStream r{99};
  for (int i = 0; i < 1000; ++i) {
    const auto x = r.uniform_int(5, 10);
    EXPECT_GE(x, 5u);
    EXPECT_LE(x, 10u);
  }
}

TEST(RngStream, ExponentialMeanRoughlyCorrect) {
  RngStream r{7};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(RngStream, BernoulliProbability) {
  RngStream r{13};
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

// LazyMt19937_64 must be std::mt19937_64, draw for draw: before the
// spill (outputs 0-155 from two seeding cursors), at it, and after it.
std::vector<std::uint64_t> seeds_under_test() {
  return {0,
          1,
          std::mt19937_64::default_seed,
          std::numeric_limits<std::uint64_t>::max(),
          RngStream::child_seed(42, "metro.cohort", 7),
          RngStream::child_seed(7, "town.attach"),
          RngStream::child_seed(0xd17e, "shard", 3)};
}

TEST(LazyMt19937_64, MatchesStdEngineForTheFirstTwoThousandDraws) {
  for (const std::uint64_t seed : seeds_under_test()) {
    LazyMt19937_64 lazy{seed};
    std::mt19937_64 reference{seed};
    for (int k = 0; k <= 2000; ++k) {
      ASSERT_EQ(lazy(), reference()) << "seed " << seed << " draw " << k;
    }
  }
}

TEST(LazyMt19937_64, TenThousandthOutputOfTheDefaultSeed) {
  // The standard's required behaviour of std::mt19937_64 ([rand.predef]).
  LazyMt19937_64 lazy{std::mt19937_64::default_seed};
  for (int k = 1; k < 10000; ++k) (void)lazy();
  EXPECT_EQ(lazy(), 9981545732273789042ULL);
}

TEST(LazyMt19937_64, SpillsOnThe157thDraw) {
  LazyMt19937_64 lazy{5};
  for (std::uint32_t k = 0; k < LazyMt19937_64::kPrefixDraws; ++k) {
    (void)lazy();
  }
  EXPECT_EQ(LazyMt19937_64::kPrefixDraws, 156u);
  EXPECT_FALSE(lazy.spilled());
  (void)lazy();
  EXPECT_TRUE(lazy.spilled());
}

// Each copy continues the source's sequence on its own: the reference is
// a std::mt19937_64 advanced by the same number of draws, and every copy
// is drained in full before the next one, so a copy sharing state with
// its source (a shallow copy of the spilled engine) drifts.
TEST(LazyMt19937_64, CopiesMovesAndAssignmentsContinueIndependently) {
  constexpr int kTail = 400;
  for (const int drawn : {0, 1, 155, 156, 157, 500}) {
    for (const std::uint64_t seed : seeds_under_test()) {
      LazyMt19937_64 source{seed};
      std::mt19937_64 reference{seed};
      for (int k = 0; k < drawn; ++k) {
        (void)source();
        (void)reference();
      }
      std::vector<std::uint64_t> expected(kTail);
      for (auto& v : expected) v = reference();

      LazyMt19937_64 copied{source};
      LazyMt19937_64 assigned{seed + 1};
      for (int k = 0; k < 200; ++k) (void)assigned();
      assigned = source;
      LazyMt19937_64 self{source};
      const LazyMt19937_64& alias = self;
      self = alias;
      LazyMt19937_64 moved_from{source};
      LazyMt19937_64 moved{std::move(moved_from)};
      LazyMt19937_64 move_assigned{seed + 2};
      move_assigned = LazyMt19937_64{source};

      for (LazyMt19937_64* engine :
           {&copied, &assigned, &self, &moved, &move_assigned, &source}) {
        for (int k = 0; k < kTail; ++k) {
          ASSERT_EQ((*engine)(), expected[static_cast<std::size_t>(k)])
              << "seed " << seed << " copied after " << drawn
              << " draws, draw " << k;
        }
      }
    }
  }
}

TEST(RngStream, CopyContinuesTheSameSequenceIndependently) {
  auto source = RngStream::derive(42, "metro.cohort", 3);
  for (int k = 0; k < 300; ++k) (void)source.uniform();
  RngStream copy = source;
  std::vector<double> from_copy(200);
  for (auto& v : from_copy) v = copy.uniform();
  for (const double v : from_copy) EXPECT_EQ(source.uniform(), v);
}

// Every RngStream distribution is the std:: distribution over
// std::mt19937_64, bit for bit, across the spill.
TEST(RngStream, DistributionsAreBitEqualToTheStdOnesOverMt19937_64) {
  for (const std::uint64_t seed : seeds_under_test()) {
    RngStream stream{seed};
    std::mt19937_64 reference{seed};
    for (int k = 0; k < 600; ++k) {
      const double lo = -3.0 + k % 7;
      const double hi = lo + 0.5 + k % 5;
      ASSERT_EQ(stream.uniform(lo, hi),
                (std::uniform_real_distribution<double>{lo, hi}(reference)));
      ASSERT_EQ(stream.uniform(),
                (std::uniform_real_distribution<double>{0.0, 1.0}(reference)));
      const std::uint64_t ilo = static_cast<std::uint64_t>(k % 11);
      const std::uint64_t ihi = ilo + static_cast<std::uint64_t>(k % 13) * 977;
      ASSERT_EQ(stream.uniform_int(ilo, ihi),
                (std::uniform_int_distribution<std::uint64_t>{ilo, ihi}(
                    reference)));
      constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
      ASSERT_EQ(stream.uniform_int(0, kMax),
                (std::uniform_int_distribution<std::uint64_t>{0, kMax}(
                    reference)));
      const double mean = 0.25 + k % 9;
      ASSERT_EQ(stream.exponential(mean),
                (std::exponential_distribution<double>{1.0 / mean}(reference)));
      const double p = (k % 10) / 9.0;
      ASSERT_EQ(stream.bernoulli(p), std::bernoulli_distribution{p}(reference));
    }
  }
}

}  // namespace
}  // namespace dlte::sim
