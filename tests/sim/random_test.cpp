#include "sim/random.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace dlte::sim
