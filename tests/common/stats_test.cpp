#include "common/stats.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace dlte {
namespace {

TEST(RunningStats, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(RunningStats, KnownSequence) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
}

TEST(Quantiles, MedianOfOdd) {
  Quantiles q;
  for (double x : {5.0, 1.0, 3.0}) q.add(x);
  EXPECT_DOUBLE_EQ(q.median(), 3.0);
}

TEST(Quantiles, InterpolatesBetweenOrderStats) {
  Quantiles q;
  for (double x : {0.0, 10.0}) q.add(x);
  EXPECT_DOUBLE_EQ(q.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(q.quantile(0.25), 2.5);
}

TEST(Quantiles, ExtremesClamp) {
  Quantiles q;
  for (double x : {1.0, 2.0, 3.0}) q.add(x);
  EXPECT_DOUBLE_EQ(q.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 3.0);
  EXPECT_DOUBLE_EQ(q.quantile(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(q.quantile(2.0), 3.0);
}

TEST(Quantiles, AddAfterQueryResorts) {
  Quantiles q;
  q.add(10.0);
  EXPECT_DOUBLE_EQ(q.median(), 10.0);
  q.add(0.0);
  q.add(20.0);
  EXPECT_DOUBLE_EQ(q.median(), 10.0);
  EXPECT_DOUBLE_EQ(q.quantile(1.0), 20.0);
}

TEST(Quantiles, MergePoolsSamples) {
  Quantiles a, b;
  a.add(1.0);
  a.add(2.0);
  b.add(3.0);
  b.add(4.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.median(), 2.5);
  EXPECT_DOUBLE_EQ(a.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(b.median(), 3.5);  // Source is untouched.
}

TEST(JainFairness, PerfectlyEqualIsOne) {
  std::array<double, 4> a{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(jain_fairness(a), 1.0);
}

TEST(JainFairness, OneHogIsOneOverN) {
  std::array<double, 4> a{12.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness(a), 0.25);
}

TEST(JainFairness, SingleTransmitterIsPerfectlyFair) {
  // n = 1 degenerates to (x²)/(1·x²): the C11 single-occupant channel.
  std::array<double, 1> a{0.73};
  EXPECT_DOUBLE_EQ(jain_fairness(a), 1.0);
}

TEST(JainFairness, EmptyAndZeroInputsAreNeutral) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 1.0);
  std::array<double, 3> zeros{0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_fairness(zeros), 1.0);
}

TEST(JainFairness, ScaleInvariant) {
  std::vector<double> a{1.0, 2.0, 3.0};
  std::vector<double> b{10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(jain_fairness(a), jain_fairness(b));
}

}  // namespace
}  // namespace dlte
