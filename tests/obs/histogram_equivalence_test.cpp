// Histogram against a reference: the same log-linear buckets kept in a
// std::map, as the histogram once stored them. Seeded streams with every
// awkward input class (zeros, negatives, NaN/±inf, subnormals, values
// past 1e12) must give bit-identical statistics, quantiles, merges and
// windowed quantiles through both stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include "obs/metrics.h"

namespace dlte::obs {
namespace {

class MapHistogram {
 public:
  void record(double v) {
    if (!std::isfinite(v)) return;
    if (count_ == 0) {
      min_ = v;
      max_ = v;
    } else {
      if (v < min_) min_ = v;
      if (v > max_) max_ = v;
    }
    ++count_;
    sum_ += v;
    if (v <= 0.0) {
      ++underflow_;
    } else {
      ++buckets_[bucket_index(v)];
    }
  }

  void merge_from(const MapHistogram& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      if (other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
    }
    count_ += other.count_;
    sum_ += other.sum_;
    underflow_ += other.underflow_;
    for (const auto& [index, n] : other.buckets_) buckets_[index] += n;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }

  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        std::max<double>(1.0, std::ceil(q * static_cast<double>(count_))));
    std::uint64_t seen = underflow_;
    if (rank <= seen) return min_ < 0.0 ? min_ : 0.0;
    double estimate = max_;
    for (const auto& [index, n] : buckets_) {
      seen += n;
      if (seen >= rank) {
        estimate = bucket_midpoint(index);
        break;
      }
    }
    return std::clamp(estimate, min_, max_);
  }

  [[nodiscard]] double quantile_since(const MapHistogram& baseline,
                                      double q) const {
    const std::uint64_t n = count_ - baseline.count_;
    if (n == 0) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        std::max<double>(1.0, std::ceil(q * static_cast<double>(n))));
    std::uint64_t seen = underflow_ - baseline.underflow_;
    if (rank <= seen) return min_ < 0.0 ? min_ : 0.0;
    double estimate = max_;
    for (const auto& [index, count] : buckets_) {
      std::uint64_t delta = count;
      const auto it = baseline.buckets_.find(index);
      if (it != baseline.buckets_.end()) delta -= it->second;
      seen += delta;
      if (seen >= rank) {
        estimate = bucket_midpoint(index);
        break;
      }
    }
    return std::clamp(estimate, min_, max_);
  }

 private:
  static std::int32_t bucket_index(double v) {
    int e = 0;
    const double f = std::frexp(v, &e);
    const auto sub = static_cast<std::int32_t>((f - 0.5) * 2.0 *
                                               Histogram::kSubBuckets);
    return static_cast<std::int32_t>(e) * Histogram::kSubBuckets +
           std::min<std::int32_t>(sub, Histogram::kSubBuckets - 1);
  }
  static double bucket_midpoint(std::int32_t index) {
    constexpr int kSub = Histogram::kSubBuckets;
    const std::int32_t e =
        index >= 0 ? index / kSub : (index - (kSub - 1)) / kSub;
    const std::int32_t sub = index - e * kSub;
    const double lo =
        std::ldexp(0.5 + 0.5 * static_cast<double>(sub) / kSub, e);
    const double hi =
        std::ldexp(0.5 + 0.5 * static_cast<double>(sub + 1) / kSub, e);
    return 0.5 * (lo + hi);
  }

  std::map<std::int32_t, std::uint64_t> buckets_;
  std::uint64_t underflow_{0};
  std::uint64_t count_{0};
  double sum_{0.0};
  double min_{0.0};
  double max_{0.0};
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// One sample from a mix of every input class the recorder must handle.
double draw(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> kind(0, 11);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::lognormal_distribution<double> latency(2.0, 1.5);
  switch (kind(rng)) {
    case 0:
      return 0.0;
    case 1:
      return -latency(rng);
    case 2:
      return std::numeric_limits<double>::quiet_NaN();
    case 3:
      return unit(rng) < 0.5 ? std::numeric_limits<double>::infinity()
                             : -std::numeric_limits<double>::infinity();
    case 4:
      return std::numeric_limits<double>::denorm_min() *
             static_cast<double>(1 + rng() % 1000);
    case 5:
      return 1e12 * (1.0 + 1e6 * unit(rng));
    case 6:
      return std::numeric_limits<double>::max() * unit(rng);
    case 7:
      return std::numeric_limits<double>::min() * (1.0 + unit(rng));
    default:
      return latency(rng);
  }
}

std::vector<double> probes() {
  std::vector<double> qs = {-0.5, 0.0, 1e-9, 0.001, 0.01, 0.05, 0.1, 0.25,
                            0.5,  0.75, 0.9, 0.95,  0.99, 0.999, 1.0, 1.5};
  for (int i = 1; i < 200; ++i) qs.push_back(i / 200.0);
  return qs;
}

void expect_same(const Histogram& h, const MapHistogram& ref) {
  EXPECT_EQ(h.count(), ref.count());
  EXPECT_EQ(bits(h.sum()), bits(ref.sum()));
  EXPECT_EQ(bits(h.min()), bits(ref.min()));
  EXPECT_EQ(bits(h.max()), bits(ref.max()));
  for (const double q : probes()) {
    EXPECT_EQ(bits(h.quantile(q)), bits(ref.quantile(q))) << "q=" << q;
  }
}

struct Pair {
  Histogram h;
  MapHistogram ref;
  void record(double v) {
    h.record(v);
    ref.record(v);
  }
};

TEST(HistogramEquivalence, MatchesAMapReferenceOverSeededStreams) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 7u, 42u, 1234u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng{seed};
    Pair a;
    Pair b;
    const int n = 500 + static_cast<int>(rng() % 3000);
    for (int i = 0; i < n; ++i) a.record(draw(rng));
    expect_same(a.h, a.ref);

    // Windowed view against an earlier copy of the same histogram.
    const Histogram base_h = a.h;
    const MapHistogram base_ref = a.ref;
    for (int i = 0; i < n / 2; ++i) a.record(draw(rng));
    expect_same(a.h, a.ref);
    EXPECT_EQ(a.h.count_since(base_h), a.ref.count() - base_ref.count());
    for (const double q : probes()) {
      EXPECT_EQ(bits(a.h.quantile_since(base_h, q)),
                bits(a.ref.quantile_since(base_ref, q)))
          << "q=" << q;
    }
    // An unchanged window and a window from empty.
    EXPECT_EQ(bits(a.h.quantile_since(a.h, 0.5)),
              bits(a.ref.quantile_since(a.ref, 0.5)));
    EXPECT_EQ(bits(a.h.quantile_since(Histogram{}, 0.9)),
              bits(a.ref.quantile_since(MapHistogram{}, 0.9)));

    // Merges in both orders, and into and from an empty histogram.
    for (int i = 0; i < n; ++i) b.record(draw(rng) * 3.0);
    Pair ab = a;
    ab.h.merge_from(b.h);
    ab.ref.merge_from(b.ref);
    expect_same(ab.h, ab.ref);
    Pair ba = b;
    ba.h.merge_from(a.h);
    ba.ref.merge_from(a.ref);
    expect_same(ba.h, ba.ref);
    Pair empty;
    empty.h.merge_from(a.h);
    empty.ref.merge_from(a.ref);
    expect_same(empty.h, empty.ref);
    ab.h.merge_from(Histogram{});
    ab.ref.merge_from(MapHistogram{});
    expect_same(ab.h, ab.ref);
  }
}

TEST(HistogramEquivalence, EmptyAndNonFiniteOnlyStaysEmpty) {
  Pair p;
  expect_same(p.h, p.ref);
  p.record(std::numeric_limits<double>::quiet_NaN());
  p.record(std::numeric_limits<double>::infinity());
  p.record(-std::numeric_limits<double>::infinity());
  expect_same(p.h, p.ref);
  EXPECT_EQ(p.h.count(), 0u);
}

}  // namespace
}  // namespace dlte::obs
