#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace dlte::obs {

std::int32_t Histogram::bucket_index(double v) {
  // frexp: v = f * 2^e with f in [0.5, 1). Map f linearly onto
  // kSubBuckets sub-buckets so consecutive buckets differ by at most a
  // factor of (1 + 1/kSubBuckets).
  int e = 0;
  const double f = std::frexp(v, &e);
  const auto sub = static_cast<std::int32_t>((f - 0.5) * 2.0 * kSubBuckets);
  return static_cast<std::int32_t>(e) * kSubBuckets +
         std::min<std::int32_t>(sub, kSubBuckets - 1);
}

double Histogram::bucket_midpoint(std::int32_t index) {
  const std::int32_t e =
      index >= 0 ? index / kSubBuckets
                 : (index - (kSubBuckets - 1)) / kSubBuckets;
  const std::int32_t sub = index - e * kSubBuckets;
  const double lo =
      std::ldexp(0.5 + 0.5 * static_cast<double>(sub) / kSubBuckets, e);
  const double hi =
      std::ldexp(0.5 + 0.5 * static_cast<double>(sub + 1) / kSubBuckets, e);
  return 0.5 * (lo + hi);
}

void Histogram::record(double v) {
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
    add(bucket_index(v), 1);
  }
}

void Histogram::add(std::int32_t index, std::uint64_t n) {
  const auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), index,
      [](const Bucket& b, std::int32_t i) { return b.index < i; });
  if (it != buckets_.end() && it->index == index) {
    it->count += n;
  } else {
    buckets_.insert(it, Bucket{index, n});
  }
}

void Histogram::merge_from(const Histogram& other) {
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
  if (buckets_.empty()) {
    buckets_ = other.buckets_;  // The common case: one source per name.
    return;
  }
  for (const Bucket& b : other.buckets_) add(b.index, b.count);
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample (1-based, ceil) within the sorted stream.
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = underflow_;
  // Underflow bucket: report the observed minimum when negative samples
  // were seen, otherwise the bucket's nominal value of zero.
  if (rank <= seen) return min_ < 0.0 ? min_ : 0.0;
  double estimate = max_;
  for (const Bucket& b : buckets_) {
    seen += b.count;
    if (seen >= rank) {
      estimate = bucket_midpoint(b.index);
      break;
    }
  }
  if (estimate < min_) estimate = min_;
  if (estimate > max_) estimate = max_;
  return estimate;
}

double Histogram::quantile_since(const Histogram& baseline, double q) const {
  const std::uint64_t n = count_ - baseline.count_;
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(n))));
  std::uint64_t seen = underflow_ - baseline.underflow_;
  if (rank <= seen) return min_ < 0.0 ? min_ : 0.0;
  double estimate = max_;
  // The baseline's buckets are a subset of ours: walk both in step.
  auto base = baseline.buckets_.begin();
  for (const Bucket& b : buckets_) {
    std::uint64_t delta = b.count;
    while (base != baseline.buckets_.end() && base->index < b.index) ++base;
    if (base != baseline.buckets_.end() && base->index == b.index) {
      delta -= base->count;
    }
    seen += delta;
    if (seen >= rank) {
      estimate = bucket_midpoint(b.index);
      break;
    }
  }
  if (estimate < min_) estimate = min_;
  if (estimate > max_) estimate = max_;
  return estimate;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it != counters_.end() ? &it->second : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it != gauges_.end() ? &it->second : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it != histograms_.end() ? &it->second : nullptr;
}

}  // namespace dlte::obs
