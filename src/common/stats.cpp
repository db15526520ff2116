#include "common/stats.h"

#include <algorithm>

namespace dlte {

void RunningStats::add(double x) {
  ++n_;
  mean_ += (x - mean_) / static_cast<double>(n_);
}

double Quantiles::quantile(double q) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  if (q <= 0.0) return samples_.front();
  if (q >= 1.0) return samples_.back();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

double jain_fairness(std::span<const double> allocations) {
  if (allocations.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : allocations) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(allocations.size()) * sum_sq);
}

}  // namespace dlte
