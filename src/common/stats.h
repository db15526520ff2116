// Statistics accumulators used by the metrics plumbing and benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dlte {

// Streaming mean (Welford's running mean). O(1) memory.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }

 private:
  std::size_t n_{0};
  double mean_{0.0};
};

// Stores samples for exact quantiles. Used where sample counts are modest
// (latency distributions over a simulation run).
class Quantiles {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  // Pool another distribution's samples (e.g. per-waveform rollups over
  // several transmitters in the C11 coexistence summary).
  void merge(const Quantiles& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
  }
  // q in [0,1]; linear interpolation between order statistics.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double p95() const { return quantile(0.95); }

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_{false};
};

// Jain's fairness index over per-flow allocations:
//   J = (sum x)^2 / (n * sum x^2),  1/n <= J <= 1.
// J = 1 means perfectly equal allocations. Used by the spectrum-sharing
// experiments (paper §4.3: "similar fairness characteristics to what WiFi
// achieves today").
[[nodiscard]] double jain_fairness(std::span<const double> allocations);

}  // namespace dlte
