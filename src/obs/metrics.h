// Metrics: the zero-dependency observability substrate (DESIGN.md §8).
//
// Every layer of the stack exports its behaviour as named counters,
// gauges, and log-linear histograms held in a MetricsRegistry. The
// registry is deliberately simulation-friendly: all values derive from
// simulated time and deterministic event streams, so two runs with the
// same seed snapshot to byte-identical JSON — which is what lets the
// bench trajectory (BENCH_*.json) and the CI perf gate trust the numbers.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace dlte::obs {

// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_{0};
};

// Point-in-time value (last write wins).
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    written_ = true;
  }
  void add(double d) {
    value_ += d;
    written_ = true;
  }
  // Keep the maximum seen: lets several instances (e.g. one simulator per
  // scenario variant) share one "worst observed" gauge. The first write
  // always sticks — a first negative observation must not lose to the
  // 0.0 default.
  void set_max(double v) {
    if (!written_ || v > value_) value_ = v;
    written_ = true;
  }
  [[nodiscard]] double value() const { return value_; }

 private:
  double value_{0.0};
  bool written_{false};
};

// Log-linear histogram: p50/p95/p99 without storing samples.
//
// Positive values land in 2^e ranges split into kSubBuckets linear
// sub-buckets (HdrHistogram-style), so the relative width of any bucket
// is at most 1/kSubBuckets (~3.1%) and a reported quantile — the bucket
// midpoint, clamped to the observed [min, max] — is within ~1.6% of the
// true sample quantile. Zero and negative samples share one underflow
// bucket that reports as 0. Memory is O(occupied buckets), never O(n).
class Histogram {
 public:
  static constexpr int kSubBuckets = 32;

  void record(double v);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }

  // q in [0,1]. Bucket-midpoint estimate, clamped to [min(), max()].
  [[nodiscard]] double quantile(double q) const;

  // Windowed view by bucket subtraction: statistics of the samples
  // recorded into *this since `baseline` was copied from it. `baseline`
  // MUST be an earlier copy of this same histogram. The clamp range is
  // the lifetime [min(), max()] (a superset of the window's), so the
  // estimate keeps the log-linear ~1.6% bucket accuracy. This is what
  // lets the SLO monitor compute "p95 over the last 5 s" without ever
  // storing samples.
  [[nodiscard]] std::uint64_t count_since(const Histogram& baseline) const {
    return count_ - baseline.count_;
  }
  [[nodiscard]] double quantile_since(const Histogram& baseline,
                                      double q) const;

  // Absorb every sample of `other` by bucket-wise addition. Because the
  // bucket layout is fixed (not adaptive), merging per-shard histograms
  // recorded from the same sample stream yields exactly the histogram a
  // single-instance run would have produced — the property the sharded
  // runtime's determinism gate relies on.
  void merge_from(const Histogram& other);
  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p90() const { return quantile(0.90); }
  [[nodiscard]] double p95() const { return quantile(0.95); }
  [[nodiscard]] double p99() const { return quantile(0.99); }

 private:
  [[nodiscard]] static std::int32_t bucket_index(double v);
  [[nodiscard]] static double bucket_midpoint(std::int32_t index);

  std::map<std::int32_t, std::uint64_t> buckets_;
  std::uint64_t underflow_{0};  // Samples <= 0.
  std::uint64_t count_{0};
  double sum_{0.0};
  double min_{0.0};
  double max_{0.0};
};

// Named metrics, get-or-create by name. References returned are stable
// for the registry's lifetime (node-based storage), so hot paths cache
// the pointer once and skip the name lookup thereafter. Iteration order
// is the sorted name order, which is what makes snapshots deterministic.
//
// A registry only grows: no instrument is ever removed. So a change of
// size() means exactly "an instrument appeared", which is all the
// TimeSeriesSampler checks before reusing its bound instruments.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name) {
    return counters_[name];
  }
  [[nodiscard]] Gauge& gauge(const std::string& name) {
    return gauges_[name];
  }
  [[nodiscard]] Histogram& histogram(const std::string& name) {
    return histograms_[name];
  }

  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(
      const std::string& name) const;

  [[nodiscard]] const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

// Null-tolerant helpers: instrumented components hold metric pointers
// that stay nullptr until someone attaches a registry, so the hot path
// is one branch when observability is off.
inline void inc(Counter* c, std::uint64_t n = 1) {
  if (c != nullptr) c->inc(n);
}
inline void observe(Histogram* h, double v) {
  if (h != nullptr) h->record(v);
}
inline void set(Gauge* g, double v) {
  if (g != nullptr) g->set(v);
}

}  // namespace dlte::obs
