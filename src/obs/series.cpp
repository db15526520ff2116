#include "obs/series.h"

#include <utility>

namespace dlte::obs {

const char* series_kind_name(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kCounter:
      return "counter";
    case SeriesKind::kCounterRate:
      return "rate";
    case SeriesKind::kGauge:
      return "gauge";
    case SeriesKind::kHistogramCount:
      return "hist_count";
    case SeriesKind::kHistogramQuantile:
      return "hist_quantile";
  }
  return "?";
}

TimeSeriesSampler::TimeSeriesSampler(const MetricsRegistry& registry,
                                     SamplerConfig config)
    : registry_(registry), config_(config) {}

TimeSeries& TimeSeriesSampler::get(const std::string& name, SeriesKind kind) {
  const auto it = series_.find(name);
  if (it != series_.end()) return it->second;
  return series_.emplace(name, TimeSeries{kind, config_.capacity})
      .first->second;
}

namespace {

// Registries only grow, so the bound slots are a subsequence of the
// registry's name order: one merge walk keeps every bound slot (and a
// counter's last value) and calls `make` only for new instruments.
template <typename Slot, typename Instruments, typename Make>
void rebind(std::vector<Slot>& slots, const Instruments& instruments,
            Make make) {
  if (slots.size() == instruments.size()) return;
  std::vector<Slot> out;
  out.reserve(instruments.size());
  auto old = slots.begin();
  for (const auto& [name, instrument] : instruments) {
    if (old != slots.end() && old->instrument == &instrument) {
      out.push_back(*old++);
    } else {
      out.push_back(make(name, instrument));
    }
  }
  slots = std::move(out);
}

}  // namespace

void TimeSeriesSampler::bind() {
  rebind(counters_, registry_.counters(),
         [this](const std::string& name, const Counter& c) {
           TimeSeries* value = &get(name, SeriesKind::kCounter);
           return CounterSlot{
               &c, value, &get(name + ".rate", SeriesKind::kCounterRate)};
         });
  rebind(gauges_, registry_.gauges(),
         [this](const std::string& name, const Gauge& g) {
           return GaugeSlot{&g, &get(name, SeriesKind::kGauge)};
         });
  rebind(histograms_, registry_.histograms(),
         [this](const std::string& name, const Histogram& h) {
           TimeSeries* count =
               &get(name + ".count", SeriesKind::kHistogramCount);
           TimeSeries* p50 =
               &get(name + ".p50", SeriesKind::kHistogramQuantile);
           TimeSeries* p95 =
               &get(name + ".p95", SeriesKind::kHistogramQuantile);
           TimeSeries* p99 =
               &get(name + ".p99", SeriesKind::kHistogramQuantile);
           return HistogramSlot{&h, count, p50, p95, p99};
         });
  bound_size_ = registry_.size();
}

void TimeSeriesSampler::sample(TimePoint now) {
  if (registry_.size() != bound_size_) bind();
  const double t_s = (now - TimePoint{}).to_seconds();
  const double dt = t_s - last_t_s_;
  for (CounterSlot& slot : counters_) {
    const std::uint64_t value = slot.instrument->value();
    slot.value->push(t_s, static_cast<double>(value));
    double rate = 0.0;
    if (slot.seen && dt > 0.0) {
      rate = static_cast<double>(value - slot.last) / dt;
    }
    slot.rate->push(t_s, rate);
    slot.last = value;
    slot.seen = true;
  }
  for (const GaugeSlot& slot : gauges_) {
    slot.value->push(t_s, slot.instrument->value());
  }
  for (const HistogramSlot& slot : histograms_) {
    const Histogram& h = *slot.instrument;
    slot.count->push(t_s, static_cast<double>(h.count()));
    slot.p50->push(t_s, h.p50());
    slot.p95->push(t_s, h.p95());
    slot.p99->push(t_s, h.p99());
  }
  last_t_s_ = t_s;
  ++samples_;
}

}  // namespace dlte::obs
