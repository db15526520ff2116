#include "obs/series.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <tuple>
#include <utility>

namespace dlte::obs {

namespace {

// Column::suffix indexes kSuffixes.
enum Suffix : std::uint8_t { kValue, kRate, kCount, kP50, kP95, kP99 };
constexpr const char* kSuffixes[] = {"", ".rate", ".count",
                                     ".p50", ".p95", ".p99"};

// Which slot vector a kind's column is filled from: the first key of
// push order.
int push_group(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kCounter:
    case SeriesKind::kCounterRate:
      return 0;
    case SeriesKind::kGauge:
      return 1;
    case SeriesKind::kHistogramCount:
    case SeriesKind::kHistogramQuantile:
      return 2;
  }
  return 3;
}

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
    : registry_(registry), config_(config) {
  if (config_.capacity == 0) {
    throw std::invalid_argument("TimeSeriesSampler: capacity must be > 0");
  }
}

std::uint32_t TimeSeriesSampler::add_column(const std::string& key,
                                            std::uint8_t suffix,
                                            SeriesKind kind) {
  assert(columns_.size() < std::numeric_limits<std::uint32_t>::max());
  columns_.push_back(Column{&key, samples_, suffix, kind});
  return static_cast<std::uint32_t>(columns_.size() - 1);
}

void TimeSeriesSampler::bind() {
  // Columns are numbered in creation order: counters, gauges, then
  // histograms of each bind, so a lower index is an earlier series.
  rebind(counters_, registry_.counters(),
         [this](const std::string& name, const Counter& c) {
           const std::uint32_t column =
               add_column(name, kValue, SeriesKind::kCounter);
           add_column(name, kRate, SeriesKind::kCounterRate);
           return CounterSlot{&c, column};
         });
  rebind(gauges_, registry_.gauges(),
         [this](const std::string& name, const Gauge& g) {
           return GaugeSlot{&g, add_column(name, kValue, SeriesKind::kGauge)};
         });
  rebind(histograms_, registry_.histograms(),
         [this](const std::string& name, const Histogram& h) {
           const std::uint32_t column =
               add_column(name, kCount, SeriesKind::kHistogramCount);
           for (const Suffix q : {kP50, kP95, kP99}) {
             add_column(name, q, SeriesKind::kHistogramQuantile);
           }
           return HistogramSlot{&h, column};
         });
  bound_size_ = registry_.size();
}

TimeSeriesSampler::Row& TimeSeriesSampler::next_row() {
  Row* row;
  if (rows_.size() < config_.capacity) {
    row = &rows_.emplace_back();
  } else {
    row = &rows_[oldest_];
    oldest_ = (oldest_ + 1) % rows_.size();
  }
  row->values.resize(columns_.size());
  return *row;
}

void TimeSeriesSampler::sample(TimePoint now) {
  if (registry_.size() != bound_size_) bind();
  const double t_s = (now - TimePoint{}).to_seconds();
  const double dt = t_s - last_t_s_;
  Row& row = next_row();
  row.t_s = t_s;
  double* values = row.values.data();
  for (CounterSlot& slot : counters_) {
    const std::uint64_t value = slot.instrument->value();
    values[slot.column] = static_cast<double>(value);
    double rate = 0.0;
    if (slot.seen && dt > 0.0) {
      rate = static_cast<double>(value - slot.last) / dt;
    }
    values[slot.column + 1] = rate;
    slot.last = value;
    slot.seen = true;
  }
  for (const GaugeSlot& slot : gauges_) {
    values[slot.column] = slot.instrument->value();
  }
  for (const HistogramSlot& slot : histograms_) {
    const Histogram& h = *slot.instrument;
    values[slot.column] = static_cast<double>(h.count());
    values[slot.column + 1] = h.p50();
    values[slot.column + 2] = h.p95();
    values[slot.column + 3] = h.p99();
  }
  last_t_s_ = t_s;
  ++samples_;
}

std::string TimeSeriesSampler::name_of(const Column& column) {
  return *column.key + kSuffixes[column.suffix];
}

std::map<std::string, TimeSeriesSampler::Columns>
TimeSeriesSampler::columns_by_name() const {
  std::map<std::string, Columns> out;
  for (std::uint32_t c = 0; c < columns_.size(); ++c) {
    out[name_of(columns_[c])].push_back(c);
  }
  auto push_order = [this](std::uint32_t a, std::uint32_t b) {
    const Column& x = columns_[a];
    const Column& y = columns_[b];
    return std::forward_as_tuple(push_group(x.kind), *x.key, x.suffix) <
           std::forward_as_tuple(push_group(y.kind), *y.key, y.suffix);
  };
  for (auto& [name, columns] : out) {
    if (columns.size() > 1) {
      std::sort(columns.begin(), columns.end(), push_order);
    }
  }
  return out;
}

ExportedSeries TimeSeriesSampler::export_series(const Columns& columns) const {
  ExportedSeries out;
  if (columns.empty()) return out;
  // Every column has a value in every row from its first sample on, so
  // the merged stream holds sum(samples - first) points; the ring keeps
  // the newest rows, which hold at least the newest `capacity` of them.
  std::uint64_t total = 0;
  std::uint64_t born = samples_;
  out.kind = columns_[*std::min_element(columns.begin(), columns.end())].kind;
  for (const std::uint32_t c : columns) {
    total += samples_ - columns_[c].first;
    born = std::min(born, columns_[c].first);
  }
  const std::uint64_t base = samples_ - rows_.size();  // Oldest row's sample.
  for (std::uint64_t s = std::max(base, born); s < samples_; ++s) {
    const Row& row = rows_[(oldest_ + (s - base)) % rows_.size()];
    for (const std::uint32_t c : columns) {
      if (columns_[c].first <= s) {
        out.points.push_back(SeriesPoint{row.t_s, row.values[c]});
      }
    }
  }
  if (out.points.size() > config_.capacity) {
    out.points.erase(out.points.begin(),
                     out.points.end() - static_cast<std::ptrdiff_t>(
                                            config_.capacity));
  }
  out.dropped = total - out.points.size();
  return out;
}

}  // namespace dlte::obs
