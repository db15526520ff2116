#include "sim/telemetry.h"

namespace dlte::sim {

void TelemetryDriver::start(Duration interval) {
  if (interval.to_seconds() <= 0.0) {
    interval = sampler_ != nullptr ? sampler_->interval()
                                   : Duration::millis(500);
  }
  handle_ = sim_.every_cancellable(interval, [this] { tick(); }, tick_label_);
}

void TelemetryDriver::tick() {
  const TimePoint now = sim_.now();
  if (monitor_ != nullptr) monitor_->evaluate(now);
  if (sampler_ != nullptr) sampler_->sample(now);
}

}  // namespace dlte::sim
