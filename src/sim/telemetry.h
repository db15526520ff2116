// TelemetryDriver: the sim-side pump for the obs telemetry plane
// (DESIGN.md §10).
//
// obs::TimeSeriesSampler and obs::SloMonitor are deliberately
// clock-free — they act only when handed a TimePoint. This driver owns
// the recurring simulator event that hands it to them: each tick first
// evaluates the SLO rules (so alerts are judged against the metrics as
// they stood during the interval), then samples the registry (so the
// sampler picks up the health gauges the monitor just refreshed).
//
// Ticks are ordinary events on the shared queue. They shift global
// sequence-number allocation but never the relative order of any two
// *other* same-timestamp events, so enabling telemetry does not perturb
// a seeded run — the determinism tests double-run with it on.
//
// Alert transitions reach the span trace through the monitor itself
// (SloMonitor::set_tracer: `slo_fire`/`slo_resolve` markers).
#pragma once

#include <cstdint>

#include "obs/series.h"
#include "obs/slo.h"
#include "sim/simulator.h"

namespace dlte::sim {

class TelemetryDriver {
 public:
  // Either pointer may be null: a null sampler gives alert-only
  // monitoring, a null monitor gives plain sampling.
  TelemetryDriver(Simulator& sim, obs::TimeSeriesSampler* sampler,
                  obs::SloMonitor* monitor)
      : sim_(sim), sampler_(sampler), monitor_(monitor) {}
  TelemetryDriver(const TelemetryDriver&) = delete;
  TelemetryDriver& operator=(const TelemetryDriver&) = delete;

  // Begin ticking every `interval` (default: the sampler's configured
  // interval, or 500 ms with no sampler). First tick one interval from
  // now. start() on a running driver restarts it at the new cadence.
  void start(Duration interval = Duration::seconds(0.0));
  // Stop at the next tick. Destruction also stops (RAII handle).
  void stop() { handle_.cancel(); }

  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  void tick();

  Simulator& sim_;
  obs::TimeSeriesSampler* sampler_;
  obs::SloMonitor* monitor_;
  Simulator::PeriodicHandle handle_;
  std::uint64_t ticks_{0};
};

}  // namespace dlte::sim
