// Service-level resilience accounting for fault experiments.
//
// The C8 experiment's claim is about *clients*, not boxes: when an AP
// dies, how long until its UEs are in service again somewhere, and how
// much UE-time was lost? The tracker watches each UE's in-service
// intervals and attach outcomes and folds them into a ResilienceReport
// whose to_string() is byte-stable — two runs with the same seed must
// produce identical reports, which the determinism test checks literally.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace dlte::fault {

struct ResilienceReport {
  double horizon_s{0.0};
  std::size_t ues{0};
  std::uint64_t attach_attempts{0};
  std::uint64_t attach_successes{0};
  std::uint64_t service_losses{0};
  std::uint64_t service_recoveries{0};
  // Fraction of total UE-time spent in service.
  double availability{0.0};
  // Fraction of UEs attached (in service) at the horizon.
  double eventual_attach_rate{0.0};
  // Loss → recovery time: mean (MTTR) and p95, over recovered losses.
  double mttr_s{0.0};
  double reattach_p95_s{0.0};
  // Injections + heals; the scenario fills it from FaultInjector::stats().
  std::uint64_t fault_events{0};

  // Fixed-format, byte-stable rendering (the determinism check compares
  // these strings between same-seed runs).
  [[nodiscard]] std::string to_string() const;
};

class ResilienceTracker {
 public:
  explicit ResilienceTracker(sim::Simulator& sim) : sim_(sim) {}

  // Register a UE. It starts out of service; on_attached() begins its
  // first in-service interval.
  void track(Imsi imsi);

  void on_attach_attempt() { ++attach_attempts_; }
  // Attach completed: the UE is in service. If it was previously lost,
  // this closes a loss interval and records the repair time.
  void on_attached(Imsi imsi);
  // Service lost (AP crash, lease lapse): opens a loss interval.
  void on_service_lost(Imsi imsi);

  [[nodiscard]] std::size_t tracked() const { return ues_.size(); }
  [[nodiscard]] bool in_service(Imsi imsi) const;

  // Fold everything into a report at `horizon` (open in-service intervals
  // are credited up to the horizon). Const: callable repeatedly.
  [[nodiscard]] ResilienceReport report(TimePoint horizon) const;

  // Health source (DESIGN.md §10): gauge
  // `<prefix>resilience.ues_in_service`, counters
  // `.service_losses`/`.service_recoveries`, and a `.repair_time_s`
  // histogram of observed loss→recovery times (the client-side MTTR,
  // vs fault.repair_time_s which is the injected ground truth).
  // Null-safe.
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "");

 private:
  struct UeState {
    bool in_service{false};
    bool ever_lost{false};
    TimePoint interval_start{};  // Start of the current interval.
    TimePoint lost_at{};
    Duration in_service_time{};
  };

  sim::Simulator& sim_;
  std::unordered_map<Imsi, UeState> ues_;
  std::vector<double> repair_times_s_;
  std::uint64_t attach_attempts_{0};
  std::uint64_t attach_successes_{0};
  std::uint64_t service_losses_{0};
  std::uint64_t service_recoveries_{0};

  [[nodiscard]] std::size_t in_service_count() const;

  obs::Gauge* m_in_service_{nullptr};
  obs::Counter* m_losses_{nullptr};
  obs::Counter* m_recoveries_{nullptr};
  obs::Histogram* m_repair_time_s_{nullptr};
};

}  // namespace dlte::fault
