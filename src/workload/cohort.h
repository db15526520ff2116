// Aggregate UE cohorts: a 100-UE cell as one scheduling entity.
//
// The metro scenario (src/par/metro.h) serves ~1M UEs; simulating each
// UE's attach and bulk flow individually is O(UEs) events before a single
// byte moves. A UeCohort represents all UEs of one AP as a handful of
// batch events: UEs attach in stratified batches across the attach
// window, and each batch's traffic is one aggregate transport::FlowTrain
// sized for the whole batch (total bytes, bottleneck, and initial window
// all scale with the batch size, so the aggregate finishes when the
// per-UE flows would). Per-UE detail that matters for metrics — attach
// latency samples, attach counts, delivered bytes — is still recorded per
// UE; only the event count stops scaling with the cohort size.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/time.h"
#include "obs/metrics.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "transport/flow_train.h"

namespace dlte::workload {

struct CohortConfig {
  int ues{100};
  // Batches the attach wave is split into (each batch = one event).
  int attach_batches{10};
  // UEs attach at stratified-uniform times inside [0, attach_window).
  Duration attach_window{Duration::seconds(1.0)};
  // Bulk volume each UE pulls once attached (25 Mbit/s share of the cell,
  // 20 ms RTT); 0 disables flows.
  std::uint64_t flow_bytes_per_ue{0};
};

class UeCohort {
 public:
  // Observability sinks; any pointer may be null. Shared across cohorts
  // of a district so the aggregate is partition-invariant.
  struct Hooks {
    obs::Counter* attached{nullptr};
    obs::Counter* bytes_delivered{nullptr};
    obs::Counter* flows_completed{nullptr};
    obs::Histogram* attach_ms{nullptr};
  };

  UeCohort(sim::Simulator& sim, CohortConfig config, sim::RngStream rng,
           Hooks hooks);

  // Schedule the attach batches. Call once, before or during the run.
  void start();

 private:
  void attach_batch(int batch, int batch_ues);

  sim::Simulator& sim_;
  std::uint32_t attach_label_{0};
  CohortConfig config_;
  sim::RngStream rng_;
  Hooks hooks_;
  // Aggregate flows must outlive the run; one per batch.
  std::vector<std::unique_ptr<transport::FlowTrain>> flows_;
};

}  // namespace dlte::workload
