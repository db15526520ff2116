#include "workload/cohort.h"

#include <algorithm>
#include <utility>

namespace dlte::workload {

namespace {
// Per-UE attach latency sample: base + uniform(0, jitter) ms.
constexpr double kAttachMsBase = 40.0;
constexpr double kAttachMsJitter = 25.0;
// Each UE's flow: its share of the cell bottleneck and its path RTT.
constexpr DataRate kPerUeRate = DataRate::mbps(25.0);
constexpr Duration kFlowRtt = Duration::millis(20);
}  // namespace

UeCohort::UeCohort(sim::Simulator& sim, CohortConfig config,
                   sim::RngStream rng, Hooks hooks)
    : sim_(sim), config_(config), rng_(std::move(rng)), hooks_(hooks) {
  attach_label_ = sim_.label("workload.attach");
  if (config_.ues < 0) config_.ues = 0;
  config_.attach_batches =
      std::clamp(config_.attach_batches, 1, std::max(1, config_.ues));
}

void UeCohort::start() {
  const int batches = config_.attach_batches;
  const int base = config_.ues / batches;
  const int extra = config_.ues % batches;
  const double window_s = std::max(0.0, config_.attach_window.to_seconds());
  // One aggregate flow per batch at most: size the vector once instead
  // of regrowing it as the batches attach.
  if (config_.flow_bytes_per_ue != 0) {
    flows_.reserve(static_cast<std::size_t>(batches));
  }
  for (int k = 0; k < batches; ++k) {
    // Stratified: batch k lands uniformly inside its own slice of the
    // window, so the wave stays spread without per-UE draws.
    const double frac =
        rng_.uniform(static_cast<double>(k), static_cast<double>(k + 1)) /
        static_cast<double>(batches);
    const int batch_ues = base + (k < extra ? 1 : 0);
    if (batch_ues == 0) continue;
    sim_.schedule(
        Duration::seconds(frac * window_s),
        [this, k, batch_ues] { attach_batch(k, batch_ues); },
        attach_label_);
  }
}

void UeCohort::attach_batch(int /*batch*/, int batch_ues) {
  obs::inc(hooks_.attached, static_cast<std::uint64_t>(batch_ues));
  for (int i = 0; i < batch_ues; ++i) {
    const double ms = kAttachMsBase + rng_.uniform(0.0, kAttachMsJitter);
    obs::observe(hooks_.attach_ms, ms);
  }
  if (config_.flow_bytes_per_ue == 0) return;

  transport::FlowTrainConfig flow;
  flow.rtt = kFlowRtt;
  flow.total_bytes =
      config_.flow_bytes_per_ue * static_cast<std::uint64_t>(batch_ues);
  // The batch shares the cell: aggregate capacity and initial window
  // scale with its size, so the aggregate completes when the individual
  // flows would have.
  flow.bottleneck =
      DataRate(kPerUeRate.bps() * static_cast<double>(batch_ues));
  flow.initial_cwnd_packets *= batch_ues;
  auto train = std::make_unique<transport::FlowTrain>(
      sim_, flow,
      [this](std::uint64_t bytes) { obs::inc(hooks_.bytes_delivered, bytes); },
      [this](TimePoint) { obs::inc(hooks_.flows_completed); });
  train->start();
  flows_.push_back(std::move(train));
}

}  // namespace dlte::workload
