// Flow-level packet trains: bulk transfer in O(rate changes) events.
//
// The full transport::Connection simulates a bulk flow packet by packet —
// faithful, but a 25 MB transfer is ~20k events, and a metro scenario
// carries a million such flows. The FlowTrain collapses the same
// congestion-controlled shape to its rate changes: slow-start doubles the
// window once per RTT (one "train" event per epoch, each delivering the
// whole window), and once the window saturates the bottleneck the rest of
// the transfer is a single completion event at the analytically known
// finish time. A per-packet reference mode walks the identical epochs one
// MSS at a time; tests/transport/flow_train_test.cpp holds the
// delivered-byte totals and completion times of the two modes equal.
//
// The model is deliberately loss-free (the aggregate cohorts it serves
// model capacity, not queues); loss-driven dynamics stay with
// transport::Connection.
#pragma once

#include <cstdint>
#include <functional>

#include "common/time.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace dlte::transport {

struct FlowTrainConfig {
  int mss_bytes{1200};
  int initial_cwnd_packets{10};
  Duration rtt{Duration::millis(20)};
  // Path capacity the window saturates at (caps cwnd at the
  // bandwidth-delay product).
  DataRate bottleneck{DataRate::mbps(50.0)};
  std::uint64_t total_bytes{0};
  // Reference mode: walk the same epochs per-MSS instead of per-train.
  // O(packets) events — only for equivalence tests and calibration.
  bool per_packet{false};
};

struct FlowTrainStats {
  std::uint64_t bytes_delivered{0};
  std::uint64_t events_scheduled{0};  // Trains or packets, per mode.
  std::uint64_t rate_changes{0};      // cwnd adjustments (slow-start steps).
  bool completed{false};
  TimePoint completed_at{};
};

class FlowTrain {
 public:
  // `on_delivered(bytes)` fires once per delivery event (train or
  // packet); `on_complete` once, when the last byte lands. Either may be
  // null. The FlowTrain must outlive the simulation run.
  using DeliveredCallback = std::function<void(std::uint64_t)>;
  using CompleteCallback = std::function<void(TimePoint)>;

  FlowTrain(sim::Simulator& sim, FlowTrainConfig config,
            DeliveredCallback on_delivered = nullptr,
            CompleteCallback on_complete = nullptr);

  // Begin the transfer now. A zero-byte flow completes immediately
  // without scheduling anything.
  void start();

  [[nodiscard]] const FlowTrainStats& stats() const { return stats_; }

 private:
  void run_epoch();
  void deliver(std::uint64_t bytes);

  sim::Simulator& sim_;
  std::uint32_t ev_label_{0};
  FlowTrainConfig config_;
  DeliveredCallback on_delivered_;
  CompleteCallback on_complete_;
  std::int64_t cap_packets_{1};  // bottleneck × RTT in packets (≥ 1).
  std::int64_t cwnd_packets_{1};
  std::uint64_t remaining_bytes_{0};
  FlowTrainStats stats_;
};

}  // namespace dlte::transport
