// Subframe-level simulation of one LTE cell's MAC.
//
// Drives the scheduler once per 1 ms subframe, models per-UE transport
// blocks through the HARQ/BLER chain (retransmissions occupy real future
// grants, with Chase combining across attempts), and accounts offered vs
// delivered traffic per UE.
//
// The `prb_share` knob is the hook for dLTE's fair-sharing mode: a peer
// coordination agreement (spectrum/coordination.h) restricts this cell to
// a fraction of the band, which the MAC honours by shrinking the grantable
// PRB pool. Per-UE SINR is supplied by a callback so experiments can
// inject mobility and inter-cell interference.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "mac/lte_scheduler.h"
#include "phy/harq.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace dlte::mac {

// Per-subframe channel oracle for one UE (already includes interference).
using SinrProvider = std::function<Decibels()>;

struct CellMacConfig {
  Hertz bandwidth{Hertz::mhz(10.0)};
  SchedulerPolicy policy{SchedulerPolicy::kProportionalFair};
  phy::HarqConfig harq{};
  double prb_share{1.0};  // Fraction of PRBs this cell may grant.
  std::uint64_t seed{1};
};

struct UeTrafficConfig {
  bool full_buffer{false};
  DataRate offered{DataRate::kbps(0.0)};  // Ignored when full_buffer.
};

struct UeMacStats {
  double offered_bits{0.0};
  double delivered_bits{0.0};
  double dropped_bits{0.0};       // HARQ exhaustion.
  int scheduled_subframes{0};
  int harq_retransmissions{0};
  double backlog_bits{0.0};       // Residual queue at end of run.

  [[nodiscard]] DataRate goodput(Duration elapsed) const {
    return DataRate{delivered_bits / elapsed.to_seconds()};
  }
};

class LteCellMac {
 public:
  explicit LteCellMac(CellMacConfig config);

  void add_ue(UeId id, SinrProvider sinr, UeTrafficConfig traffic);
  void remove_ue(UeId id);
  [[nodiscard]] bool has_ue(UeId id) const { return ues_.contains(id); }

  // Adjust the coordinated spectrum share mid-run (fair-share updates).
  void set_prb_share(double share);
  [[nodiscard]] double prb_share() const { return config_.prb_share; }

  // Advance the cell by `duration` of subframes.
  void run(Duration duration);

  [[nodiscard]] const UeMacStats& stats(UeId id) const;
  [[nodiscard]] std::vector<UeId> ue_ids() const;
  [[nodiscard]] Duration elapsed() const { return elapsed_; }

 private:
  struct UeState {
    SinrProvider sinr;
    UeTrafficConfig traffic;
    double backlog_bits{0.0};
    double avg_rate_bps{1.0};
    // In-flight HARQ block (retransmitted on subsequent grants).
    bool has_pending{false};
    double pending_bits{0.0};
    int pending_cqi{0};
    double pending_linear_sinr{0.0};
    int pending_attempts{0};
    UeMacStats stats;
  };

  void run_subframe();

  CellMacConfig config_;
  int total_prbs_;
  std::unique_ptr<Scheduler> scheduler_;
  sim::RngStream rng_;
  std::unordered_map<UeId, UeState> ues_;
  std::vector<UeId> order_;  // Stable iteration order.
  Duration elapsed_{};
};

}  // namespace dlte::mac
