// Hybrid-ARQ process with Chase combining.
//
// §3.2: "hybrid ARQ increases throughput under weak signal conditions."
// Each failed transmission's soft energy is retained; with Chase combining
// the effective SINR of the n-th attempt is the linear sum of the per-
// attempt SINRs, so blocks that would be lost outright on a weak link are
// recovered within a few retransmissions. Experiment C3 sweeps this
// against a no-HARQ ARQ baseline and a WiFi-style retransmit-from-scratch.
#pragma once

#include "common/units.h"
#include "sim/random.h"

namespace dlte::phy {

struct HarqConfig {
  int max_transmissions{4};      // 1 = HARQ disabled (single shot).
  bool chase_combining{true};    // false = each attempt decoded alone.
};

struct HarqOutcome {
  bool delivered{false};
  int transmissions{0};          // Attempts actually used.
  double effective_sinr_db{0.0}; // SINR of the final (combined) decode.
};

// Simulates delivery of one transport block at the given CQI/SINR.
// Stateless aside from the RNG: the caller owns scheduling/timing.
class HarqProcess {
 public:
  HarqProcess(HarqConfig config, sim::RngStream rng)
      : config_(config), rng_(std::move(rng)) {}

  [[nodiscard]] HarqOutcome transmit_block(int cqi, Decibels per_tx_sinr);

 private:
  HarqConfig config_;
  sim::RngStream rng_;
};

}  // namespace dlte::phy
