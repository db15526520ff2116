// Application traffic sources driving transport connections.
//
// dLTE deliberately provides "nothing more than a public Internet
// connection" (§4.2), so all user-visible behaviour comes from
// over-the-top applications. The source here models the messaging/VoIP-
// like constant-bitrate load of the paper's deployment reports (§5).
#pragma once

#include <functional>

#include "common/time.h"
#include "common/units.h"
#include "sim/simulator.h"
#include "transport/transport.h"

namespace dlte::workload {

// Constant bitrate (VoIP / video call): fixed-size chunks at a fixed
// interval.
class CbrSource {
 public:
  CbrSource(sim::Simulator& sim, transport::Connection& conn, DataRate rate,
            Duration interval = Duration::millis(20));

  // Idempotent: the source then runs for the rest of the simulation.
  void start();

 private:
  void tick();

  sim::Simulator& sim_;
  transport::Connection& conn_;
  double bytes_per_tick_;
  Duration interval_;
  std::uint32_t tick_label_;  // "workload.cbr".
  bool running_{false};
};

}  // namespace dlte::workload
