// UE-side failover: what a standard handset's connection manager does
// when its serving cell disappears.
//
// dLTE's answer to AP failure is architectural (§4.2): there is no
// network-side context to migrate, so a UE that loses its AP simply
// re-attaches at the best neighbour it can hear — same flow as switching
// WiFi SSIDs. The agent models exactly that: a periodic radio-level
// watchdog notices the serving cell has gone dark, picks the strongest
// live cell, and runs attach-with-backoff against it. A centralized
// deployment has no such option — when the one core is down, every cell
// in the region is dark and the watchdog finds nothing to fail over to.
#pragma once

#include <deque>
#include <vector>

#include "core/access_point.h"
#include "core/ue_device.h"
#include "fault/resilience.h"
#include "mac/lte_cell_mac.h"
#include "sim/simulator.h"

namespace dlte::fault {

class UeFailoverAgent {
 public:
  UeFailoverAgent(sim::Simulator& sim, core::RadioEnvironment& env,
                  ResilienceTracker* tracker = nullptr)
      : sim_(sim),
        watchdog_label_(sim.label("fault.failover_watchdog")),
        env_(env),
        tracker_(tracker) {}

  // Candidate APs, in preference-tie-break order (earlier wins a tie).
  void add_ap(core::DlteAccessPoint* ap);

  // Manage a UE: the agent performs its initial attach on start() and
  // re-attaches it whenever its serving AP fails.
  void manage(core::UeDevice& ue, mac::UeTrafficConfig traffic);

  // Start the watchdog (and kick off initial attaches).
  void start(Duration check_period = Duration::millis(500));

 private:
  struct ManagedUe {
    core::UeDevice* ue{nullptr};
    mac::UeTrafficConfig traffic{};
    core::DlteAccessPoint* serving{nullptr};
    bool attaching{false};
  };

  void check();
  void start_attach(ManagedUe& m);
  [[nodiscard]] core::DlteAccessPoint* best_ap_for(
      const core::UeDevice& ue) const;

  sim::Simulator& sim_;
  std::uint32_t watchdog_label_;
  core::RadioEnvironment& env_;
  ResilienceTracker* tracker_{nullptr};
  std::vector<core::DlteAccessPoint*> aps_;
  // Deque-stable storage: ManagedUe addresses must survive push_back, so
  // the attach callbacks can hold a pointer. deque never relocates.
  std::deque<ManagedUe> ues_;
  sim::Simulator::PeriodicHandle watchdog_;
  bool started_{false};
};

}  // namespace dlte::fault
