#include "fault/failover.h"

namespace dlte::fault {

void UeFailoverAgent::add_ap(core::DlteAccessPoint* ap) {
  if (ap != nullptr) aps_.push_back(ap);
}

void UeFailoverAgent::manage(core::UeDevice& ue,
                             mac::UeTrafficConfig traffic) {
  ManagedUe m;
  m.ue = &ue;
  m.traffic = traffic;
  ues_.push_back(m);
  if (tracker_ != nullptr) tracker_->track(ue.imsi());
}

void UeFailoverAgent::start(Duration check_period) {
  if (started_) return;
  started_ = true;
  // Kick initial attaches on the first tick; then watch.
  watchdog_ = sim_.every_cancellable(
      check_period, [this] { check(); }, watchdog_label_);
}

core::DlteAccessPoint* UeFailoverAgent::best_ap_for(
    const core::UeDevice& ue) const {
  // Strongest live cell wins; ties break toward earlier registration.
  // A failed AP's cell is inactive in the radio environment, so a UE
  // "hearing nothing" from it is modelled, not assumed.
  core::DlteAccessPoint* best = nullptr;
  double best_rsrp = -1e300;
  for (auto* ap : aps_) {
    if (ap->failed() || !env_.cell_active(ap->cell_id())) continue;
    const double rsrp = env_.rsrp(ap->cell_id(), ue.position()).value();
    if (rsrp > best_rsrp) {
      best_rsrp = rsrp;
      best = ap;
    }
  }
  return best;
}

void UeFailoverAgent::start_attach(ManagedUe& m) {
  core::DlteAccessPoint* target = best_ap_for(*m.ue);
  if (target == nullptr) return;  // Nothing on the air: try next tick.
  m.attaching = true;
  if (tracker_ != nullptr) tracker_->on_attach_attempt();
  ManagedUe* mp = &m;
  target->attach_with_retry(
      *m.ue, m.traffic,
      [this, mp, target](core::AttachOutcome outcome) {
        mp->attaching = false;
        if (outcome.success) {
          mp->serving = target;
          if (tracker_ != nullptr) tracker_->on_attached(mp->ue->imsi());
        }
        // Otherwise the retry budget is exhausted; the watchdog starts a
        // fresh round (possibly at a different AP) on its next tick.
      });
}

void UeFailoverAgent::check() {
  for (auto& m : ues_) {
    if (m.attaching) continue;
    const bool serving_ok = m.serving != nullptr && !m.serving->failed() &&
                            m.ue->attached();
    if (serving_ok) continue;
    if (m.serving != nullptr) {
      // Radio-level loss detection: the serving cell stopped answering.
      if (tracker_ != nullptr) tracker_->on_service_lost(m.ue->imsi());
      m.serving = nullptr;
    }
    start_attach(m);
  }
}

}  // namespace dlte::fault
