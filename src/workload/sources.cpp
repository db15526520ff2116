#include "workload/sources.h"

namespace dlte::workload {

CbrSource::CbrSource(sim::Simulator& sim, transport::Connection& conn,
                     DataRate rate, Duration interval)
    : sim_(sim),
      conn_(conn),
      bytes_per_tick_(rate.bps() / 8.0 * interval.to_seconds()),
      interval_(interval),
      tick_label_(sim.label("workload.cbr")) {}

void CbrSource::start() {
  if (running_) return;
  running_ = true;
  tick();
}

void CbrSource::tick() {
  if (!running_) return;
  conn_.send(bytes_per_tick_);
  offered_ += bytes_per_tick_;
  sim_.schedule(interval_, [this] { tick(); }, tick_label_);
}

}  // namespace dlte::workload
