#include "fault/resilience.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace dlte::fault {
namespace {

std::string fmt3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

void ResilienceTracker::track(Imsi imsi) {
  ues_.try_emplace(imsi);
}

bool ResilienceTracker::in_service(Imsi imsi) const {
  const auto it = ues_.find(imsi);
  return it != ues_.end() && it->second.in_service;
}

void ResilienceTracker::on_attached(Imsi imsi) {
  ++attach_successes_;
  auto it = ues_.find(imsi);
  if (it == ues_.end()) return;
  UeState& ue = it->second;
  if (ue.in_service) return;  // Duplicate notification.
  if (ue.ever_lost) {
    ++service_recoveries_;
    obs::inc(m_recoveries_);
    const double repair_s = (sim_.now() - ue.lost_at).to_seconds();
    repair_times_s_.push_back(repair_s);
    obs::observe(m_repair_time_s_, repair_s);
    ue.ever_lost = false;
  }
  ue.in_service = true;
  ue.interval_start = sim_.now();
  obs::set(m_in_service_, static_cast<double>(in_service_count()));
}

void ResilienceTracker::on_service_lost(Imsi imsi) {
  auto it = ues_.find(imsi);
  if (it == ues_.end()) return;
  UeState& ue = it->second;
  if (!ue.in_service) return;
  ue.in_service = false;
  ue.ever_lost = true;
  ue.lost_at = sim_.now();
  ue.in_service_time += sim_.now() - ue.interval_start;
  ++service_losses_;
  obs::inc(m_losses_);
  obs::set(m_in_service_, static_cast<double>(in_service_count()));
}

std::size_t ResilienceTracker::in_service_count() const {
  std::size_t n = 0;
  for (const auto& [imsi, ue] : ues_) {
    if (ue.in_service) ++n;
  }
  return n;
}

void ResilienceTracker::set_metrics(obs::MetricsRegistry* registry,
                                    const std::string& prefix) {
  if (registry == nullptr) {
    m_in_service_ = nullptr;
    m_losses_ = nullptr;
    m_recoveries_ = nullptr;
    m_repair_time_s_ = nullptr;
    return;
  }
  m_in_service_ = &registry->gauge(prefix + "resilience.ues_in_service");
  m_losses_ = &registry->counter(prefix + "resilience.service_losses");
  m_recoveries_ = &registry->counter(prefix + "resilience.service_recoveries");
  m_repair_time_s_ =
      &registry->histogram(prefix + "resilience.repair_time_s");
  m_in_service_->set(static_cast<double>(in_service_count()));
}

ResilienceReport ResilienceTracker::report(TimePoint horizon) const {
  ResilienceReport r;
  r.horizon_s = horizon.to_seconds();
  r.ues = ues_.size();
  r.attach_attempts = attach_attempts_;
  r.attach_successes = attach_successes_;
  r.service_losses = service_losses_;
  r.service_recoveries = service_recoveries_;

  Duration in_service_total{};
  std::size_t attached_at_horizon = 0;
  for (const auto& [imsi, ue] : ues_) {
    in_service_total += ue.in_service_time;
    if (ue.in_service) {
      in_service_total += horizon - ue.interval_start;
      ++attached_at_horizon;
    }
  }
  const double ue_time_s =
      static_cast<double>(ues_.size()) * horizon.to_seconds();
  r.availability = ue_time_s > 0.0
                       ? in_service_total.to_seconds() / ue_time_s
                       : 0.0;
  r.eventual_attach_rate =
      ues_.empty() ? 0.0
                   : static_cast<double>(attached_at_horizon) /
                         static_cast<double>(ues_.size());

  if (!repair_times_s_.empty()) {
    auto sorted = repair_times_s_;
    std::sort(sorted.begin(), sorted.end());
    double sum = 0.0;
    for (const double t : sorted) sum += t;
    r.mttr_s = sum / static_cast<double>(sorted.size());
    const auto idx = static_cast<std::size_t>(
        std::max(0.0, std::ceil(0.95 * static_cast<double>(sorted.size())) -
                          1.0));
    r.reattach_p95_s = sorted[std::min(idx, sorted.size() - 1)];
  }
  return r;
}

std::string ResilienceReport::to_string() const {
  std::string out;
  out += "horizon_s=" + fmt3(horizon_s) + "\n";
  out += "ues=" + std::to_string(ues) + "\n";
  out += "attach_attempts=" + std::to_string(attach_attempts) + "\n";
  out += "attach_successes=" + std::to_string(attach_successes) + "\n";
  out += "service_losses=" + std::to_string(service_losses) + "\n";
  out += "service_recoveries=" + std::to_string(service_recoveries) + "\n";
  out += "availability=" + fmt3(availability) + "\n";
  out += "eventual_attach_rate=" + fmt3(eventual_attach_rate) + "\n";
  out += "mttr_s=" + fmt3(mttr_s) + "\n";
  out += "reattach_p95_s=" + fmt3(reattach_p95_s) + "\n";
  out += "fault_events=" + std::to_string(fault_events) + "\n";
  return out;
}

}  // namespace dlte::fault
