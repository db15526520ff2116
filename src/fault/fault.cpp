#include "fault/fault.h"

#include <cstdio>

namespace dlte::fault {
namespace {

// Fixed-precision formatting so plan summaries are byte-stable across
// runs and platforms (std::to_string's precision is fine, but spell the
// intent out).
std::string fmt3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kApCrash:
      return "ap-crash";
    case FaultKind::kRegistryOutage:
      return "registry-outage";
  }
  return "unknown";
}

std::string FaultSpec::describe() const {
  std::string s = fault_kind_name(kind);
  switch (kind) {
    case FaultKind::kApCrash:
      s += " ap=" + std::to_string(ap.value());
      break;
    case FaultKind::kRegistryOutage:
      s += " mode=offline";
      s += zone ? " zone=" + std::to_string(*zone) : " zone=all";
      break;
  }
  return s;
}

FaultPlan& FaultPlan::add(FaultSpec spec) {
  specs_.push_back(spec);
  return *this;
}

std::string FaultPlan::summary() const {
  std::string out;
  for (const auto& spec : specs_) {
    out += "t=" + fmt3(spec.at.to_seconds()) + "s " + spec.describe();
    out += spec.duration.is_zero()
               ? " dur=permanent"
               : " dur=" + fmt3(spec.duration.to_seconds()) + "s";
    out += "\n";
  }
  return out;
}

void FaultInjector::register_ap(core::DlteAccessPoint* ap) {
  if (ap != nullptr) aps_.push_back(ap);
}

core::DlteAccessPoint* FaultInjector::find_ap(ApId id) const {
  for (auto* ap : aps_) {
    if (ap->id() == id) return ap;
  }
  return nullptr;
}

void FaultInjector::arm(const FaultPlan& plan) {
  for (const auto& spec : plan.specs()) {
    sim_.schedule_at(spec.at, [this, spec] { inject(spec); }, inject_label_);
    if (!spec.duration.is_zero()) {
      sim_.schedule_at(spec.at + spec.duration, [this, spec] { heal(spec); },
                       heal_label_);
    }
  }
}

void FaultInjector::trace_event(const FaultSpec& spec, std::string_view name) {
  // Pin the fault onto whatever procedure is mid-flight (if any), then
  // drop a zero-duration marker so the timeline shows the event even
  // when nothing was active. `name` is "fault_<phase>"; the annotation
  // leads with the phase.
  obs::span_annotate(tracer_, obs::span_current(tracer_), "fault", [&] {
    return std::string(name.substr(name.find('_') + 1)) + " " +
           spec.describe();
  });
  const obs::SpanId s = obs::span_begin(tracer_, name, span_cat_);
  obs::span_annotate(tracer_, s, "spec", [&] { return spec.describe(); });
  obs::span_end(tracer_, s);
}

void FaultInjector::set_tracer(obs::SpanTracer* tracer,
                               const std::string& prefix) {
  tracer_ = tracer;
  span_cat_ = prefix + "fault";
}

void FaultInjector::set_metrics(obs::MetricsRegistry* registry,
                                const std::string& prefix) {
  if (registry == nullptr) {
    m_injected_ = nullptr;
    m_healed_ = nullptr;
    m_repair_time_s_ = nullptr;
    m_active_ = nullptr;
    return;
  }
  m_injected_ = &registry->counter(prefix + "fault.injected");
  m_healed_ = &registry->counter(prefix + "fault.healed");
  m_repair_time_s_ = &registry->histogram(prefix + "fault.repair_time_s");
  m_active_ = &registry->gauge(prefix + "fault.active");
  m_active_->set(static_cast<double>(stats_.injected - stats_.healed));
}

void FaultInjector::inject(const FaultSpec& spec) {
  ++stats_.injected;
  obs::inc(m_injected_);
  obs::set(m_active_, static_cast<double>(stats_.injected - stats_.healed));
  trace_event(spec, "fault_inject");
  switch (spec.kind) {
    case FaultKind::kApCrash:
      if (auto* ap = find_ap(spec.ap)) ap->fail();
      break;
    case FaultKind::kRegistryOutage:
      if (registry_ != nullptr) {
        if (spec.zone) {
          registry_->set_zone_offline(*spec.zone, true);
        } else {
          registry_->set_outage(spectrum::RegistryOutage::kOffline);
        }
      }
      break;
  }
}

void FaultInjector::heal(const FaultSpec& spec) {
  ++stats_.healed;
  obs::inc(m_healed_);
  obs::set(m_active_, static_cast<double>(stats_.injected - stats_.healed));
  obs::observe(m_repair_time_s_, spec.duration.to_seconds());
  trace_event(spec, "fault_heal");
  switch (spec.kind) {
    case FaultKind::kApCrash:
      if (auto* ap = find_ap(spec.ap)) ap->recover(registry_);
      break;
    case FaultKind::kRegistryOutage:
      if (registry_ != nullptr) {
        if (spec.zone) {
          registry_->set_zone_offline(*spec.zone, false);
        } else {
          registry_->set_outage(spectrum::RegistryOutage::kNone);
        }
      }
      break;
  }
}

}  // namespace dlte::fault
