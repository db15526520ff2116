#include "fault/fault.h"

#include <algorithm>
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
    case FaultKind::kLinkPartition:
      return "link-partition";
    case FaultKind::kLinkDegrade:
      return "link-degrade";
    case FaultKind::kRegistryOutage:
      return "registry-outage";
    case FaultKind::kX2Impairment:
      return "x2-impair";
  }
  return "unknown";
}

std::string FaultSpec::describe() const {
  std::string s = fault_kind_name(kind);
  switch (kind) {
    case FaultKind::kApCrash:
      s += " ap=" + std::to_string(ap.value());
      break;
    case FaultKind::kLinkPartition:
      s += " link=" + std::to_string(link_a.value()) + "<->" +
           std::to_string(link_b.value());
      break;
    case FaultKind::kLinkDegrade:
      s += " link=" + std::to_string(link_a.value()) + "<->" +
           std::to_string(link_b.value()) + " loss=" + fmt3(loss) +
           " extra=" + fmt3(extra_latency.to_millis()) + "ms";
      break;
    case FaultKind::kRegistryOutage:
      s += outage == spectrum::RegistryOutage::kCommitStall
               ? " mode=commit-stall"
               : " mode=offline";
      s += zone >= 0 ? " zone=" + std::to_string(zone) : " zone=all";
      break;
    case FaultKind::kX2Impairment:
      s += " ap=" + std::to_string(ap.value()) + " drop=" + fmt3(loss) +
           " dup=" + fmt3(duplicate);
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

FaultPlan FaultPlan::random(std::uint64_t seed, const std::vector<ApId>& aps,
                            const std::vector<std::pair<NodeId, NodeId>>& links,
                            const RandomFaultProfile& profile) {
  FaultPlan plan;
  auto rng = sim::RngStream::derive(seed, "fault-plan");
  // Faults start inside the first 70% of the horizon so finite ones get a
  // chance to heal (and their aftermath to be observed) before the end.
  const double start_span = profile.horizon.to_seconds() * 0.7;
  const auto draw_at = [&] {
    return TimePoint{} + Duration::seconds(rng.uniform(1.0, start_span));
  };
  const auto draw_dur = [&] {
    return Duration::seconds(rng.uniform(profile.min_duration.to_seconds(),
                                         profile.max_duration.to_seconds()));
  };

  if (!aps.empty()) {
    for (int i = 0; i < profile.ap_crashes; ++i) {
      FaultSpec s;
      s.kind = FaultKind::kApCrash;
      s.at = draw_at();
      s.duration = draw_dur();
      s.ap = aps[rng.uniform_int(0, aps.size() - 1)];
      plan.add(s);
    }
  }
  if (!links.empty()) {
    for (int i = 0; i < profile.link_partitions; ++i) {
      FaultSpec s;
      s.kind = FaultKind::kLinkPartition;
      s.at = draw_at();
      s.duration = draw_dur();
      const auto& link = links[rng.uniform_int(0, links.size() - 1)];
      s.link_a = link.first;
      s.link_b = link.second;
      plan.add(s);
    }
    for (int i = 0; i < profile.link_degrades; ++i) {
      FaultSpec s;
      s.kind = FaultKind::kLinkDegrade;
      s.at = draw_at();
      s.duration = draw_dur();
      const auto& link = links[rng.uniform_int(0, links.size() - 1)];
      s.link_a = link.first;
      s.link_b = link.second;
      s.loss = rng.uniform(0.05, 0.3);
      s.extra_latency = Duration::millis(
          static_cast<std::int64_t>(rng.uniform_int(20, 200)));
      plan.add(s);
    }
  }
  for (int i = 0; i < profile.registry_outages; ++i) {
    FaultSpec s;
    s.kind = FaultKind::kRegistryOutage;
    s.at = draw_at();
    s.duration = draw_dur();
    s.outage = rng.uniform_int(0, 1) == 0
                   ? spectrum::RegistryOutage::kOffline
                   : spectrum::RegistryOutage::kCommitStall;
    plan.add(s);
  }

  std::stable_sort(plan.specs_.begin(), plan.specs_.end(),
                   [](const FaultSpec& a, const FaultSpec& b) {
                     return a.at < b.at;
                   });
  return plan;
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

std::pair<std::uint64_t, std::uint64_t> FaultInjector::link_key(
    const FaultSpec& spec) {
  const std::uint64_t a = spec.link_a.value();
  const std::uint64_t b = spec.link_b.value();
  return {std::min(a, b), std::max(a, b)};
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
    case FaultKind::kLinkPartition:
      if (net_ != nullptr && partition_depth_[link_key(spec)]++ == 0) {
        net_->set_link_enabled(spec.link_a, spec.link_b, false);
      }
      break;
    case FaultKind::kLinkDegrade:
      if (net_ != nullptr) {
        net_->set_link_impairment(
            spec.link_a, spec.link_b,
            net::LinkImpairment{spec.loss, spec.extra_latency});
      }
      break;
    case FaultKind::kRegistryOutage:
      if (registry_ != nullptr) {
        if (spec.zone >= 0) {
          registry_->set_zone_offline(spec.zone, true);
        } else {
          registry_->set_outage(spec.outage ==
                                        spectrum::RegistryOutage::kNone
                                    ? spectrum::RegistryOutage::kOffline
                                    : spec.outage);
        }
      }
      break;
    case FaultKind::kX2Impairment:
      if (auto* ap = find_ap(spec.ap)) {
        ap->coordinator().set_impairment(
            spectrum::X2Impairment{spec.loss, spec.duplicate});
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
    case FaultKind::kLinkPartition:
      // Refcounted: with overlapping windows, only the close of the last
      // one re-enables the link.
      if (net_ != nullptr && --partition_depth_[link_key(spec)] == 0) {
        net_->set_link_enabled(spec.link_a, spec.link_b, true);
      }
      break;
    case FaultKind::kLinkDegrade:
      if (net_ != nullptr) {
        net_->set_link_impairment(spec.link_a, spec.link_b,
                                  net::LinkImpairment{});
      }
      break;
    case FaultKind::kRegistryOutage:
      if (registry_ != nullptr) {
        if (spec.zone >= 0) {
          registry_->set_zone_offline(spec.zone, false);
        } else {
          registry_->set_outage(spectrum::RegistryOutage::kNone);
        }
      }
      break;
    case FaultKind::kX2Impairment:
      if (auto* ap = find_ap(spec.ap)) {
        ap->coordinator().set_impairment(spectrum::X2Impairment{});
      }
      break;
  }
}

}  // namespace dlte::fault
