#include "obs/slo.h"

#include <algorithm>

#include "obs/json.h"

namespace dlte::obs {

const char* slo_predicate_name(SloPredicate predicate) {
  switch (predicate) {
    case SloPredicate::kRateBelow:
      return "rate_below";
    case SloPredicate::kRateAtLeast:
      return "rate_at_least";
    case SloPredicate::kGaugeAtLeast:
      return "gauge_at_least";
  }
  return "?";
}

std::string SloRule::describe() const {
  std::string s = name + " [" + scope + "]: " + slo_predicate_name(predicate) +
                  "(" + metric + ")";
  s += predicate == SloPredicate::kRateBelow ? " < " : " >= ";
  s += JsonWriter::format_double(threshold);
  if (predicate != SloPredicate::kGaugeAtLeast) {
    s += " over " + JsonWriter::format_double(window.to_seconds()) + "s";
  }
  return s;
}

std::string SloAlertEvent::describe() const {
  return "t=" + JsonWriter::format_double(t_s) + "s " +
         (fire ? "FIRE" : "RESOLVE") + " " + rule + " [" + scope + "] " +
         metric + " value=" + JsonWriter::format_double(value) +
         " threshold=" + JsonWriter::format_double(threshold);
}

void SloMonitor::add_rule(SloRule rule) {
  RuleState state;
  state.rule = std::move(rule);
  rules_.push_back(std::move(state));
  update_health_gauges();
}

void SloMonitor::add_rules(const std::vector<SloRule>& rules) {
  for (const auto& r : rules) add_rule(r);
}

std::vector<std::string> SloMonitor::rule_descriptions() const {
  std::vector<std::string> out;
  out.reserve(rules_.size());
  for (const auto& state : rules_) out.push_back(state.rule.describe());
  return out;
}

bool SloMonitor::healthy(RuleState& state, double t_s, double* value) {
  const SloRule& rule = state.rule;
  *value = 0.0;
  switch (rule.predicate) {
    case SloPredicate::kRateBelow:
    case SloPredicate::kRateAtLeast: {
      const Counter* c = registry_.find_counter(rule.metric);
      if (c == nullptr) {
        // Liveness on a metric that never appeared is a violation once
        // the monitor has been watching for a full window.
        if (rule.predicate == SloPredicate::kRateAtLeast) {
          return t_s - start_t_s_ < rule.window.to_seconds();
        }
        return true;
      }
      auto& window = state.counter_window;
      window.emplace_back(t_s, c->value());
      const double horizon = t_s - rule.window.to_seconds();
      while (window.size() > 1 && window[1].first <= horizon) {
        window.pop_front();
      }
      const double dt = t_s - window.front().first;
      if (dt <= 0.0) return true;  // First evaluation: not enough data.
      const double rate =
          static_cast<double>(c->value() - window.front().second) / dt;
      *value = rate;
      if (rule.predicate == SloPredicate::kRateBelow) {
        return rate < rule.threshold;
      }
      // Liveness needs a full window before it can assert starvation.
      if (dt < rule.window.to_seconds()) return true;
      return rate >= rule.threshold;
    }
    case SloPredicate::kGaugeAtLeast: {
      const Gauge* g = registry_.find_gauge(rule.metric);
      if (g == nullptr) return true;
      *value = g->value();
      return *value >= rule.threshold;
    }
  }
  return true;
}

void SloMonitor::evaluate(TimePoint now) {
  const double t_s = (now - TimePoint{}).to_seconds();
  if (!started_) {
    started_ = true;
    start_t_s_ = t_s;
  }
  for (auto& state : rules_) {
    double value = 0.0;
    if (healthy(state, t_s, &value)) {
      state.bad_streak = 0;
      if (state.active && ++state.good_streak >= state.rule.resolve_after) {
        transition(state, t_s, /*fire=*/false, value);
      }
    } else {
      state.good_streak = 0;
      if (!state.active && ++state.bad_streak >= state.rule.fire_after) {
        transition(state, t_s, /*fire=*/true, value);
      }
    }
  }
}

void SloMonitor::transition(RuleState& state, double t_s, bool fire,
                            double value) {
  state.active = fire;
  state.bad_streak = 0;
  state.good_streak = 0;
  if (fire) state.ever_fired = true;
  SloAlertEvent event;
  event.t_s = t_s;
  event.fire = fire;
  event.rule = state.rule.name;
  event.scope = state.rule.scope;
  event.metric = state.rule.metric;
  event.value = value;
  event.threshold = state.rule.threshold;
  events_.push_back(event);
  obs::inc(fire ? m_fired_ : m_resolved_);
  if (m_active_ != nullptr) {
    m_active_->set(static_cast<double>(active_alerts()));
  }
  update_health_gauges();
  if (tracer_ != nullptr) {
    const SpanId span =
        tracer_->begin(fire ? "slo_fire" : "slo_resolve", span_cat_);
    tracer_->annotate(span, "rule", state.rule.name);
    tracer_->annotate(span, "scope", state.rule.scope);
    tracer_->annotate(span, "value", JsonWriter::format_double(value));
    tracer_->end(span);
    tracer_->annotate_current(fire ? "slo_fire" : "slo_resolve",
                              state.rule.name);
  }
}

std::size_t SloMonitor::active_alerts() const {
  std::size_t n = 0;
  for (const auto& state : rules_) {
    if (state.active) ++n;
  }
  return n;
}

bool SloMonitor::alert_active(const std::string& rule) const {
  for (const auto& state : rules_) {
    if (state.rule.name == rule && state.active) return true;
  }
  return false;
}

bool SloMonitor::ever_fired(const std::string& rule) const {
  for (const auto& state : rules_) {
    if (state.rule.name == rule && state.ever_fired) return true;
  }
  return false;
}

double SloMonitor::health(const std::string& scope) const {
  std::size_t total = 0;
  std::size_t active = 0;
  for (const auto& state : rules_) {
    if (state.rule.scope != scope) continue;
    ++total;
    if (state.active) ++active;
  }
  if (total == 0) return 1.0;
  return 1.0 - static_cast<double>(active) / static_cast<double>(total);
}

std::vector<std::string> SloMonitor::scopes() const {
  std::vector<std::string> out;
  for (const auto& state : rules_) {
    if (std::find(out.begin(), out.end(), state.rule.scope) == out.end()) {
      out.push_back(state.rule.scope);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void SloMonitor::update_health_gauges() {
  if (out_ == nullptr) return;
  for (const auto& scope : scopes()) {
    out_->gauge(out_prefix_ + "health." + scope).set(health(scope));
  }
}

void SloMonitor::set_metrics(MetricsRegistry* registry,
                             const std::string& prefix) {
  out_ = registry;
  out_prefix_ = prefix;
  if (registry == nullptr) {
    m_fired_ = nullptr;
    m_resolved_ = nullptr;
    m_active_ = nullptr;
    return;
  }
  m_fired_ = &registry->counter(prefix + "slo.alerts_fired");
  m_resolved_ = &registry->counter(prefix + "slo.alerts_resolved");
  m_active_ = &registry->gauge(prefix + "slo.active_alerts");
  update_health_gauges();
}

void SloMonitor::set_tracer(SpanTracer* tracer, const std::string& prefix) {
  tracer_ = tracer;
  span_cat_ = prefix + "slo";
}

}  // namespace dlte::obs
