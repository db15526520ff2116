#include "sim/simulator.h"

#include <limits>
#include <memory>
#include <utility>

namespace dlte::sim {

void Simulator::schedule(Duration delay, Action action, std::uint32_t label) {
  if (delay.is_negative()) delay = Duration::nanos(0);
  schedule_at(now_ + delay, std::move(action), label);
}

void Simulator::schedule_at(TimePoint when, Action action,
                            std::uint32_t label) {
  if (when < now_) {
    when = now_;
    ++schedule_past_events_;
    if (profiler_ != nullptr) profiler_->on_past_clamp(label);
  }
  if (profiler_ != nullptr) {
    // Residency is simulated time queued: (when - now). Deterministic,
    // unlike a pop-side wall measurement would be.
    profiler_->on_schedule(label, (when - now_).ns());
  }
  queue_.push(QueuedEvent{when, next_seq_++, std::move(action), label});
  if (queue_.size() > max_queue_depth_) max_queue_depth_ = queue_.size();
}

TimePoint Simulator::next_event_time() const {
  const QueuedEvent* next = queue_.peek();
  if (next == nullptr) {
    return TimePoint::from_ns(std::numeric_limits<std::int64_t>::max());
  }
  return next->when;
}

void Simulator::set_metrics(obs::MetricsRegistry* registry,
                            const std::string& prefix) {
  if (registry == nullptr) {
    events_counter_ = nullptr;
    past_counter_ = nullptr;
    queue_resizes_counter_ = nullptr;
    queue_depth_gauge_ = nullptr;
    queue_pending_gauge_ = nullptr;
    sim_seconds_gauge_ = nullptr;
    return;
  }
  events_counter_ = &registry->counter(prefix + "sim.events_executed");
  past_counter_ = &registry->counter(prefix + "sim.schedule_past_events");
  queue_resizes_counter_ = &registry->counter(prefix + "sim.queue_resizes");
  queue_depth_gauge_ = &registry->gauge(prefix + "sim.max_queue_depth");
  queue_pending_gauge_ = &registry->gauge(prefix + "sim.queue_depth");
  sim_seconds_gauge_ = &registry->gauge(prefix + "sim.seconds");
  events_flushed_ = events_executed_;
  past_flushed_ = schedule_past_events_;
  resizes_flushed_ = queue_.resizes();
}

void Simulator::flush_metrics() {
  if (events_counter_ != nullptr) {
    events_counter_->inc(events_executed_ - events_flushed_);
    events_flushed_ = events_executed_;
  }
  if (past_counter_ != nullptr) {
    past_counter_->inc(schedule_past_events_ - past_flushed_);
    past_flushed_ = schedule_past_events_;
  }
  if (queue_resizes_counter_ != nullptr) {
    queue_resizes_counter_->inc(queue_.resizes() - resizes_flushed_);
    resizes_flushed_ = queue_.resizes();
  }
  if (queue_depth_gauge_ != nullptr) {
    queue_depth_gauge_->set_max(static_cast<double>(max_queue_depth_));
  }
  if (queue_pending_gauge_ != nullptr) {
    // Current pending count at flush time (run end/window barrier) —
    // the live companion to the max_queue_depth high watermark.
    queue_pending_gauge_->set(static_cast<double>(queue_.size()));
  }
  if (sim_seconds_gauge_ != nullptr) {
    sim_seconds_gauge_->set_max(now_.to_seconds());
  }
}

namespace {

// A periodic process, owned only by its pending tick event: it is freed
// with the queue, or once a cancelled tick returns without rescheduling.
struct Periodic {
  Duration period;
  std::uint32_t label;
  std::shared_ptr<bool> alive;  // Null for every(): never cancelled.
  Simulator::Action action;
  [[nodiscard]] bool cancelled() const { return alive && !*alive; }
};

// Exactly one schedule() per tick, under the process's label. Events
// cannot outlive the simulator that owns the queue, so `sim` stays valid.
void schedule_tick(Simulator& sim, std::shared_ptr<Periodic> p) {
  const Duration period = p->period;
  const std::uint32_t label = p->label;
  sim.schedule(
      period,
      [&sim, p = std::move(p)]() mutable {
        if (p->cancelled()) return;  // Never call back once cancelled.
        p->action();
        if (!p->cancelled()) schedule_tick(sim, std::move(p));
      },
      label);
}

}  // namespace

void Simulator::every(Duration period, Action action, std::uint32_t label) {
  schedule_tick(*this, std::make_shared<Periodic>(Periodic{
                           period, label, nullptr, std::move(action)}));
}

Simulator::PeriodicHandle Simulator::every_cancellable(Duration period,
                                                       Action action,
                                                       std::uint32_t label) {
  auto alive = std::make_shared<bool>(true);
  schedule_tick(*this, std::make_shared<Periodic>(
                           Periodic{period, label, alive, std::move(action)}));
  return PeriodicHandle{std::move(alive)};
}

void Simulator::run_until(TimePoint deadline) {
  while (!queue_.empty()) {
    if (queue_.peek()->when > deadline) break;
    QueuedEvent ev = queue_.pop();
    now_ = ev.when;
    ++events_executed_;
    if (profiler_ != nullptr) profiler_->on_execute(ev.label);
    if (auditor_ != nullptr) {
      auditor_->on_execute(ev.when.ns(), ev.seq, ev.label);
    }
    ev.action();
  }
  if (now_ < deadline) now_ = deadline;
  flush_metrics();
}

void Simulator::run_all() {
  while (!queue_.empty()) {
    QueuedEvent ev = queue_.pop();
    now_ = ev.when;
    ++events_executed_;
    if (profiler_ != nullptr) profiler_->on_execute(ev.label);
    if (auditor_ != nullptr) {
      auditor_->on_execute(ev.when.ns(), ev.seq, ev.label);
    }
    ev.action();
  }
  flush_metrics();
}

}  // namespace dlte::sim
