#include "par/sharded_sim.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "obs/merge.h"
#include "obs/openmetrics.h"
#include "obs/snapshot.h"

namespace dlte::par {

namespace {
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Run `phase`, adding its wall time to `total_s` when `timed`.
template <typename Phase>
void run_phase(bool timed, double& total_s, Phase phase) {
  if (!timed) {
    phase();
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  phase();
  total_s += wall_seconds_since(start);
}
}  // namespace

ShardedSimulator::ShardedSimulator(ShardedConfig config)
    : config_(config) {
  if (config_.shards == 0) config_.shards = 1;
  if (config_.threads == 0) config_.threads = config_.shards;
  config_.threads = std::min(config_.threads, config_.shards);
  assert(config_.lookahead.ns() > 0 && "lookahead must be positive");
  shards_.reserve(config_.shards);
  for (std::size_t i = 0; i < config_.shards; ++i) {
    auto shard = std::make_unique<Shard>();
    if (config_.sample_interval.ns() > 0) {
      shard->sampler = std::make_unique<obs::TimeSeriesSampler>(
          shard->domain, obs::SamplerConfig{config_.sample_interval});
    }
    if (config_.profile) {
      shard->profiler = std::make_unique<obs::EventProfiler>();
      shard->sim.set_profiler(shard->profiler.get());
    }
    if (config_.audit) {
      // Auditor attaches before any label is interned so label() can
      // register every name hash with it.
      shard->auditor =
          std::make_unique<obs::DigestTimeline>(config_.audit_window.ns());
      shard->sim.set_auditor(shard->auditor.get());
    }
    if (config_.profile) {
      shard->delivery_label = shard->sim.label("par.delivery");
    }
    shards_.push_back(std::move(shard));
  }
  if (config_.profile) {
    matrix_messages_.assign(config_.shards * config_.shards, 0);
    matrix_bytes_.assign(config_.shards * config_.shards, 0);
  }
  if (config_.audit) {
    ledger_ = std::make_unique<obs::MessageLedger>(config_.audit_window.ns());
    next_audit_boundary_ = TimePoint{} + config_.audit_window;
  }
  if (config_.sample_interval.ns() > 0) {
    next_sample_ = TimePoint{} + config_.sample_interval;
  }
  engine_interval_ = config_.engine_sample_interval.ns() > 0
                         ? config_.engine_sample_interval
                         : config_.sample_interval;
  if (engine_interval_.ns() > 0) {
    engine_queue_depth_ = &engine_domain_.gauge("sim.queue_depth");
    engine_sampler_ = std::make_unique<obs::TimeSeriesSampler>(
        engine_domain_, obs::SamplerConfig{engine_interval_});
    next_engine_sample_ = TimePoint{} + engine_interval_;
  }
  // The coordinator is the remaining thread: it runs shards too.
  workers_.reserve(config_.threads - 1);
  for (std::size_t i = 1; i < config_.threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ShardedSimulator::~ShardedSimulator() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

sim::Simulator& ShardedSimulator::shard_sim(std::size_t shard) {
  return shards_[shard]->sim;
}

obs::MetricsRegistry& ShardedSimulator::shard_registry(std::size_t shard) {
  return shards_[shard]->domain;
}

void ShardedSimulator::register_endpoint(EndpointId ep, std::size_t shard,
                                         Handler handler) {
  assert(shard < shards_.size());
  endpoints_[ep] = Endpoint{shard, std::move(handler)};
}

std::size_t ShardedSimulator::owner_of(EndpointId ep) const {
  const auto it = endpoints_.find(ep);
  assert(it != endpoints_.end() && "unregistered endpoint");
  return it->second.shard;
}

void ShardedSimulator::post(EndpointId src, EndpointId dst, Duration delay,
                            std::uint16_t kind,
                            std::vector<std::uint8_t> payload) {
  Shard& shard = *shards_[owner_of(src)];
  if (delay < config_.lookahead) {
    delay = config_.lookahead;
    ++shard.posts_clamped;
  }
  Message msg;
  msg.src = src;
  msg.dst = dst;
  msg.deliver_at = shard.sim.now() + delay;
  msg.seq = shard.next_seq[src]++;
  msg.kind = kind;
  msg.payload = std::move(payload);
  shard.outbox.push_back(std::move(msg));
}

void ShardedSimulator::run_shards(TimePoint end) {
  for (;;) {
    const std::size_t i = next_shard_.fetch_add(1);
    if (i >= shards_.size()) return;
    Shard& shard = *shards_[i];
    // Only the claiming thread touches shard i inside the window; the
    // coordinator reads window_run_s/window_sample_s after the barrier.
    // Sampling here reads the same values the barrier would: exchange()
    // only schedules events and never touches a domain registry.
    run_phase(config_.profile, shard.window_run_s,
              [&] { shard.sim.run_until(end); });
    run_phase(config_.profile, shard.window_sample_s, [&] {
      for (const TimePoint t : due_samples_) shard.sampler->sample(t);
    });
  }
}

void ShardedSimulator::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    TimePoint end;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this, seen_generation] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      end = window_end_;
    }
    run_shards(end);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (++done_count_ == workers_.size()) cv_done_.notify_one();
    }
  }
}

void ShardedSimulator::run_window(TimePoint end) {
  // Sample points the window reaches; the claiming threads sample their
  // shards at its end. Only the coordinator writes this, between windows.
  due_samples_.clear();
  if (config_.sample_interval.ns() > 0) {
    while (next_sample_ <= end) {
      due_samples_.push_back(next_sample_);
      next_sample_ = next_sample_ + config_.sample_interval;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    window_end_ = end;
    done_count_ = 0;
    next_shard_.store(0, std::memory_order_relaxed);
    ++generation_;
  }
  cv_work_.notify_all();
  // The coordinator claims shards beside the workers, then waits for the
  // ones still running theirs.
  run_shards(end);
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return done_count_ == workers_.size(); });
}

void ShardedSimulator::exchange() {
  // Single-threaded (all workers parked at the barrier): gather every
  // shard's outbox, order globally, inject. The injection order fixes
  // the tie-break sequence numbers in the destination simulators, so it
  // must be — and is — independent of the partition.
  std::vector<Message> batch;
  for (auto& shard : shards_) {
    if (shard->outbox.empty()) continue;
    batch.insert(batch.end(),
                 std::make_move_iterator(shard->outbox.begin()),
                 std::make_move_iterator(shard->outbox.end()));
    shard->outbox.clear();
  }
  if (inject_held_ != nullptr) {
    // Deliberate divergence (test hook), step 2: the message captured at
    // the previous barrier rejoins the stream one exchange late.
    batch.push_back(std::move(*inject_held_));
    inject_held_.reset();
  }
  if (batch.empty()) return;
  std::sort(batch.begin(), batch.end(), message_order);
  if (inject_armed_) {
    // Deliberate divergence (test hook), step 1: pull the first message
    // for the target shard past the trigger time out of its barrier —
    // exactly the missed-window bug a broken lookahead or an unseeded
    // reorder in a future partitioner would introduce.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (endpoints_.at(batch[i].dst).shard != inject_dst_) continue;
      if (batch[i].deliver_at < inject_after_) continue;
      inject_held_ = std::make_unique<Message>(std::move(batch[i]));
      batch.erase(batch.begin() + static_cast<std::ptrdiff_t>(i));
      inject_armed_ = false;
      break;
    }
    if (batch.empty()) return;
  }
  messages_ += batch.size();
  max_exchange_ = std::max(max_exchange_, batch.size());
  for (Message& msg : batch) {
    // Node-stable map: the Endpoint address outlives the run.
    const Endpoint* endpoint = &endpoints_.at(msg.dst);
    Shard& shard = *shards_[endpoint->shard];
    if (ledger_ != nullptr) {
      ledger_->on_message(
          msg.deliver_at.ns(), msg.src, msg.seq, msg.kind,
          msg.payload.data(), msg.payload.size(),
          static_cast<std::uint32_t>(owner_of(msg.src)),
          static_cast<std::uint32_t>(endpoint->shard));
    }
    if (config_.profile) {
      const std::size_t cell =
          owner_of(msg.src) * shards_.size() + endpoint->shard;
      ++matrix_messages_[cell];
      matrix_bytes_[cell] += msg.payload.size();
    }
    Delivery* delivery = shard.deliveries.acquire();
    delivery->msg = std::move(msg);
    delivery->endpoint = endpoint;
    delivery->home = &shard;
    shard.sim.schedule_at(
        delivery->msg.deliver_at,
        [delivery] {
          delivery->endpoint->handler(delivery->msg);
          delivery->home->deliveries.release(delivery);
        },
        shard.delivery_label);
  }
}

void ShardedSimulator::emit_samples(TimePoint up_to) {
  // The shards' own samplers ran on their claiming threads; the engine
  // sampler stays here because it sums the queues exchange() filled.
  if (engine_sampler_ != nullptr) {
    while (next_engine_sample_ <= up_to) {
      // Global pending count: the partition decides which shard holds a
      // future event, never whether it exists, so the sum at a barrier
      // is invariant — safe inside the compared merged series.
      std::uint64_t pending = 0;
      for (const auto& shard : shards_) pending += shard->sim.pending_events();
      engine_queue_depth_->set(static_cast<double>(pending));
      engine_sampler_->sample(next_engine_sample_);
      next_engine_sample_ = next_engine_sample_ + engine_interval_;
    }
  }
}

void ShardedSimulator::audit_tick(TimePoint end) {
  if (!config_.audit) return;
  while (next_audit_boundary_ <= end) {
    obs::AuditDoc::MetricWindow window;
    window.index = next_audit_boundary_.ns() / config_.audit_window.ns() - 1;
    window.t_ns = end.ns();
    for (const auto& shard : shards_) {
      window.digest.merge(obs::digest_registry(shard->domain));
    }
    metric_windows_.push_back(window);
    next_audit_boundary_ = next_audit_boundary_ + config_.audit_window;
  }
}

void ShardedSimulator::run_until(TimePoint horizon) {
  const std::int64_t window_ns = config_.lookahead.ns();
  // Drain setup-time posts so messages due inside the first window are
  // already in place before it runs.
  run_phase(config_.profile, coordinator_.exchange_s, [this] { exchange(); });
  while (now_ < horizon) {
    std::int64_t earliest = kNever;
    for (const auto& shard : shards_) {
      earliest = std::min(earliest, shard->sim.next_event_time().ns());
    }
    TimePoint end;
    if (earliest > horizon.ns()) {
      // Nothing due before the horizon: one final (possibly empty)
      // window advances every shard clock to it.
      end = horizon;
    } else {
      // Idle fast-forward onto the fixed grid: jump straight to the
      // window (start, start+L] containing the earliest pending event.
      // `earliest` is a global property of the barrier state, so the
      // resulting window sequence is identical at every shard count.
      const std::int64_t start = ((earliest - 1) / window_ns) * window_ns;
      std::int64_t end_ns = start + window_ns;
      if (end_ns <= now_.ns()) end_ns = now_.ns() + window_ns;
      end = TimePoint::from_ns(std::min(horizon.ns(), end_ns));
    }
    double window_wall_s = 0.0;
    run_phase(config_.profile, window_wall_s, [this, end] { run_window(end); });
    if (config_.profile) record_profile_window(end, window_wall_s);
    run_phase(config_.profile, coordinator_.exchange_s,
              [this] { exchange(); });
    run_phase(config_.profile, coordinator_.engine_sample_s,
              [this, end] { emit_samples(end); });
    run_phase(config_.profile, coordinator_.audit_s,
              [this, end] { audit_tick(end); });
    now_ = end;
    ++windows_;
  }
  flush_metrics();
}

void ShardedSimulator::record_profile_window(TimePoint end,
                                             double window_wall_s) {
  // Coordinator-only, between barriers. A shard's barrier wait is the
  // slack between its own run and sample time and the whole window's
  // wall time (the slowest lane sets the pace; everyone else waited).
  for (auto& shard : shards_) {
    shard->run_s += shard->window_run_s;
    shard->sample_s += shard->window_sample_s;
    const double wait =
        window_wall_s - shard->window_run_s - shard->window_sample_s;
    if (wait > 0) shard->barrier_wait_s += wait;
    shard->window_run_s = 0.0;
    shard->window_sample_s = 0.0;
  }
  if (windows_ % sample_stride_ != 0) return;
  obs::ShardWindowSample sample;
  sample.t_s = end.to_seconds();
  sample.shard_events.reserve(shards_.size());
  for (const auto& shard : shards_) {
    sample.shard_events.push_back(shard->sim.events_executed());
  }
  sample.messages = messages_;
  for (const auto& shard : shards_) {
    sample.queue_depth += shard->sim.pending_events();
    sample.queue_resizes += shard->sim.queue_resizes();
  }
  prof_samples_.push_back(std::move(sample));
  if (prof_samples_.size() >= kMaxProfileSamples) {
    // Keep every other sample and double the stride: the buffer stays
    // bounded while coverage stays end-to-end.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < prof_samples_.size(); i += 2) {
      prof_samples_[kept++] = std::move(prof_samples_[i]);
    }
    prof_samples_.resize(kept);
    sample_stride_ *= 2;
  }
}

obs::AuditDoc ShardedSimulator::audit_doc() const {
  if (!config_.audit) return obs::AuditDoc{};
  std::vector<const obs::DigestTimeline*> timelines;
  timelines.reserve(shards_.size());
  for (const auto& shard : shards_) timelines.push_back(shard->auditor.get());
  return obs::build_audit_doc(timelines, ledger_.get(), metric_windows_);
}

void ShardedSimulator::inject_exchange_reorder(TimePoint after,
                                               std::size_t dst_shard) {
  inject_armed_ = true;
  inject_after_ = after;
  inject_dst_ = dst_shard;
}

void ShardedSimulator::merged_profiler_into(obs::EventProfiler& dst) const {
  for (const auto& shard : shards_) {
    if (shard->profiler != nullptr) dst.merge_from(*shard->profiler);
  }
}

obs::ShardProfile ShardedSimulator::profile() const {
  obs::ShardProfile out;
  if (!config_.profile) return out;
  out.shards = shards_.size();
  out.threads = config_.threads;
  out.windows = windows_;
  out.messages = messages_;
  out.lookahead_s = config_.lookahead.to_seconds();
  out.lanes.reserve(shards_.size());
  for (const auto& shard : shards_) {
    obs::ShardLane lane;
    lane.events = shard->sim.events_executed();
    lane.run_s = shard->run_s;
    lane.barrier_wait_s = shard->barrier_wait_s;
    lane.sample_s = shard->sample_s;
    out.lanes.push_back(lane);
  }
  out.coordinator = coordinator_;
  for (std::size_t src = 0; src < shards_.size(); ++src) {
    for (std::size_t dst = 0; dst < shards_.size(); ++dst) {
      const std::size_t cell = src * shards_.size() + dst;
      if (matrix_messages_[cell] == 0 && matrix_bytes_[cell] == 0) continue;
      out.matrix.push_back(obs::ShardMatrixCell{
          static_cast<std::uint32_t>(src), static_cast<std::uint32_t>(dst),
          matrix_messages_[cell], matrix_bytes_[cell]});
    }
  }
  out.samples = prof_samples_;
  return out;
}

void ShardedSimulator::merged_metrics_into(obs::MetricsRegistry& dst) const {
  for (const auto& shard : shards_) {
    obs::merge_registry(dst, shard->domain);
  }
}

std::string ShardedSimulator::merged_metrics_json() const {
  obs::MetricsRegistry merged;
  merged_metrics_into(merged);
  return obs::MetricsSnapshot{merged}.to_json();
}

std::string ShardedSimulator::merged_openmetrics_text() const {
  obs::MetricsRegistry merged;
  merged_metrics_into(merged);
  return obs::OpenMetricsExporter::render(merged);
}

std::string ShardedSimulator::merged_series_json(
    const std::string& source, const obs::SloMonitor* monitor) const {
  std::vector<const obs::TimeSeriesSampler*> samplers;
  for (const auto& shard : shards_) {
    if (shard->sampler != nullptr) samplers.push_back(shard->sampler.get());
  }
  // Engine series last: shard series keep priority on a (never
  // expected) duplicate name. sim.queue_depth is partition-invariant at
  // the sample grid, so it belongs in the compared merged document.
  if (engine_sampler_ != nullptr) samplers.push_back(engine_sampler_.get());
  return obs::merged_series_json(samplers, source, monitor);
}

std::vector<std::string> ShardedSimulator::shared_metric_names() const {
  std::map<std::string, std::size_t> owner;
  std::set<std::string> shared;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const obs::MetricsRegistry& reg = shards_[s]->domain;
    const auto claim = [&](const std::string& name) {
      const auto [it, fresh] = owner.emplace(name, s);
      if (!fresh && it->second != s) shared.insert(name);
    };
    for (const auto& [name, c] : reg.counters()) claim(name);
    for (const auto& [name, g] : reg.gauges()) claim(name);
    for (const auto& [name, h] : reg.histograms()) claim(name);
  }
  return {shared.begin(), shared.end()};
}

const obs::TimeSeriesSampler* ShardedSimulator::shard_sampler(
    std::size_t shard) const {
  return shards_[shard]->sampler.get();
}

std::uint64_t ShardedSimulator::posts_clamped() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->posts_clamped;
  return total;
}

std::uint64_t ShardedSimulator::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sim.events_executed();
  return total;
}

std::uint64_t ShardedSimulator::queue_resizes() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sim.queue_resizes();
  return total;
}

void ShardedSimulator::set_metrics(obs::MetricsRegistry* registry,
                                   const std::string& prefix) {
  if (registry == nullptr) {
    m_windows_ = nullptr;
    m_messages_ = nullptr;
    m_posts_clamped_ = nullptr;
    m_events_executed_ = nullptr;
    m_queue_resizes_ = nullptr;
    m_shards_ = nullptr;
    m_threads_ = nullptr;
    m_max_exchange_ = nullptr;
    return;
  }
  m_windows_ = &registry->counter(prefix + "par.windows");
  m_messages_ = &registry->counter(prefix + "par.messages");
  m_posts_clamped_ = &registry->counter(prefix + "par.posts_clamped");
  m_events_executed_ = &registry->counter(prefix + "par.events_executed");
  m_queue_resizes_ = &registry->counter(prefix + "par.queue_resizes");
  m_shards_ = &registry->gauge(prefix + "par.shards");
  m_threads_ = &registry->gauge(prefix + "par.threads");
  m_max_exchange_ = &registry->gauge(prefix + "par.max_exchange");
  windows_flushed_ = windows_;
  messages_flushed_ = messages_;
  clamped_flushed_ = posts_clamped();
  events_flushed_ = events_executed();
  resizes_flushed_ = queue_resizes();
}

void ShardedSimulator::flush_metrics() {
  if (m_windows_ != nullptr) {
    m_windows_->inc(windows_ - windows_flushed_);
    windows_flushed_ = windows_;
  }
  if (m_messages_ != nullptr) {
    m_messages_->inc(messages_ - messages_flushed_);
    messages_flushed_ = messages_;
  }
  if (m_posts_clamped_ != nullptr) {
    const std::uint64_t clamped = posts_clamped();
    m_posts_clamped_->inc(clamped - clamped_flushed_);
    clamped_flushed_ = clamped;
  }
  if (m_events_executed_ != nullptr) {
    const std::uint64_t events = events_executed();
    m_events_executed_->inc(events - events_flushed_);
    events_flushed_ = events;
  }
  if (m_queue_resizes_ != nullptr) {
    const std::uint64_t resizes = queue_resizes();
    m_queue_resizes_->inc(resizes - resizes_flushed_);
    resizes_flushed_ = resizes;
  }
  if (m_shards_ != nullptr) {
    m_shards_->set(static_cast<double>(shards_.size()));
  }
  if (m_threads_ != nullptr) {
    m_threads_->set(static_cast<double>(config_.threads));
  }
  if (m_max_exchange_ != nullptr) {
    m_max_exchange_->set_max(static_cast<double>(max_exchange_));
  }
}

}  // namespace dlte::par
