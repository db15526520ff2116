// Sharded parallel simulation runtime (DESIGN.md §11).
//
// A ShardedSimulator owns N independent sim::Simulator instances
// ("shards") and advances them together in conservative bounded-lookahead
// windows: every shard runs [t, t+L] in parallel, then all shards stop at
// a barrier where cross-shard messages are exchanged, then the next
// window starts. The window width L is the minimum latency of any
// cross-shard interaction (post() refuses shorter delays), so no message
// posted during a window can be due inside it — each shard can run its
// window without hearing from the others, the classic conservative-PDES
// lookahead argument.
//
// Determinism is stronger than "same seed, same thread count": a run is
// byte-identical at ANY shard count and ANY worker-thread count, because
//   1. every cross-endpoint interaction goes through post()/Message even
//      when both endpoints share a shard, so the event structure does
//      not depend on the partition;
//   2. the window grid is fixed multiples of L from t=0 — never derived
//      from the partition;
//   3. messages collected at a barrier are injected in the global
//      (deliver_at, src endpoint, per-source seq) order, which no shard
//      or thread identity can perturb;
//   4. per-shard observability (domain registries, series samplers) uses
//      shard-unique metric names (per-AP prefixes) and merges by name.
//
// Threading model (ThreadSanitizer-clean by construction): the
// coordinator (the run_until caller) plus a pool of threads − 1 workers;
// within a window each of them claims shards through one atomic counter,
// so each shard is run by exactly one thread and touched by no one else.
// The claiming thread also samples its shard's series at every sample
// point the window reached, right after running it. The coordinator
// touches a shard it did not claim only between windows, with the
// barrier mutex ordering every hand-off; between windows it keeps the
// serial phases: exchange, the engine sampler and the audit seal.
// post() appends only to the posting shard's own outbox.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/pool.h"
#include "common/time.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/series.h"
#include "obs/slo.h"
#include "par/message.h"
#include "sim/simulator.h"

namespace dlte::par {

struct ShardedConfig {
  std::size_t shards{1};
  // Threads that run shards, the caller's thread included (a pool of
  // threads − 1 workers); 0 → one per shard. 1 runs every shard on the
  // caller's thread (no pool), useful under sanitizers and as the
  // determinism reference.
  std::size_t threads{0};
  // Conservative lookahead L: the window width, and the minimum delay
  // post() accepts. Must be ≤ the scenario's minimum cross-endpoint
  // latency (net::Network::min_remote_link_delay() is the query).
  Duration lookahead{Duration::millis(1)};
  // Simulated-time cadence for the per-shard series samplers (each run
  // by the thread that ran its shard); zero disables sampling.
  Duration sample_interval{};
  // Enable the self-profiling plane (DESIGN.md §14): per-shard event
  // attribution (deterministic) plus wall-clock lane timing, per-window
  // samples, and the shard-pair message matrix (not deterministic).
  bool profile{false};
  // Enable the determinism audit plane (DESIGN.md §15): per-shard
  // DigestTimelines on the engine execute hook, the cross-shard message
  // ledger at every barrier exchange, and per-window metric-state
  // digests. audit_window is the digest window width on the t=0 grid.
  bool audit{false};
  Duration audit_window{Duration::millis(250)};
  // Simulated-time cadence for the coordinator's ENGINE sampler (the
  // sim.queue_depth series in the merged document); zero falls back to
  // sample_interval, so scenarios that sample domain metrics get the
  // engine series for free and metro-scale runs can enable it alone.
  Duration engine_sample_interval{};
};

class ShardedSimulator {
 public:
  // Invoked inside the OWNING shard's simulator at msg.deliver_at.
  using Handler = std::function<void(const Message&)>;

  explicit ShardedSimulator(ShardedConfig config);
  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;
  ~ShardedSimulator();

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Duration lookahead() const { return config_.lookahead; }

  // The shard's engine and its domain metrics registry (scenario metrics
  // live here under shard-unique names; see merged_metrics_into).
  [[nodiscard]] sim::Simulator& shard_sim(std::size_t shard);
  [[nodiscard]] obs::MetricsRegistry& shard_registry(std::size_t shard);

  // Declare that endpoint `ep` lives on `shard`; cross-shard messages
  // addressed to it run `handler` there. Call before run_until().
  void register_endpoint(EndpointId ep, std::size_t shard, Handler handler);
  [[nodiscard]] std::size_t owner_of(EndpointId ep) const;

  // Post a message from `src` (must be called from the owning shard's
  // event context, or before the run starts). Delivery is at
  // now + max(delay, lookahead); a shorter delay is clamped up and
  // counted under par.posts_clamped.
  void post(EndpointId src, EndpointId dst, Duration delay,
            std::uint16_t kind, std::vector<std::uint8_t> payload);

  // Advance every shard to `horizon` through the barrier-window loop.
  // Callable repeatedly; the window grid stays anchored at t=0.
  void run_until(TimePoint horizon);

  [[nodiscard]] TimePoint now() const { return now_; }

  // --- Merged, shard-count-invariant observability -------------------
  // Fold every shard's domain registry into `dst` (obs::merge_registry
  // naming contract applies).
  void merged_metrics_into(obs::MetricsRegistry& dst) const;
  // The merged registry rendered as a MetricsSnapshot JSON object and as
  // OpenMetrics text — the artifacts the sharded benches byte-compare.
  [[nodiscard]] std::string merged_metrics_json() const;
  [[nodiscard]] std::string merged_openmetrics_text() const;
  // One dlte-series-v1 document over all shards' samplers (empty
  // samplers when sampling is disabled). An optional SloMonitor embeds
  // its rules/alerts/health sections — it must watch a single shard's
  // domain registry so the alert timeline is partition-invariant.
  [[nodiscard]] std::string merged_series_json(
      const std::string& source,
      const obs::SloMonitor* monitor = nullptr) const;
  [[nodiscard]] const obs::TimeSeriesSampler* shard_sampler(
      std::size_t shard) const;
  // Every instrument name (counter, gauge or histogram) found in more
  // than one shard's domain registry, sorted. DESIGN.md §16 forbids
  // them: the merge sums such a name to the right total, yet its
  // histogram sum and the per-shard audit digests then depend on the
  // partition. Sharded benches fail a run that reports any.
  [[nodiscard]] std::vector<std::string> shared_metric_names() const;

  // --- Parallel-runtime metrics (NOT shard-count invariant) ----------
  // par.windows, par.messages, par.posts_clamped counters plus
  // par.shards / par.threads / par.max_exchange gauges, flushed at the
  // end of each run_until. These describe the runtime itself, so they
  // belong in a bench's harness registry, never in the compared
  // artifacts.
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "");

  // --- Determinism audit plane (config_.audit) -----------------------
  [[nodiscard]] bool auditing() const { return config_.audit; }
  // Assemble the dlte-audit-v1 document: the partition-invariant merged
  // section (windowed event/message multiset digests + metric-state
  // digests) plus the per-shard chains and the shard-pair ledger.
  // Zeroed doc when auditing is off.
  [[nodiscard]] obs::AuditDoc audit_doc() const;
  // TEST HOOK for the divergence-localization self-test: hold the first
  // message destined for `dst_shard` with deliver_at >= `after` out of
  // its barrier exchange and inject it one barrier late — the classic
  // conservative-PDES bug of a message missing its window. Delivery
  // still lands at deliver_at, so the scenario's metrics, series, and
  // OpenMetrics artifacts stay byte-identical — the classic
  // observability plane is blind to it. The audit plane is not: the
  // destination engine assigns the delivery's tie-break seq late,
  // shifting every subsequent seq in that shard (the order-sensitive
  // chains and per-label digests split from the delivery's window on),
  // and the re-bound execution order of same-timestamp work cascades
  // into downstream event times (the merged event digests corroborate
  // the window). One-shot: disarms after capturing. The trigger needs
  // at least one barrier between `after` + lookahead and the horizon or
  // the held message is silently dropped (loudly visible in metrics).
  void inject_exchange_reorder(TimePoint after, std::size_t dst_shard);

  // --- Self-profiling plane (config_.profile) ------------------------
  [[nodiscard]] bool profiling() const { return config_.profile; }
  // Fold every shard's event-attribution profiler into `dst` by label
  // name. The merged result is shard-count invariant (the determinism
  // contract above makes the event structure partition-invariant), so
  // CI byte-compares its JSON across shard counts. No-op when profiling
  // is off.
  void merged_profiler_into(obs::EventProfiler& dst) const;
  // The wall-clock side: lanes (run, sample, barrier wait), coordinator
  // phases, load matrix, window samples. Values vary run to run — never
  // byte-compare this. Zeroed struct when profiling is off.
  [[nodiscard]] obs::ShardProfile profile() const;

  [[nodiscard]] std::uint64_t windows_run() const { return windows_; }
  [[nodiscard]] std::uint64_t messages_exchanged() const { return messages_; }
  [[nodiscard]] std::uint64_t posts_clamped() const;
  // Total events dispatched across every shard engine. The event
  // structure is partition-invariant (every cross-endpoint interaction is
  // a posted Message), so this total is too — benches divide it by wall
  // time for the events/sec the perf CI gates. Flushed to
  // `par.events_executed` when metrics are attached.
  [[nodiscard]] std::uint64_t events_executed() const;
  // Calendar-queue recalibrations summed over shard engines. Resize
  // points depend on per-shard queue sizes, so this is deterministic
  // for a FIXED configuration but NOT partition-invariant — it flushes
  // to `par.queue_resizes` in the runtime metrics, never into the
  // cross-shard-count compared artifacts.
  [[nodiscard]] std::uint64_t queue_resizes() const;

 private:
  struct Endpoint {
    std::size_t shard{0};
    Handler handler;
  };
  struct Shard;
  // One injected cross-shard delivery, pooled per destination shard: the
  // metro scenario injects hundreds of thousands of these per run, and a
  // pooled record (lambda captures one pointer) costs no heap traffic
  // where the previous shared_ptr cost two allocations per message. The
  // pool is touched by the coordinator at barriers and by the thread that
  // claimed the shard inside windows — phases that never overlap.
  struct Delivery {
    Message msg;
    const Endpoint* endpoint{nullptr};
    Shard* home{nullptr};
  };
  struct Shard {
    sim::Simulator sim;
    obs::MetricsRegistry domain;
    std::unique_ptr<obs::TimeSeriesSampler> sampler;
    std::vector<Message> outbox;
    // Per-source post counters (sources owned by this shard only).
    std::unordered_map<EndpointId, std::uint64_t> next_seq;
    std::uint64_t posts_clamped{0};
    ObjectPool<Delivery> deliveries{256};
    // Profiling state (null/zero unless config_.profile). window_start_s,
    // window_run_s and window_sample_s are written by the thread that
    // claims the shard inside the window and read by the coordinator
    // after the barrier — never concurrently.
    std::unique_ptr<obs::EventProfiler> profiler;
    // Audit timeline (null unless config_.audit); fed by the claiming
    // thread inside windows, read by the coordinator after the run.
    std::unique_ptr<obs::DigestTimeline> auditor;
    std::uint32_t delivery_label{0};
    double window_start_s{0.0};
    double window_run_s{0.0};
    double window_sample_s{0.0};
    double start_s{0.0};
    double run_s{0.0};
    double sample_s{0.0};
    double barrier_wait_s{0.0};
  };

  // Publish the window, run shards beside the workers, wait for them.
  void run_window(TimePoint end);
  // The one claim loop, run by the coordinator and every worker: take
  // shards off next_shard_ until none is left, run each to `end`, then
  // sample it at every due_samples_ point.
  void run_shards(TimePoint end);
  void worker_loop();
  // Roll the finished window's wall time into lanes and samples.
  void record_profile_window(TimePoint end, double window_wall_s);
  // Collect all outboxes, sort by message_order, inject at the barrier.
  void exchange();
  // Sample the engine series (the shard series are sampled in
  // run_shards).
  void emit_samples(TimePoint up_to);
  // Seal audit windows whose close time the barrier at `end` crossed:
  // the per-window metric-state digest is taken at the first barrier at
  // or after the close — a partition-invariant point of the run.
  void audit_tick(TimePoint end);
  void flush_metrics();

  ShardedConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unordered_map<EndpointId, Endpoint> endpoints_;
  TimePoint now_{};
  TimePoint next_sample_{};
  // The window's sample points, published with it (see run_window).
  std::vector<TimePoint> due_samples_;
  std::uint64_t windows_{0};
  std::uint64_t messages_{0};
  std::uint64_t max_exchange_{0};

  // Audit plane (null/empty unless config_.audit).
  std::unique_ptr<obs::MessageLedger> ledger_;
  std::vector<obs::AuditDoc::MetricWindow> metric_windows_;
  TimePoint next_audit_boundary_{};
  bool inject_armed_{false};
  TimePoint inject_after_{};
  std::size_t inject_dst_{0};
  std::unique_ptr<Message> inject_held_;

  // Coordinator-owned engine registry + sampler: the global
  // sim.queue_depth gauge (sum of pending events at the sample grid —
  // partition-invariant at barriers) sampled into the merged series.
  obs::MetricsRegistry engine_domain_;
  std::unique_ptr<obs::TimeSeriesSampler> engine_sampler_;
  obs::Gauge* engine_queue_depth_{nullptr};
  Duration engine_interval_{};
  TimePoint next_engine_sample_{};

  // Shard-pair load matrix (messages/bytes), dense S×S, profiling only.
  std::vector<std::uint64_t> matrix_messages_;
  std::vector<std::uint64_t> matrix_bytes_;
  // Per-window samples, kept bounded: when the buffer hits the cap every
  // other sample is dropped and the stride doubles — deterministic in
  // which windows are sampled, wall-clock only in what they contain.
  static constexpr std::size_t kMaxProfileSamples = 512;
  std::vector<obs::ShardWindowSample> prof_samples_;
  std::uint64_t sample_stride_{1};
  obs::CoordinatorPhases coordinator_;

  // Worker pool: threads − 1 workers (none when config_.threads == 1).
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t generation_{0};
  std::size_t done_count_{0};
  TimePoint window_end_{};
  // When the coordinator published the window (profiling only): a lane's
  // start_s runs from here to its claim. Written before the publishing
  // lock, read by claimers after it.
  std::chrono::steady_clock::time_point window_published_{};
  bool shutdown_{false};
  std::atomic<std::size_t> next_shard_{0};

  obs::Counter* m_windows_{nullptr};
  obs::Counter* m_messages_{nullptr};
  obs::Counter* m_posts_clamped_{nullptr};
  obs::Counter* m_events_executed_{nullptr};
  obs::Counter* m_queue_resizes_{nullptr};
  obs::Gauge* m_shards_{nullptr};
  obs::Gauge* m_threads_{nullptr};
  obs::Gauge* m_max_exchange_{nullptr};
  std::uint64_t windows_flushed_{0};
  std::uint64_t messages_flushed_{0};
  std::uint64_t clamped_flushed_{0};
  std::uint64_t events_flushed_{0};
  std::uint64_t resizes_flushed_{0};
};

}  // namespace dlte::par
