// Sharded parallel simulation runtime (DESIGN.md §11).
//
// A ShardedSimulator owns N independent sim::Simulator instances
// ("shards") and advances them together in conservative bounded-lookahead
// windows: every shard runs [t, t+L] in parallel, then all shards stop at
// a barrier, then the next window starts. A message posted in one window
// is injected into its destination shard's queue at the start of the
// next, by the thread that claims that shard. The window width L is the
// minimum latency of any cross-shard interaction (post() refuses shorter
// delays), so no message posted during a window can be due inside it —
// each shard can run its window without hearing from the others, the
// classic conservative-PDES lookahead argument.
//
// Determinism is stronger than "same seed, same thread count": a run is
// byte-identical at ANY shard count and ANY worker-thread count, because
//   1. every cross-endpoint interaction goes through post()/Message even
//      when both endpoints share a shard, so the event structure does
//      not depend on the partition;
//   2. the window grid is fixed multiples of L from t=0 — never derived
//      from the partition;
//   3. the messages posted in a window are injected into each shard in
//      the global (deliver_at, src endpoint, per-source seq) order
//      filtered to that shard, which no shard or thread identity can
//      perturb;
//   4. per-shard observability (domain registries, series samplers) uses
//      shard-unique metric names (per-AP prefixes) and merges by name.
//
// Threading model (ThreadSanitizer-clean by construction): the
// coordinator (the run_until caller) plus a pool of threads − 1 workers;
// within a window each of them claims shards through one atomic counter,
// so each shard is run by exactly one thread. A light window skips the
// pool: at the barrier the coordinator sums the events every shard ran
// in the previous window and the messages about to be injected, and when
// that load is below kInlineWindowLoad it claims every shard itself —
// no publication, no wake, no wait. Both terms are global totals of the
// barrier state, which the determinism contract already fixes, so the
// choice, and with it the thread schedule, is the same at every thread
// count; the first window, with no previous one to measure, is heavy.
// The claiming thread first injects the shard's inbound messages,
// gathered from every shard's outbox, then runs the window, then samples
// the shard's series at every sample point the window reached. post()
// appends to the posting shard's outbox for the current parity; the
// claimers drain the other parity, which the last window filled, and the
// coordinator flips the two between windows — the barrier's mutex orders
// every such hand-off. Between windows the coordinator keeps two serial
// phases: the engine sampler and the audit seal. run_until ends by
// injecting whatever the last window posted, so every posted message
// sits in its destination queue when it returns.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
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
  // DigestTimelines on the engine execute hook, a message ledger per
  // destination shard fed at every injection, and per-window
  // metric-state digests. audit_window is the digest window width on
  // the t=0 grid.
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
  // addressed to it run `handler` there. Call before run_until(). Ids
  // index a table as long as the largest one, so keep them dense.
  void register_endpoint(EndpointId ep, std::size_t shard, Handler handler);

  // Post a message from `src` (must be called from the owning shard's
  // event context, or before the run starts). Delivery is at
  // now + max(delay, lookahead); a shorter delay is clamped up and
  // counted under par.posts_clamped. Both endpoints are resolved here:
  // an unregistered `src` or `dst` throws std::out_of_range naming it.
  void post(EndpointId src, EndpointId dst, Duration delay,
            std::uint16_t kind, std::vector<std::uint8_t> payload);

  // Advance every shard to `horizon` through the barrier-window loop.
  // Callable repeatedly; the window grid stays anchored at t=0. An
  // exception thrown inside a window, on any thread, is rethrown here
  // once every thread has reached the barrier; the run cannot go on.
  void run_until(TimePoint horizon);

  // A window whose predicted load (the previous window's events plus the
  // messages about to be injected, summed over every shard) is below
  // this runs on the coordinator alone. Events per window of the
  // perfbench workloads at 4 shards, seed 42: registry_churn 4,591 of
  // 4,594 windows below 64 (p50 13, p99 39), each cheaper to run than to
  // publish to the pool; metro none below 64 (4 below 128, p10 583);
  // town_attach none below 64 (11 below 128, all early, p10 317).
  static constexpr std::uint64_t kInlineWindowLoad = 64;

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
  // digests) plus the per-shard chains and the shard-pair ledger, folded
  // from one message ledger per destination shard.
  // Zeroed doc when auditing is off.
  [[nodiscard]] obs::AuditDoc audit_doc() const;
  // TEST HOOK for the divergence-localization self-test: hold the first
  // message destined for `dst_shard` with deliver_at >= `after` out of
  // its injection and inject it one window late — the classic
  // conservative-PDES bug of a message missing its window. Delivery
  // still lands at deliver_at, so the scenario's metrics, series, and
  // OpenMetrics artifacts stay byte-identical — the classic
  // observability plane is blind to it. The audit plane is not: the
  // destination engine assigns the delivery's tie-break seq late,
  // shifting every subsequent seq in that shard (the order-sensitive
  // chains and per-label digests split from the delivery's window on),
  // and the re-bound execution order of same-timestamp work cascades
  // into downstream event times (the merged event digests corroborate
  // the window). One-shot: disarms after capturing. A message held by
  // run_until's closing injection waits for the next run_until call; with
  // none, it is silently dropped (loudly visible in metrics).
  void inject_exchange_reorder(TimePoint after, std::size_t dst_shard);

  // --- Self-profiling plane (config_.profile) ------------------------
  [[nodiscard]] bool profiling() const { return config_.profile; }
  // Fold every shard's event-attribution profiler into `dst` by label
  // name. The merged result is shard-count invariant (the determinism
  // contract above makes the event structure partition-invariant), so
  // CI byte-compares its JSON across shard counts. No-op when profiling
  // is off.
  void merged_profiler_into(obs::EventProfiler& dst) const;
  // The wall-clock side: lanes (inject, run, sample, barrier wait),
  // coordinator phases, load matrix, window samples. Values vary run to
  // run — never byte-compare this. Zeroed struct when profiling is off.
  [[nodiscard]] obs::ShardProfile profile() const;

  [[nodiscard]] std::uint64_t windows_run() const { return windows_; }
  // Windows judged light at their barrier (run without waking the pool).
  // Equal at every thread count, 1 included; mirrored into the
  // shard_profile of dlte-prof-v1, never into the par.* metrics.
  [[nodiscard]] std::uint64_t windows_inline() const {
    return windows_inline_;
  }
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
    // Posts from this endpoint so far: its next Message::seq. Only the
    // owning shard posts from it.
    std::uint64_t next_seq{0};
  };
  struct Shard;
  // A message on its way to its destination shard. post() resolves both
  // endpoints once; inject() needs no lookup.
  struct Posted {
    Message msg;
    const Endpoint* endpoint{nullptr};
    std::uint32_t src_shard{0};
  };
  // One injected cross-shard delivery, pooled per destination shard: the
  // metro scenario injects hundreds of thousands of these per run, and a
  // pooled record (lambda captures one pointer) costs no heap traffic
  // where the previous shared_ptr cost two allocations per message. Only
  // the thread that claimed the shard touches its pool (injecting, then
  // delivering), or the coordinator between windows.
  struct Delivery {
    Message msg;
    const Endpoint* endpoint{nullptr};
    Shard* home{nullptr};
  };
  struct Shard {
    sim::Simulator sim;
    obs::MetricsRegistry domain;
    std::unique_ptr<obs::TimeSeriesSampler> sampler;
    // This shard's posts by parity and destination shard. post() appends
    // to outbox[fill_][dst]; the claimer of dst drains outbox[drain][dst]
    // of every shard. A window's posts land in one parity while it drains
    // the other, even when one thread runs every shard.
    std::array<std::vector<std::vector<Posted>>, 2> outbox;
    // Posts since the last flip (none injected yet) and their earliest
    // deliver_at: the barrier's in-flight view.
    std::uint64_t in_flight{0};
    std::int64_t in_flight_earliest_ns{
        std::numeric_limits<std::int64_t>::max()};
    // Messages inject() scheduled into this shard since the coordinator
    // last counted them; `inbox` is inject()'s reused gather buffer.
    std::uint64_t injected{0};
    std::vector<Posted> inbox;
    std::uint64_t posts_clamped{0};
    ObjectPool<Delivery> deliveries{256};
    // Profiling state (null/zero unless config_.profile). The window_*
    // times are written by the thread that claims the shard inside the
    // window and read by the coordinator after the barrier — never
    // concurrently.
    std::unique_ptr<obs::EventProfiler> profiler;
    // Audit state (null unless config_.audit), fed by the claiming
    // thread inside windows and read by the coordinator after the run:
    // the shard's execution timeline, and the ledger of the messages
    // injected into it.
    std::unique_ptr<obs::DigestTimeline> auditor;
    std::unique_ptr<obs::MessageLedger> ledger;
    std::uint32_t delivery_label{0};
    double window_start_s{0.0};
    double window_inject_s{0.0};
    double window_run_s{0.0};
    double window_sample_s{0.0};
    double start_s{0.0};
    double inject_s{0.0};
    double run_s{0.0};
    double sample_s{0.0};
    double barrier_wait_s{0.0};
  };

  // Throws std::out_of_range for an unregistered id, a gap included.
  [[nodiscard]] Endpoint& endpoint(EndpointId ep) const;
  // The barrier's choice for the next window (see kInlineWindowLoad).
  // Call once per window, before the outboxes flip.
  [[nodiscard]] bool next_window_is_light();
  // Run a light window on the coordinator alone; otherwise publish it,
  // run shards beside the workers, and wait for them.
  void run_window(TimePoint end, bool light);
  // The one claim loop, run by the coordinator and every worker: take
  // shards off next_shard_ until none is left; for each, inject its
  // inbound messages, run it to `end`, then sample it at every
  // due_samples_ point.
  void run_shards(TimePoint end);
  void worker_loop();
  // Earliest pending work at the barrier: queued events, and messages
  // posted (or held back by the test hook) but not yet injected.
  [[nodiscard]] std::int64_t earliest_pending_ns() const;
  // Pending events plus in-flight messages: what the queues would hold
  // if every posted message were already injected.
  [[nodiscard]] std::uint64_t pending_work() const;
  // Between windows: the parity the last window filled becomes the one
  // the next window drains.
  void flip_outboxes();
  // Gather the messages for shard `dst` from every outbox's drain parity,
  // order them by message_order, and schedule their deliveries.
  void inject(std::size_t dst);
  // Fold the shards' injected counts into messages_ and max_exchange_.
  void count_injected();
  // Roll the finished window's wall time into lanes and samples.
  void record_profile_window(TimePoint end, double window_wall_s);
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
  // Indexed by id; null where no endpoint was registered. An endpoint
  // keeps its address, since Posted and Delivery point at it.
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  TimePoint now_{};
  TimePoint next_sample_{};
  // The window's sample points, published with it (see run_window).
  std::vector<TimePoint> due_samples_;
  std::uint64_t windows_{0};
  std::uint64_t windows_inline_{0};
  // events_executed() at the last window's barrier decision.
  std::uint64_t events_at_decision_{0};
  std::uint64_t messages_{0};
  std::uint64_t max_exchange_{0};
  // The outbox parity post() appends to; inject() drains the other one.
  std::size_t fill_{0};

  // Audit plane (empty unless config_.audit).
  std::vector<obs::AuditDoc::MetricWindow> metric_windows_;
  TimePoint next_audit_boundary_{};
  // Test hook state, touched only by inject(inject_dst_) and, between
  // windows, the coordinator.
  bool inject_armed_{false};
  TimePoint inject_after_{};
  std::size_t inject_dst_{0};
  std::unique_ptr<Posted> inject_held_;

  // Coordinator-owned engine registry + sampler: the global
  // sim.queue_depth gauge (pending events plus in-flight messages at the
  // sample grid — partition-invariant at barriers) sampled into the
  // merged series.
  obs::MetricsRegistry engine_domain_;
  std::unique_ptr<obs::TimeSeriesSampler> engine_sampler_;
  obs::Gauge* engine_queue_depth_{nullptr};
  Duration engine_interval_{};
  TimePoint next_engine_sample_{};

  // Shard-pair load matrix (messages/bytes), dense S×S, profiling only;
  // inject(d) writes column d only.
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
  // The first exception a worker's claim threw this window; the
  // coordinator rethrows it after the barrier unless its own claim threw.
  std::exception_ptr worker_failure_;
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
