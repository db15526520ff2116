// Runtime self-profiling plane, layer 1: deterministic event attribution
// (DESIGN.md §14).
//
// An EventProfiler answers "where do the engine's events go?" — every
// sim::Simulator::schedule_* callsite carries a cheap interned label id
// (threaded through the event queue's payload slab), and the profiler
// counts, per label: schedules issued, events executed, past-target
// clamps, and queue residency (simulated nanoseconds between scheduling
// and execution). All four derive from simulated time and seeded draws
// only, so the attribution section of a profile is byte-deterministic:
// identical across double runs AND — because per-shard profilers merge
// by label NAME, and the sharded runtime's event structure is
// partition-invariant — identical at any shard count. That is the
// contract the prof-determinism CI gate byte-compares.
//
// Layer 2 lives beside it as plain data: ShardProfile describes the
// parallel runtime's wall-clock behaviour (per-shard run/barrier-wait
// time, per-window event samples, and the shard-pair message matrix the
// topology-aware partitioner needs). Wall-clock values vary run to run,
// so ShardProfile is explicitly EXCLUDED from byte-compared artifacts —
// prof_export.h keeps the two sections separate for exactly that reason.
//
// obs sits below sim and par, so nothing here includes either; the
// engine holds an `EventProfiler*` that stays nullptr until attached
// (the set_metrics idiom), and par fills a ShardProfile by hand.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace dlte::obs {

// Label id 0 is the always-present unlabeled bucket: events scheduled
// through the unlabeled schedule_* overloads land there.
inline constexpr std::uint32_t kUnlabeledEvent = 0;
inline constexpr const char kUnlabeledEventName[] = "sim.unlabeled";

class EventProfiler {
 public:
  struct LabelStats {
    std::uint64_t schedules{0};
    std::uint64_t executed{0};
    std::uint64_t past_clamps{0};
    // Sum over schedules of (execution time - schedule time), in
    // simulated ns. Per-label mean residency = residency_ns / schedules.
    std::uint64_t residency_ns{0};

    void add(const LabelStats& other) {
      schedules += other.schedules;
      executed += other.executed;
      past_clamps += other.past_clamps;
      residency_ns += other.residency_ns;
    }
  };

  EventProfiler();

  // Get-or-create the id for `name`. Ids are dense, stable for the
  // profiler's lifetime, and per-profiler (cross-shard identity is by
  // name, never by id). Callsites intern once and cache the id.
  [[nodiscard]] std::uint32_t intern(const std::string& name);

  [[nodiscard]] const std::string& label_name(std::uint32_t id) const {
    return names_[id];
  }
  [[nodiscard]] std::size_t label_count() const { return names_.size(); }
  [[nodiscard]] const LabelStats& stats(std::uint32_t id) const {
    return stats_[id];
  }

  // Hot-path hooks (the engine calls these behind one null check).
  void on_schedule(std::uint32_t id, std::int64_t residency_ns) {
    LabelStats& s = stats_[id];
    ++s.schedules;
    s.residency_ns += static_cast<std::uint64_t>(residency_ns);
  }
  void on_past_clamp(std::uint32_t id) { ++stats_[id].past_clamps; }
  void on_execute(std::uint32_t id) { ++stats_[id].executed; }

  // Fold `other` into this profiler BY NAME: unseen labels are interned,
  // stats add. Counters are associative, so merging N per-shard
  // profilers reproduces exactly what one profiler observing the union
  // stream would hold — the shard-count-invariance the CI gate checks.
  void merge_from(const EventProfiler& other);

  // Labels in sorted-name order (the deterministic export order).
  [[nodiscard]] std::vector<std::uint32_t> sorted_ids() const;

  [[nodiscard]] LabelStats totals() const;

  // Expose every label through the metrics plane: four counters per
  // label under `<prefix><label>.{schedules,executed,past_clamps,
  // residency_ns}` — which puts prof.* on the OpenMetrics exposition
  // path for free. Adds (counter semantics), so export once per run.
  void export_metrics(MetricsRegistry& registry,
                      const std::string& prefix = "prof.") const;

 private:
  std::vector<std::string> names_;
  std::vector<LabelStats> stats_;
  std::unordered_map<std::string, std::uint32_t> ids_;
};

// ---- Layer 2: wall-clock shard profile (NOT byte-compared) -----------

// One shard's lane: how its wall time splits between injecting its
// inbound messages at the window's start, running windows, sampling its
// series at the window's end (all on the claiming thread) and waiting
// for the barrier. `start_s` is the part of the barrier wait from the
// window's publication to a thread starting this shard: wake-up plus
// queueing behind other shards. `events / windows` is the
// lookahead efficiency — how much work each conservative window
// actually carries.
struct ShardLane {
  std::uint64_t events{0};
  double inject_s{0.0};
  double run_s{0.0};
  double barrier_wait_s{0.0};
  double sample_s{0.0};
  double start_s{0.0};
};

// The coordinator's serial work, by phase: the closing injection at the
// end of each run_until call (`exchange_s`), and between windows the
// engine sampler (sim.queue_depth) and the audit seal.
struct CoordinatorPhases {
  double exchange_s{0.0};
  double engine_sample_s{0.0};
  double audit_s{0.0};
};

// One cell of the shard-pair coupling matrix: messages/bytes posted from
// `src` shard to `dst` shard. This is the load matrix ROADMAP item 1's
// min-cut partitioner consumes: heavy off-diagonal cells are shard
// boundaries that should not exist.
struct ShardMatrixCell {
  std::uint32_t src{0};
  std::uint32_t dst{0};
  std::uint64_t messages{0};
  std::uint64_t bytes{0};
};

// Per-barrier checkpoint: cumulative events per shard plus cumulative
// exchanged messages at simulated time `t_s`. Rendered as Perfetto
// counter tracks by prof_export.
struct ShardWindowSample {
  double t_s{0.0};
  std::vector<std::uint64_t> shard_events;
  std::uint64_t messages{0};
  // Engine-queue health at the barrier: total pending events across
  // shards and cumulative calendar-queue recalibrations. Both live in
  // the shard section because neither is partition-invariant.
  std::uint64_t queue_depth{0};
  std::uint64_t queue_resizes{0};
};

struct ShardProfile {
  std::size_t shards{0};
  std::size_t threads{0};
  std::uint64_t windows{0};
  // Windows the barrier judged light and ran on the coordinator alone.
  std::uint64_t windows_inline{0};
  std::uint64_t messages{0};
  double lookahead_s{0.0};
  std::vector<ShardLane> lanes;           // size == shards
  CoordinatorPhases coordinator;
  std::vector<ShardMatrixCell> matrix;    // nonzero cells, (src,dst) order
  std::vector<ShardWindowSample> samples;  // barrier checkpoints
};

// A full dlte-prof-v1 document: the deterministic attribution section
// plus the wall-clock shard section. Benches build one and hand it to
// the harness for export.
struct ProfileDoc {
  EventProfiler attribution;
  ShardProfile shard_profile;
};

}  // namespace dlte::obs
