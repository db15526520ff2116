// Shared scaffold of the sharded benches (C9, C10, C12). Each bench runs
// one par:: scenario in one of two modes:
//
//   sweep — the scenario at 1, 2, and 4 shards (one thread per shard);
//           every merged artifact of the 2- and 4-shard runs is
//           byte-compared IN PROCESS against the 1-shard run, recorded as
//           `<tag>.s<N>.identical`, with `run_s<N>`/`speedup_s<N>` wall
//           timings and engine throughput in the harness timings;
//   gate  — `--shards=<n>`: one run at --shards/--par-threads, whose
//           documents the CI par-determinism gate (tools/obs_check.sh
//           par) compares across shard counts.
//
// ParBench writes no file: each run's merged metrics, series and
// OpenMetrics text, its profile and its audit document go to the
// harness (the last run's documents win), and --artifacts=<prefix> has
// finish() write them. In both modes a run whose shards share an
// instrument name fails the bench (DESIGN.md §16). A bench supplies only what differs:
// how to build and run its scenario at (shards, threads), and how to
// record one finished run (its result counters and table row). Kept
// apart from the sim-free bench harness because it links the parallel
// runtime.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "obs/audit.h"
#include "obs/prof.h"
#include "obs/slo.h"
#include "par/sharded_sim.h"

namespace dlte::bench {

// One finished sharded run.
struct ParRun {
  std::size_t shards{1};
  double wall_s{0.0};
  double sim_seconds{0.0};
  std::uint64_t events{0};
  // Merged artifacts, byte-identical at any shard count (DESIGN.md §11).
  std::string metrics;
  std::string series;
  std::string openmetrics;
  std::string prof;   // Event-attribution section of dlte-prof-v1.
  std::string audit;  // Merged section of dlte-audit-v1.
  // Whole documents: the shard profile and per-shard audit chains vary
  // with the partition, so they are handed over but never compared.
  obs::ProfileDoc profile;
  obs::AuditDoc audit_doc;
  // Instrument names written from more than one shard; must be empty.
  std::vector<std::string> shared_metrics;
};

class ParBench {
 public:
  // Builds the scenario at (shards, threads) and returns measure()'s run.
  using RunFn = std::function<ParRun(std::size_t shards, std::size_t threads)>;
  // Records one finished run (bench counters, table row). `identical` and
  // `speedup` are against the sweep's 1-shard run; a gate run and the
  // 1-shard run itself report true and 1.0.
  using ReportFn =
      std::function<void(const ParRun& run, bool identical, double speedup)>;

  // Per-run runtime metrics land under `<tag>.s<N>.` in the harness.
  ParBench(Harness& harness, std::string tag);

  [[nodiscard]] bool gate_mode() const { return harness_.shards() > 0; }

  // Attach `runtime`'s par.* metrics, time `run` (which drives the
  // scenario to its horizon), and capture the merged artifacts. A
  // scenario whose SLO monitor rides in the series passes `monitor`,
  // looked up after the run because scenarios build lazily.
  [[nodiscard]] ParRun measure(
      par::ShardedSimulator& runtime, const std::function<void()>& run,
      const std::function<const obs::SloMonitor*()>& monitor = {});

  // Gate mode: one run. Returns 0, or 1 if its shards shared a metric
  // name.
  [[nodiscard]] int gate(const RunFn& run, const ReportFn& report);
  // Sweep mode. Returns 0 when every run matched the 1-shard run and no
  // run's shards shared a metric name, else 1.
  [[nodiscard]] int sweep(const RunFn& run, const ReportFn& report);

 private:
  // Hand a finished run's timings and documents to the harness (moving
  // them out of `run`); false, with the offending names on stderr, if
  // its shards share a metric name.
  bool record(ParRun& run);

  Harness& harness_;
  std::string tag_;
};

}  // namespace dlte::bench
