// Shared bench harness: every bench binary owns one Harness, routes its
// scenario metrics into harness.metrics(), and ends with
// `return harness.finish(exit_code);` — which writes BENCH_<name>.json
// next to the human-readable tables the bench already prints.
//
// Schema (DESIGN.md §8):
//   {
//     "bench": "<name>",
//     "git_rev": "<sha or 'unknown'>",
//     "sim_seconds": <total simulated seconds driven>,
//     "wall_seconds": <process wall time>,
//     "metrics": { counters/gauges/histograms from the registry },
//     "timings": { "<label>": <wall seconds>, ... }
//   }
//
// Determinism contract: everything under "metrics" derives from
// simulated time and seeded draws, so two same-seed runs produce a
// byte-identical "metrics" object (CI checks this). "wall_seconds" and
// "timings" are wall-clock and vary run to run — they are what the CI
// perf-regression gate compares against bench/baselines/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/series.h"
#include "obs/slo.h"
#include "obs/span.h"

namespace dlte::bench {

// Best-effort git revision: $DLTE_GIT_REV, else $GITHUB_SHA, else
// `git rev-parse HEAD`, else "unknown".
[[nodiscard]] std::string git_rev();

class Harness {
 public:
  explicit Harness(std::string name);

  // The bench name: BENCH_<name>.json, and the source of its documents.
  [[nodiscard]] const std::string& name() const { return name_; }

  // The registry scenario components attach to via set_metrics().
  [[nodiscard]] obs::MetricsRegistry& metrics() { return registry_; }

  // Opt-in causal tracing: `--trace-out=<file>` on the command line
  // creates a SpanTracer whose latency rollups land in metrics() as
  // `span.*` histograms; finish() writes the Chrome
  // trace-event JSON to the given path. Unknown flags are ignored, so a
  // bench just forwards its argc/argv.
  void parse_args(int argc, char** argv);
  void enable_tracing(std::string path);
  [[nodiscard]] bool tracing() const { return tracer_ != nullptr; }
  // nullptr unless tracing was enabled — scenario components take it via
  // their null-safe set_tracer().
  [[nodiscard]] obs::SpanTracer* tracer() { return tracer_.get(); }
  // Attach the simulated clock once the scenario's Simulator exists
  // (e.g. `[&sim] { return sim.now(); }`). No-op when not tracing.
  void set_trace_clock(obs::SpanTracer::NowFn now);

  // Opt-in time-series telemetry: `--series-out=<file>` creates a
  // TimeSeriesSampler + SloMonitor over metrics(); finish() writes the
  // dlte-series-v1 JSON there. `--series-interval-ms=<n>` tunes the
  // sampling cadence (default 500 ms of simulated time).
  // `--openmetrics-out=<file>` additionally writes the final registry
  // state as OpenMetrics text. The harness stays sim-free: the scenario
  // constructs a sim::TelemetryDriver next to its Simulator and points
  // it at sampler()/slo().
  void enable_series(std::string path);
  [[nodiscard]] bool series_enabled() const { return sampler_ != nullptr; }
  // nullptr unless series output was enabled.
  [[nodiscard]] obs::TimeSeriesSampler* sampler() { return sampler_.get(); }
  [[nodiscard]] obs::SloMonitor* slo() { return monitor_.get(); }

  // Parallel-runtime knobs for sharded benches: `--shards=<n>` and
  // `--par-threads=<n>` (0 = one thread per shard) select the partition,
  // `--par-artifacts=<prefix>` asks the bench to dump its merged
  // artifacts to <prefix>.{metrics.json,series.json,openmetrics.txt,
  // prof.json,audit.json} — what the CI par-determinism gate compares
  // across shard counts. parse_args() fills these; sharded benches read
  // them through bench::ParBench (par_bench.h).
  [[nodiscard]] std::size_t shards() const { return shards_; }
  [[nodiscard]] std::size_t par_threads() const { return par_threads_; }
  [[nodiscard]] const std::string& par_artifacts() const {
    return par_artifacts_;
  }

  // Self-profiling plane: `--prof-out=<file>` asks the bench to produce
  // a dlte-prof-v1 document; the bench builds a ProfileDoc (merged event
  // attribution + wall-clock shard profile) and hands it over via
  // set_profile(); finish() writes it. Optional companions:
  // `--prof-trace-out=` for Perfetto counter tracks and `--prof-folded=`
  // for flamegraph-folded text from the span tracer (requires
  // --trace-out).
  [[nodiscard]] bool profiling_requested() const {
    return !prof_path_.empty() || !prof_trace_path_.empty();
  }
  [[nodiscard]] const std::string& prof_path() const { return prof_path_; }
  void set_profile(obs::ProfileDoc doc);
  [[nodiscard]] bool has_profile() const { return profile_ != nullptr; }
  [[nodiscard]] const obs::ProfileDoc* profile() const {
    return profile_.get();
  }

  // Determinism audit plane: `--audit-out=<file>` asks the bench for a
  // dlte-audit-v1 document; the bench hands its runtime's AuditDoc over
  // via set_audit(); finish() writes it.
  [[nodiscard]] bool audit_requested() const { return !audit_path_.empty(); }
  [[nodiscard]] const std::string& audit_path() const { return audit_path_; }
  void set_audit(obs::AuditDoc doc);
  [[nodiscard]] bool has_audit() const { return audit_ != nullptr; }
  [[nodiscard]] const obs::AuditDoc* audit() const { return audit_.get(); }

  // Total simulated time this bench drove (summed across scenarios).
  void add_sim_seconds(double seconds) { sim_seconds_ += seconds; }

  // Record engine throughput: `events` dispatched over `wall_seconds` of
  // measured run time (summable across scenarios). The event count is
  // deterministic (partition-invariant for sharded runs) and lands as the
  // top-level "events_total"; the derived rate is wall-clock and lands in
  // timings as "events_per_sec" — the number the CI throughput gate
  // compares against bench/baselines/.
  void throughput(std::uint64_t events, double wall_seconds) {
    events_total_ += events;
    events_wall_s_ += wall_seconds;
    if (events_wall_s_ > 0.0) {
      timings_["events_per_sec"] =
          static_cast<double>(events_total_) / events_wall_s_;
    }
  }
  [[nodiscard]] std::uint64_t events_total() const { return events_total_; }

  // Record a named wall-clock timing (a non-deterministic section, e.g.
  // one microbenchmark's per-iteration time). Kept outside "metrics" so
  // the determinism check stays byte-exact.
  void timing(const std::string& name, double seconds) {
    timings_[name] = seconds;
  }

  // Conveniences for result-shaped values a bench wants in the JSON.
  void gauge(const std::string& name, double value) {
    registry_.gauge(name).set(value);
  }
  void counter(const std::string& name, std::uint64_t value) {
    registry_.counter(name).inc(value);
  }

  // Serialize and write BENCH_<name>.json into $DLTE_BENCH_DIR (or the
  // working directory), then pass `exit_code` through — benches end with
  // `return harness.finish(code);`. Returns 1 if the write failed and
  // `exit_code` was 0.
  [[nodiscard]] int finish(int exit_code = 0);

  // The full JSON document (what finish() writes). Exposed for tests.
  [[nodiscard]] std::string to_json() const;

 private:
  std::string name_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<obs::SpanTracer> tracer_;
  std::string trace_path_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::unique_ptr<obs::SloMonitor> monitor_;
  std::string series_path_;
  std::string openmetrics_path_;
  std::size_t shards_{0};
  std::size_t par_threads_{0};
  std::string par_artifacts_;
  std::string prof_path_;
  std::string prof_trace_path_;
  std::string prof_folded_path_;
  std::string audit_path_;
  std::unique_ptr<obs::ProfileDoc> profile_;
  std::unique_ptr<obs::AuditDoc> audit_;
  Duration series_interval_{Duration::millis(500)};
  double sim_seconds_{0.0};
  std::uint64_t events_total_{0};
  double events_wall_s_{0.0};
  std::map<std::string, double> timings_;
  std::chrono::steady_clock::time_point wall_start_;
};

}  // namespace dlte::bench
