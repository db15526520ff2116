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
//     "peak_rss_mb": <process peak resident set so far, MiB>,
//     "metrics": { counters/gauges/histograms from the registry },
//     "timings": { "<label>": <wall seconds>, ... }
//   }
//
// Determinism contract: everything under "metrics" derives from
// simulated time and seeded draws, so two same-seed runs produce a
// byte-identical "metrics" object (CI checks this). "wall_seconds" and
// "timings" are wall-clock and vary run to run — they are what the CI
// perf-regression gate compares against bench/baselines/.
// "peak_rss_mb" (getrusage ru_maxrss) varies with the host too; it is
// recorded, not gated.
//
// Observability documents: with --artifacts=<prefix>, finish() writes
// each document the bench produced, and only those, as <prefix>.<doc>:
//   metrics.json     merged metrics snapshot            sharded benches
//   series.json      dlte-series-v1: merged (sharded), or the harness
//                    sampler's once it took a sample    when produced
//   openmetrics.txt  the merged registry (sharded) or metrics(), as
//                    OpenMetrics text                   every bench
//   prof.json        dlte-prof-v1 profile               sharded benches
//   prof-trace.json  the profile as Perfetto counters   sharded benches
//   audit.json       dlte-audit-v1 digests              sharded benches
//   folded.txt       flamegraph-folded span self time   with --trace-out
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

  // The command line: exactly four flags, each `--flag=<value>`. Unknown
  // flags are ignored, so a bench forwards its argc/argv and parses its
  // own scenario flags beside them.
  //   --trace-out=<file>    causal span tracing: a SpanTracer whose
  //                         latency rollups land in metrics() as span.*
  //                         histograms; finish() writes the Chrome
  //                         trace-event JSON to <file>.
  //   --shards=<n>          sharded benches run gate mode: one run at n
  //                         shards instead of the 1/2/4 sweep.
  //   --par-threads=<n>     gate mode's worker threads (0 = one per shard).
  //   --artifacts=<prefix>  finish() writes every observability document
  //                         the bench produced as <prefix>.<document>
  //                         (DESIGN.md §8 lists them).
  void parse_args(int argc, char** argv);

  [[nodiscard]] bool tracing() const { return tracer_ != nullptr; }
  // nullptr unless tracing was enabled — scenario components take it via
  // their null-safe set_tracer().
  [[nodiscard]] obs::SpanTracer* tracer() { return tracer_.get(); }
  // Attach the simulated clock once the scenario's Simulator exists
  // (e.g. `[&sim] { return sim.now(); }`). No-op when not tracing.
  void set_trace_clock(obs::SpanTracer::NowFn now);

  // Time-series telemetry, under --artifacts only: the first call creates
  // a TimeSeriesSampler (one sample per 500 ms of simulated time) and an
  // SloMonitor over metrics(); without --artifacts both return nullptr.
  // The harness stays sim-free: the scenario constructs a
  // sim::TelemetryDriver next to its Simulator and points it at
  // sampler()/slo(). <prefix>.series.json is written once the sampler
  // has taken a sample.
  [[nodiscard]] obs::TimeSeriesSampler* sampler();
  [[nodiscard]] obs::SloMonitor* slo();

  [[nodiscard]] std::size_t shards() const { return shards_; }
  [[nodiscard]] std::size_t par_threads() const { return par_threads_; }

  // A document the bench rendered itself (the sharded benches' merged
  // metrics.json, series.json and openmetrics.txt); finish() writes it
  // as <prefix>.<doc>, in place of the harness's own rendering of that
  // document. A later call replaces an earlier one.
  void set_document(const std::string& doc, std::string text);

  // The self-profiling and determinism-audit documents of a sharded run
  // (merged event attribution + wall-clock shard profile; the
  // dlte-audit-v1 digests). finish() renders them as prof.json,
  // prof-trace.json and audit.json.
  void set_profile(obs::ProfileDoc doc);
  [[nodiscard]] bool has_profile() const { return profile_ != nullptr; }
  [[nodiscard]] const obs::ProfileDoc* profile() const {
    return profile_.get();
  }
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

  // Write every document in one pass, then pass `exit_code` through —
  // benches end with `return harness.finish(code);`:
  //   --trace-out=<file>  the span trace;
  //   --artifacts=P       P.<doc> for each document the bench produced;
  //   always              BENCH_<name>.json into $DLTE_BENCH_DIR (or the
  //                       working directory).
  // Returns 1 (when `exit_code` was 0) if a write failed or --trace-out
  // was given to a bench that recorded no span.
  [[nodiscard]] int finish(int exit_code = 0);

  // The full JSON document (what finish() writes). Exposed for tests.
  [[nodiscard]] std::string to_json() const;

 private:
  std::string name_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<obs::SpanTracer> tracer_;
  std::string trace_path_;
  std::size_t shards_{0};
  std::size_t par_threads_{0};
  std::string artifacts_;
  std::unique_ptr<obs::TimeSeriesSampler> sampler_;
  std::unique_ptr<obs::SloMonitor> monitor_;
  std::unique_ptr<obs::ProfileDoc> profile_;
  std::unique_ptr<obs::AuditDoc> audit_;
  // Document name ("metrics.json", ...) -> rendered text.
  std::map<std::string, std::string> documents_;
  double sim_seconds_{0.0};
  std::uint64_t events_total_{0};
  double events_wall_s_{0.0};
  std::map<std::string, double> timings_;
  std::chrono::steady_clock::time_point wall_start_;
};

}  // namespace dlte::bench
