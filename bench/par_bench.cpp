#include "par_bench.h"

#include <chrono>
#include <iostream>
#include <utility>

#include "obs/audit_export.h"
#include "obs/prof_export.h"

namespace dlte::bench {

namespace {

// Every merged artifact plus the event total: all partition-invariant.
bool same_artifacts(const ParRun& a, const ParRun& b) {
  return a.metrics == b.metrics && a.series == b.series &&
         a.openmetrics == b.openmetrics && a.prof == b.prof &&
         a.audit == b.audit && a.events == b.events;
}

}  // namespace

ParBench::ParBench(Harness& harness, std::string tag)
    : harness_(harness), tag_(std::move(tag)) {}

ParRun ParBench::measure(
    par::ShardedSimulator& runtime, const std::function<void()>& run,
    const std::function<const obs::SloMonitor*()>& monitor) {
  ParRun out;
  out.shards = runtime.shard_count();
  runtime.set_metrics(&harness_.metrics(),
                      tag_ + ".s" + std::to_string(out.shards) + ".");
  const auto start = std::chrono::steady_clock::now();
  run();
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
  out.sim_seconds = runtime.now().to_seconds();
  out.events = runtime.events_executed();
  out.metrics = runtime.merged_metrics_json();
  out.series = runtime.merged_series_json(harness_.name(),
                                          monitor ? monitor() : nullptr);
  out.openmetrics = runtime.merged_openmetrics_text();
  runtime.merged_profiler_into(out.profile.attribution);
  out.profile.shard_profile = runtime.profile();
  out.prof = obs::ProfExporter::event_attribution_json(out.profile.attribution);
  out.audit_doc = runtime.audit_doc();
  out.audit = obs::AuditExporter::merged_json(out.audit_doc);
  out.shared_metrics = runtime.shared_metric_names();
  return out;
}

bool ParBench::record(ParRun& run) {
  harness_.add_sim_seconds(run.sim_seconds);
  harness_.timing("run_s" + std::to_string(run.shards), run.wall_s);
  harness_.throughput(run.events, run.wall_s);
  // Last run wins: the sweep's documents carry the widest partition's
  // shard profile (the interesting load matrix); everything compared is
  // identical across the sweep's runs.
  harness_.set_document("metrics.json", std::move(run.metrics));
  harness_.set_document("series.json", std::move(run.series));
  harness_.set_document("openmetrics.txt", std::move(run.openmetrics));
  harness_.set_profile(std::move(run.profile));
  harness_.set_audit(std::move(run.audit_doc));
  if (run.shared_metrics.empty()) return true;
  std::cerr << tag_ << ": " << run.shared_metrics.size()
            << " metric name(s) written from more than one shard at "
            << run.shards << " shards (DESIGN.md §16):";
  for (const std::string& name : run.shared_metrics) std::cerr << ' ' << name;
  std::cerr << "\n";
  return false;
}

int ParBench::gate(const RunFn& run, const ReportFn& report) {
  ParRun out = run(harness_.shards(), harness_.par_threads());
  report(out, true, 1.0);
  const bool ok = record(out);
  std::cout << tag_ << " gate mode: shards=" << harness_.shards() << "\n";
  return ok ? 0 : 1;
}

int ParBench::sweep(const RunFn& run, const ReportFn& report) {
  ParRun base;
  bool all_identical = true;
  bool partitioned = true;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    ParRun out = run(shards, shards);
    bool identical = true;
    double speedup = 1.0;
    if (shards == 1) {
      // prof.* counters are deterministic, so the 1-shard attribution
      // belongs in the compared "metrics".
      out.profile.attribution.export_metrics(harness_.metrics());
      base = out;
    } else {
      identical = same_artifacts(out, base);
      all_identical = all_identical && identical;
      speedup = base.wall_s / out.wall_s;
      harness_.timing("speedup_s" + std::to_string(shards), speedup);
    }
    harness_.counter(tag_ + ".s" + std::to_string(shards) + ".identical",
                     identical ? 1 : 0);
    report(out, identical, speedup);
    partitioned = record(out) && partitioned;
  }
  if (!all_identical) {
    std::cerr << tag_ << ": sharded artifacts diverged from the 1-shard run\n";
  }
  return all_identical && partitioned ? 0 : 1;
}

}  // namespace dlte::bench
