#include "par_bench.h"

#include <chrono>
#include <fstream>
#include <iostream>
#include <utility>

#include "obs/audit_export.h"
#include "obs/prof_export.h"

namespace dlte::bench {

namespace {

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream f{path, std::ios::binary | std::ios::trunc};
  f << text;
  return static_cast<bool>(f);
}

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
  return out;
}

void ParBench::record(ParRun& run) {
  harness_.add_sim_seconds(run.sim_seconds);
  harness_.timing("run_s" + std::to_string(run.shards), run.wall_s);
  harness_.throughput(run.events, run.wall_s);
  // Last run wins: --prof-out carries the widest partition's shard
  // profile (the interesting load matrix) with identical attribution.
  harness_.set_profile(std::move(run.profile));
  harness_.set_audit(std::move(run.audit_doc));
}

int ParBench::gate(const RunFn& run, const ReportFn& report) {
  const std::size_t shards = harness_.shards() == 0 ? 1 : harness_.shards();
  ParRun out = run(shards, harness_.par_threads());
  const std::string& prefix = harness_.par_artifacts();
  bool ok = write_text(prefix + ".metrics.json", out.metrics);
  ok = write_text(prefix + ".series.json", out.series) && ok;
  ok = write_text(prefix + ".openmetrics.txt", out.openmetrics) && ok;
  ok = write_text(prefix + ".prof.json", out.prof + "\n") && ok;
  // Full document (merged + shards + ledger): same-config double runs
  // byte-compare it whole; cross-shard-count compares go through
  // audit_diff.py --merged-only.
  ok = write_text(prefix + ".audit.json",
                  obs::AuditExporter::to_json(out.audit_doc, harness_.name()) +
                      "\n") &&
       ok;
  report(out, true, 1.0);
  record(out);
  std::cout << tag_ << " gate mode: shards=" << shards
            << " artifacts=" << prefix << ".*\n";
  if (!ok) std::cerr << tag_ << ": failed to write artifacts\n";
  return ok ? 0 : 1;
}

int ParBench::sweep(const RunFn& run, const ReportFn& report) {
  ParRun base;
  bool all_identical = true;
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
    record(out);
  }
  if (!all_identical) {
    std::cerr << tag_ << ": sharded artifacts diverged from the 1-shard run\n";
  }
  return all_identical ? 0 : 1;
}

}  // namespace dlte::bench
