#include "bench_harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "obs/audit_export.h"
#include "obs/json.h"
#include "obs/openmetrics.h"
#include "obs/prof_export.h"
#include "obs/series_export.h"
#include "obs/snapshot.h"
#include "obs/trace_export.h"

namespace dlte::bench {

std::string git_rev() {
  if (const char* rev = std::getenv("DLTE_GIT_REV")) return rev;
  if (const char* sha = std::getenv("GITHUB_SHA")) return sha;
  std::string out;
  if (FILE* pipe = popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof(buf), pipe) != nullptr) out = buf;
    pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

Harness::Harness(std::string name)
    : name_(std::move(name)),
      wall_start_(std::chrono::steady_clock::now()) {}

void Harness::enable_tracing(std::string path) {
  trace_path_ = std::move(path);
  if (tracer_ == nullptr) {
    // No clock yet — the bench attaches its Simulator's via
    // set_trace_clock(). Latency rollups land in the shared registry.
    tracer_ = std::make_unique<obs::SpanTracer>();
    tracer_->set_metrics(&registry_);
  }
}

void Harness::enable_series(std::string path) {
  series_path_ = std::move(path);
  if (sampler_ == nullptr) {
    obs::SamplerConfig config;
    config.interval = series_interval_;
    sampler_ = std::make_unique<obs::TimeSeriesSampler>(registry_, config);
    monitor_ = std::make_unique<obs::SloMonitor>(registry_);
    // Alert state rolls back into the same registry, so the sampler
    // picks up slo.* and health.* series automatically.
    monitor_->set_metrics(&registry_);
    if (tracer_ != nullptr) monitor_->set_tracer(tracer_.get());
  }
}

void Harness::parse_args(int argc, char** argv) {
  constexpr const char kFlag[] = "--trace-out=";
  constexpr const char kSeries[] = "--series-out=";
  constexpr const char kInterval[] = "--series-interval-ms=";
  constexpr const char kOpenMetrics[] = "--openmetrics-out=";
  constexpr const char kShards[] = "--shards=";
  constexpr const char kParThreads[] = "--par-threads=";
  constexpr const char kParArtifacts[] = "--par-artifacts=";
  constexpr const char kProfOut[] = "--prof-out=";
  constexpr const char kProfTrace[] = "--prof-trace-out=";
  constexpr const char kProfFolded[] = "--prof-folded=";
  constexpr const char kAuditOut[] = "--audit-out=";
  // Interval first: enable_series latches it into the sampler.
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kInterval, sizeof(kInterval) - 1) == 0) {
      const double ms = std::atof(argv[i] + sizeof(kInterval) - 1);
      if (ms > 0.0) series_interval_ = Duration::seconds(ms / 1000.0);
    }
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      enable_tracing(argv[i] + sizeof(kFlag) - 1);
    } else if (std::strncmp(argv[i], kSeries, sizeof(kSeries) - 1) == 0) {
      enable_series(argv[i] + sizeof(kSeries) - 1);
    } else if (std::strncmp(argv[i], kOpenMetrics,
                            sizeof(kOpenMetrics) - 1) == 0) {
      openmetrics_path_ = argv[i] + sizeof(kOpenMetrics) - 1;
    } else if (std::strncmp(argv[i], kShards, sizeof(kShards) - 1) == 0) {
      const long n = std::atol(argv[i] + sizeof(kShards) - 1);
      if (n > 0) shards_ = static_cast<std::size_t>(n);
    } else if (std::strncmp(argv[i], kParThreads,
                            sizeof(kParThreads) - 1) == 0) {
      const long n = std::atol(argv[i] + sizeof(kParThreads) - 1);
      if (n >= 0) par_threads_ = static_cast<std::size_t>(n);
    } else if (std::strncmp(argv[i], kParArtifacts,
                            sizeof(kParArtifacts) - 1) == 0) {
      par_artifacts_ = argv[i] + sizeof(kParArtifacts) - 1;
    } else if (std::strncmp(argv[i], kProfOut, sizeof(kProfOut) - 1) == 0) {
      prof_path_ = argv[i] + sizeof(kProfOut) - 1;
    } else if (std::strncmp(argv[i], kProfTrace,
                            sizeof(kProfTrace) - 1) == 0) {
      prof_trace_path_ = argv[i] + sizeof(kProfTrace) - 1;
    } else if (std::strncmp(argv[i], kProfFolded,
                            sizeof(kProfFolded) - 1) == 0) {
      prof_folded_path_ = argv[i] + sizeof(kProfFolded) - 1;
    } else if (std::strncmp(argv[i], kAuditOut, sizeof(kAuditOut) - 1) == 0) {
      audit_path_ = argv[i] + sizeof(kAuditOut) - 1;
    }
  }
}

void Harness::set_profile(obs::ProfileDoc doc) {
  profile_ = std::make_unique<obs::ProfileDoc>(std::move(doc));
}

void Harness::set_audit(obs::AuditDoc doc) {
  audit_ = std::make_unique<obs::AuditDoc>(std::move(doc));
}

void Harness::set_trace_clock(obs::SpanTracer::NowFn now) {
  if (tracer_ != nullptr) tracer_->set_clock(std::move(now));
}

std::string Harness::to_json() const {
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start_)
          .count();
  obs::JsonWriter w;
  w.begin_object();
  w.key("bench").value(name_);
  w.key("git_rev").value(git_rev());
  w.key("sim_seconds").value(sim_seconds_);
  w.key("wall_seconds").value(wall_seconds);
  // Only when the bench recorded throughput: keeps the schema of benches
  // that never call throughput() unchanged.
  if (events_total_ > 0) w.key("events_total").value(events_total_);
  // Raw string splice: the snapshot serializes itself (already an
  // object, already sorted and byte-stable).
  w.key("metrics");
  std::string doc = w.str();
  doc += obs::MetricsSnapshot{registry_}.to_json();
  obs::JsonWriter t;
  t.begin_object();
  for (const auto& [name, seconds] : timings_) t.key(name).value(seconds);
  t.end_object();
  doc += ",\"timings\":";
  doc += t.str();
  doc += "}";
  return doc;
}

int Harness::finish(int exit_code) {
  if (tracer_ != nullptr && !trace_path_.empty()) {
    if (obs::ChromeTraceExporter::write_file(*tracer_, trace_path_)) {
      std::cout << "\n[trace json] " << trace_path_ << "\n";
    } else {
      std::cerr << "bench_harness: failed to write " << trace_path_ << "\n";
      if (exit_code == 0) exit_code = 1;
    }
  }
  if (sampler_ != nullptr && !series_path_.empty()) {
    if (obs::SeriesExporter::write_file(*sampler_, monitor_.get(), name_,
                                        series_path_)) {
      std::cout << "\n[series json] " << series_path_ << "\n";
    } else {
      std::cerr << "bench_harness: failed to write " << series_path_ << "\n";
      if (exit_code == 0) exit_code = 1;
    }
  }
  if (!openmetrics_path_.empty()) {
    if (obs::OpenMetricsExporter::write_file(registry_, openmetrics_path_)) {
      std::cout << "[openmetrics] " << openmetrics_path_ << "\n";
    } else {
      std::cerr << "bench_harness: failed to write " << openmetrics_path_
                << "\n";
      if (exit_code == 0) exit_code = 1;
    }
  }
  if (!prof_path_.empty() || !prof_trace_path_.empty()) {
    if (profile_ == nullptr) {
      std::cerr << "bench_harness: profiling output requested but the bench "
                   "never called set_profile()\n";
      if (exit_code == 0) exit_code = 1;
    } else {
      if (!prof_path_.empty()) {
        if (obs::ProfExporter::write_file(*profile_, name_, prof_path_)) {
          std::cout << "[prof json] " << prof_path_ << "\n";
        } else {
          std::cerr << "bench_harness: failed to write " << prof_path_
                    << "\n";
          if (exit_code == 0) exit_code = 1;
        }
      }
      if (!prof_trace_path_.empty()) {
        if (obs::ProfExporter::write_counter_trace(*profile_, name_,
                                                   prof_trace_path_)) {
          std::cout << "[prof trace] " << prof_trace_path_ << "\n";
        } else {
          std::cerr << "bench_harness: failed to write " << prof_trace_path_
                    << "\n";
          if (exit_code == 0) exit_code = 1;
        }
      }
    }
  }
  if (!audit_path_.empty()) {
    if (audit_ == nullptr) {
      std::cerr << "bench_harness: audit output requested but the bench "
                   "never called set_audit()\n";
      if (exit_code == 0) exit_code = 1;
    } else if (obs::AuditExporter::write_file(*audit_, name_, audit_path_)) {
      std::cout << "[audit json] " << audit_path_ << "\n";
    } else {
      std::cerr << "bench_harness: failed to write " << audit_path_ << "\n";
      if (exit_code == 0) exit_code = 1;
    }
  }
  if (!prof_folded_path_.empty()) {
    if (tracer_ == nullptr) {
      std::cerr << "bench_harness: --prof-folded needs --trace-out (no span "
                   "tracer active)\n";
      if (exit_code == 0) exit_code = 1;
    } else if (obs::ProfExporter::write_collapsed(*tracer_,
                                                  prof_folded_path_)) {
      std::cout << "[prof folded] " << prof_folded_path_ << "\n";
    } else {
      std::cerr << "bench_harness: failed to write " << prof_folded_path_
                << "\n";
      if (exit_code == 0) exit_code = 1;
    }
  }
  std::string dir = ".";
  if (const char* env = std::getenv("DLTE_BENCH_DIR")) dir = env;
  const std::string path = dir + "/BENCH_" + name_ + ".json";
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << to_json() << "\n";
  if (!out) {
    std::cerr << "bench_harness: failed to write " << path << "\n";
    return exit_code == 0 ? 1 : exit_code;
  }
  std::cout << "\n[bench json] " << path << "\n";
  return exit_code;
}

}  // namespace dlte::bench
