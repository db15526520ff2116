#include "bench_harness.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/audit_export.h"
#include "obs/json.h"
#include "obs/merge.h"
#include "obs/openmetrics.h"
#include "obs/prof_export.h"
#include "obs/snapshot.h"
#include "obs/text_file.h"
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

namespace {

// The process's peak resident set so far, in MiB (0 if unknown).
double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

}  // namespace

Harness::Harness(std::string name)
    : name_(std::move(name)),
      wall_start_(std::chrono::steady_clock::now()) {}

void Harness::parse_args(int argc, char** argv) {
  // The text after `flag` ("--name=") when `arg` starts with it, else null.
  const auto value = [](const char* arg, std::string_view flag) {
    return std::string_view{arg}.substr(0, flag.size()) == flag
               ? arg + flag.size()
               : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* v = value(argv[i], "--trace-out=")) {
      trace_path_ = v;
    } else if (const char* v = value(argv[i], "--shards=")) {
      const long n = std::atol(v);
      if (n > 0) shards_ = static_cast<std::size_t>(n);
    } else if (const char* v = value(argv[i], "--par-threads=")) {
      const long n = std::atol(v);
      if (n >= 0) par_threads_ = static_cast<std::size_t>(n);
    } else if (const char* v = value(argv[i], "--artifacts=")) {
      artifacts_ = v;
    }
  }
  if (!trace_path_.empty() && tracer_ == nullptr) {
    // No clock yet — the bench attaches its Simulator's via
    // set_trace_clock(). Latency rollups land in the shared registry.
    tracer_ = std::make_unique<obs::SpanTracer>();
    tracer_->set_metrics(&registry_);
  }
}

obs::TimeSeriesSampler* Harness::sampler() {
  if (artifacts_.empty()) return nullptr;
  if (sampler_ == nullptr) {
    obs::SamplerConfig config;
    config.interval = Duration::millis(500);
    sampler_ = std::make_unique<obs::TimeSeriesSampler>(registry_, config);
    monitor_ = std::make_unique<obs::SloMonitor>(registry_);
    // Alert state rolls back into the same registry, so the sampler
    // picks up slo.* and health.* series automatically.
    monitor_->set_metrics(&registry_);
    if (tracer_ != nullptr) monitor_->set_tracer(tracer_.get());
  }
  return sampler_.get();
}

obs::SloMonitor* Harness::slo() {
  return sampler() == nullptr ? nullptr : monitor_.get();
}

void Harness::set_document(const std::string& doc, std::string text) {
  documents_[doc] = std::move(text);
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
  // Wall-clock-like (host dependent), so outside `metrics` and ungated.
  w.key("peak_rss_mb").value(peak_rss_mb());
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
  const auto fail = [&exit_code](const std::string& why) {
    std::cerr << "bench_harness: " << why << "\n";
    if (exit_code == 0) exit_code = 1;
  };
  // (path, text) of every file this run writes, in write order.
  std::vector<std::pair<std::string, std::string>> files;
  const bool traced = tracer_ != nullptr && !tracer_->spans().empty();
  if (tracer_ != nullptr && !traced) {
    fail("--trace-out given but " + name_ +
         " recorded no span (it has no span source); no trace written");
  } else if (traced) {
    files.emplace_back(trace_path_,
                       obs::ChromeTraceExporter::to_json(*tracer_) + "\n");
  }
  if (!artifacts_.empty()) {
    // The harness's own renderings fill only the documents the bench
    // did not set itself (emplace never overwrites).
    if (sampler_ != nullptr && sampler_->samples() > 0) {
      documents_.emplace("series.json",
                         obs::merged_series_json({sampler_.get()}, name_,
                                                 monitor_.get()) +
                             "\n");
    }
    documents_.emplace("openmetrics.txt",
                       obs::OpenMetricsExporter::render(registry_));
    if (profile_ != nullptr) {
      documents_.emplace("prof.json",
                         obs::ProfExporter::to_json(*profile_, name_) + "\n");
      documents_.emplace(
          "prof-trace.json",
          obs::ProfExporter::to_counter_trace(*profile_, name_) + "\n");
    }
    if (audit_ != nullptr) {
      documents_.emplace("audit.json",
                         obs::AuditExporter::to_json(*audit_, name_) + "\n");
    }
    if (traced) {
      documents_.emplace("folded.txt",
                         obs::ProfExporter::to_collapsed(*tracer_));
    }
    for (const auto& [doc, text] : documents_) {
      files.emplace_back(artifacts_ + "." + doc, text);
    }
  }
  std::string dir = ".";
  if (const char* env = std::getenv("DLTE_BENCH_DIR")) dir = env;
  files.emplace_back(dir + "/BENCH_" + name_ + ".json", to_json() + "\n");
  std::cout << "\n";
  for (const auto& [path, text] : files) {
    if (obs::write_text_file(path, text)) {
      std::cout << "[wrote] " << path << "\n";
    } else {
      fail("failed to write " + path);
    }
  }
  return exit_code;
}

}  // namespace dlte::bench
