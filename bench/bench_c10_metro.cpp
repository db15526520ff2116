// Experiment C10 — metro-scale dLTE on the engine hot path.
//
// The paper's economic argument (§1, §5) is that dLTE APs deploy like
// WiFi: thousands of cheap cells per metro instead of hundreds of towers.
// This bench holds the simulator to that scale: ~10k APs serving ~1M UEs
// run to completion in seconds, because the hot path spends events only
// where structure changes — attach waves in cohort batches, bulk traffic
// as flow trains (O(rate changes), not O(packets)), and a calendar queue
// that schedules/pops in O(1). The sweep runs the same scenario at 1, 2,
// and 4 shards, verifies IN PROCESS that every merged artifact is
// byte-identical and the event totals equal, and records the engine
// throughput (events/sec) the CI perf gate compares against
// bench/baselines/BENCH_c10_metro.json. With --shards=N it instead runs
// one configuration (par_bench.h), whose --artifacts=PREFIX documents
// the par-determinism gate compares.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/table.h"
#include "par/metro.h"
#include "par_bench.h"

namespace {
using namespace dlte;

struct C10Options {
  int aps{10000};
  int ues_per_ap{100};
  double horizon_s{8.0};
};

C10Options parse_options(int argc, char** argv) {
  C10Options opt;
  constexpr const char kAps[] = "--aps=";
  constexpr const char kUes[] = "--ues-per-ap=";
  constexpr const char kHorizon[] = "--horizon-s=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kAps, sizeof(kAps) - 1) == 0) {
      const long n = std::atol(argv[i] + sizeof(kAps) - 1);
      if (n > 0) opt.aps = static_cast<int>(n);
    } else if (std::strncmp(argv[i], kUes, sizeof(kUes) - 1) == 0) {
      const long n = std::atol(argv[i] + sizeof(kUes) - 1);
      if (n > 0) opt.ues_per_ap = static_cast<int>(n);
    } else if (std::strncmp(argv[i], kHorizon, sizeof(kHorizon) - 1) == 0) {
      const double s = std::atof(argv[i] + sizeof(kHorizon) - 1);
      if (s > 0.0) opt.horizon_s = s;
    }
  }
  return opt;
}

par::MetroConfig metro_config(const C10Options& opt, std::size_t shards,
                              std::size_t threads) {
  par::MetroConfig cfg;
  cfg.aps = opt.aps;
  cfg.ues_per_ap = opt.ues_per_ap;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.seed = 42;
  cfg.horizon = Duration::seconds(opt.horizon_s);
  // Always profile: the attribution counters are deterministic (the
  // in-process sweep byte-compares them across shard counts) and keeping
  // the hooks hot means the perf gate's throughput floor prices their
  // overhead on every CI run.
  cfg.profile = true;
  // Always audit for the same reason: the digest fold is on the execute
  // hot path, so the throughput floor prices it too. Engine sampling
  // rides alone (domain sampling stays off at 10k APs).
  cfg.audit = true;
  cfg.engine_sample_interval = Duration::millis(500);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  dlte::bench::Harness harness{"c10_metro"};
  harness.parse_args(argc, argv);
  const C10Options opt = parse_options(argc, argv);
  dlte::bench::ParBench par_bench{harness, "c10"};

  std::vector<par::MetroResult> results;
  const auto run = [&](std::size_t shards, std::size_t threads) {
    par::MetroScenario metro{metro_config(opt, shards, threads)};
    return par_bench.measure(metro.runtime(),
                             [&] { results.push_back(metro.run()); });
  };
  TextTable t{{"shards", "ues", "flows", "events", "Mev/s", "wall",
               "speedup", "identical"}};
  const auto report = [&](const dlte::bench::ParRun& out, bool identical,
                          double speedup) {
    const par::MetroResult& r = results.back();
    const std::string prefix = "c10.s" + std::to_string(out.shards) + ".";
    harness.counter(prefix + "ues_attached", r.ues_attached);
    harness.counter(prefix + "flows_completed", r.flows_completed);
    harness.counter(prefix + "reports_rx", r.reports_rx);
    harness.counter(prefix + "events", r.events_executed);
    t.row()
        .integer(static_cast<int>(out.shards))
        .integer(static_cast<int>(r.ues_attached))
        .integer(static_cast<int>(r.flows_completed))
        .integer(static_cast<int>(r.events_executed))
        .num(r.events_executed / out.wall_s / 1e6, 2)
        .num(out.wall_s * 1000.0, 1, "ms")
        .num(speedup, 2, "x")
        .add(identical ? "yes" : "NO");
  };

  if (par_bench.gate_mode()) {
    const int rc = par_bench.gate(run, report);
    t.print(std::cout);
    return harness.finish(rc);
  }

  print_bench_header(std::cout, "C10", "paper §1/§5, metro scale",
                     "a metro of cheap dLTE cells is cheap to simulate "
                     "too: ~1M UEs across ~10k APs in seconds, because "
                     "events track structure, not packets");
  const int rc = par_bench.sweep(run, report);
  t.print(std::cout);

  // Deterministic per-UE delivery check: every attached UE pulled its
  // configured volume.
  const par::MetroResult& base = results.front();
  const double bytes_per_ue =
      base.ues_attached == 0
          ? 0.0
          : static_cast<double>(base.bytes_delivered) /
                static_cast<double>(base.ues_attached);
  harness.gauge("c10.bytes_per_ue", bytes_per_ue);
  harness.gauge("c10.aps", static_cast<double>(opt.aps));

  std::cout << "\nEvery sharded run's merged metrics, series, OpenMetrics, "
               "event-attribution profile, AND merged audit digests are "
               "byte-compared against the 1-shard run in-process; event "
               "totals are partition-invariant by construction.\n"
            << "bytes_per_ue=" << bytes_per_ue
            << " (config: " << opt.aps << " APs x " << opt.ues_per_ap
            << " UEs)\n";
  return harness.finish(rc);
}
