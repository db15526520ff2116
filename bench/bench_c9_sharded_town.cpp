// Experiment C9 — sharded parallel simulation of the dLTE town.
//
// The paper's per-AP independence argument (§4.1) is also a systems
// property of the simulator: islands interact only over X2-over-Internet
// latencies, so the town partitions cleanly across cores. This is the
// one sharded attach-storm bench: C4's per-AP EPC stubs, each attaching
// its own UEs, hosted on the parallel runtime. It (a) sweeps shard
// counts over the same scenario and verifies IN PROCESS that every
// merged artifact — metrics, series, OpenMetrics, the
// event-attribution profile, and the merged audit digests — is
// byte-identical to the 1-shard run at every shard count, and (b) records
// the wall-time scaling in the (non-deterministic) "timings" section.
// With --shards=N [--par-threads=T] it instead runs one configuration
// (par_bench.h), whose --artifacts=PREFIX documents the CI
// par-determinism gate drives twice and compares.
// --audit-inject=<ms>:<shard> arms the deliberate exchange-reorder the
// CI localization self-test drives through tools/audit_diff.py.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/table.h"
#include "par/town.h"
#include "par_bench.h"

namespace {
using namespace dlte;

par::TownConfig town_config(std::size_t shards, std::size_t threads) {
  par::TownConfig cfg;
  // Sized so one window carries real event work (hundreds of attach
  // dialogues + X2 rounds): barrier cost amortizes and multi-core hosts
  // see the parallel win; the determinism check is size-independent.
  cfg.aps = 64;
  cfg.ues_per_ap = 32;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.seed = 42;
  cfg.horizon = Duration::seconds(2.0);
  cfg.report_interval = Duration::millis(50);
  cfg.backbone_delay = Duration::millis(5);
  cfg.sample_interval = Duration::millis(500);
  // Always profile: attribution is deterministic and byte-compared in
  // the sweep; the wall-clock shard profile rides out via --artifacts.
  cfg.profile = true;
  // Always audit: the merged digest section is deterministic and
  // byte-compared in the sweep, like the attribution profile.
  cfg.audit = true;
  return cfg;
}

// --audit-inject=<ms>:<shard> — arm the exchange-reorder test hook.
bool parse_audit_inject(int argc, char** argv, std::int64_t* ms,
                        std::size_t* shard) {
  constexpr const char kInject[] = "--audit-inject=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kInject, sizeof(kInject) - 1) != 0) continue;
    const char* spec = argv[i] + sizeof(kInject) - 1;
    char* colon = nullptr;
    *ms = std::strtoll(spec, &colon, 10);
    *shard = (colon != nullptr && *colon == ':')
                 ? static_cast<std::size_t>(std::atol(colon + 1))
                 : 0;
    return true;
  }
  return false;
}
}  // namespace

int main(int argc, char** argv) {
  dlte::bench::Harness harness{"c9_sharded_town"};
  harness.parse_args(argc, argv);
  dlte::bench::ParBench par_bench{harness, "c9"};
  std::int64_t inject_ms = -1;
  std::size_t inject_shard = 0;
  const bool injecting =
      par_bench.gate_mode() &&
      parse_audit_inject(argc, argv, &inject_ms, &inject_shard);

  std::vector<par::TownResult> results;
  const auto run = [&](std::size_t shards, std::size_t threads) {
    par::ShardedTown town{town_config(shards, threads)};
    if (injecting) {
      town.runtime().inject_exchange_reorder(
          TimePoint{} + Duration::millis(inject_ms), inject_shard);
    }
    return par_bench.measure(town.runtime(),
                             [&] { results.push_back(town.run()); });
  };
  TextTable t{{"shards", "windows", "x-shard msgs", "attaches", "wall",
               "speedup", "identical"}};
  const auto report = [&](const dlte::bench::ParRun& out, bool identical,
                          double speedup) {
    const par::TownResult& r = results.back();
    const std::string prefix = "c9.s" + std::to_string(out.shards) + ".";
    harness.counter(prefix + "attaches", r.attaches_completed);
    harness.counter(prefix + "x2_rx", r.x2_reports_rx);
    t.row()
        .integer(static_cast<int>(out.shards))
        .integer(static_cast<int>(r.windows))
        .integer(static_cast<int>(r.messages))
        .integer(static_cast<int>(r.attaches_completed))
        .num(out.wall_s * 1000.0, 1, "ms")
        .num(speedup, 2, "x")
        .add(identical ? "yes" : "NO");
  };

  if (par_bench.gate_mode()) {
    const int rc = par_bench.gate(run, report);
    t.print(std::cout);
    if (injecting) std::cout << "AUDIT-INJECT armed\n";
    return harness.finish(rc);
  }

  print_bench_header(std::cout, "C9", "paper §4.1, sharded runtime",
                     "the per-AP independence that scales dLTE cores also "
                     "shards the simulation; a parallel run is "
                     "byte-identical to the sequential one");
  const int rc = par_bench.sweep(run, report);
  t.print(std::cout);
  std::cout << "\nDeterminism: every sharded run's merged artifacts — "
               "metrics, series, OpenMetrics, the event-attribution "
               "profile, AND the merged audit digests — are byte-compared "
               "against the 1-shard run in-process.\n"
               "Speedup is wall-clock and machine-dependent (single-core "
               "hosts show ~1.0x; the scaling claim is checked on "
               "multi-core CI).\n";
  return harness.finish(rc);
}
