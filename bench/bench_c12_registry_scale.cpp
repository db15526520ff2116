// Experiment C12 — the registry at planet scale (DESIGN.md §16).
//
// The paper's registry (§4.3) is "a lightweight open public license
// database" — lightweight must survive success. This bench holds the
// three registry pillars to millions of leases:
//
//   A. Spatial index: region queries against 1M grants through the
//      zone-bucketed index vs the seed's linear scan — the ≥10x gate.
//   B. Batched commits: the blockchain design's commit throughput as the
//      per-block record cap grows 1 → 64 at a fixed block interval — the
//      ≥4x gate, with registry.commits_per_block in the compared metrics.
//   C. Churn storm: RegistryPlaneScenario — ~1M leases kept alive by
//      heartbeat batches across the par runtime while one zone's
//      registrar dies for longer than the heartbeat grace. The sweep
//      runs 1/2/4 shards and byte-compares merged metrics, series
//      (with the churn SLO alert timeline), openmetrics, the
//      event-attribution profile, and the audit merged section IN
//      PROCESS. With --shards=N it runs only the storm at one
//      configuration (par_bench.h), whose --artifacts=PREFIX documents
//      the par-determinism and churn SLO gates read.
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/table.h"
#include "par/registry_plane.h"
#include "par_bench.h"
#include "spectrum/chain.h"
#include "spectrum/registry.h"

namespace {
using namespace dlte;

struct C12Options {
  // Section A: grant population for the region-query microbench.
  int spatial_grants{1'000'000};
  int spatial_probes{64};
  int linear_probes{8};  // The linear scan is ~100x slower; probe less.
  // Section B: offered commits per cap at a 1 s block interval.
  int batch_offered{2'000};
  double batch_horizon_s{40.0};
  // Section C: blocks × leases_per_block total leases.
  int blocks{1'024};
  int leases_per_block{1'024};
  double horizon_s{75.0};
};

C12Options parse_options(int argc, char** argv) {
  C12Options opt;
  const std::map<std::string, int*> int_flags{
      {"--spatial-grants=", &opt.spatial_grants},
      {"--batch-offered=", &opt.batch_offered},
      {"--blocks=", &opt.blocks},
      {"--leases-per-block=", &opt.leases_per_block},
  };
  constexpr const char kHorizon[] = "--horizon-s=";
  for (int i = 1; i < argc; ++i) {
    for (const auto& [prefix, dst] : int_flags) {
      if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
        const long n = std::atol(argv[i] + prefix.size());
        if (n > 0) *dst = static_cast<int>(n);
      }
    }
    if (std::strncmp(argv[i], kHorizon, sizeof(kHorizon) - 1) == 0) {
      const double s = std::atof(argv[i] + sizeof(kHorizon) - 1);
      if (s > 0.0) opt.horizon_s = s;
    }
  }
  return opt;
}

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---- Section A: spatial index vs linear scan --------------------------

struct SpatialResult {
  std::uint64_t grants{0};
  std::uint64_t matches{0};
  bool identical{true};
  double indexed_us_per_query{0.0};
  double linear_us_per_query{0.0};
};

SpatialResult run_spatial(const C12Options& opt) {
  sim::Simulator sim;
  spectrum::Registry reg{sim, spectrum::RegistryKind::kCentralizedSas};
  // Spread grants evenly over a 16×16 grid of 50 km zones (an 800 km
  // square — a metro region per zone) on 15 CBRS-style channels.
  // Deterministic placement, no RNG.
  const int n = opt.spatial_grants;
  const double extent_m = 16.0 * spectrum::Registry::kZoneSizeM;
  const int grid =
      static_cast<int>(std::sqrt(static_cast<double>(n))) + 1;
  for (int i = 0; i < n; ++i) {
    spectrum::GrantRequest req;
    req.ap = ApId{static_cast<std::uint32_t>(i + 1)};
    req.location = Position{(i % grid + 0.5) * (extent_m / grid),
                            (i / grid + 0.5) * (extent_m / grid)};
    req.center_frequency = Hertz::mhz(3550.0 + 10.0 * (i % 15));
    req.bandwidth = Hertz::mhz(10.0);
    req.operator_contact = "c12@bench";
    auto g = reg.grant_now(req);
    if (!g.ok()) std::abort();
  }

  // Bench-local seed baseline: the O(n) scan grants_near used to be,
  // with the per-band interference range precomputed exactly as the
  // registry memoizes it.
  std::map<std::int64_t, double> range_by_band;
  const auto& all = reg.grants();
  for (const auto& g : all) {
    const auto key = static_cast<std::int64_t>(g.center_frequency.hz());
    if (range_by_band.find(key) == range_by_band.end()) {
      range_by_band[key] = spectrum::interference_range_m(g);
    }
  }
  const auto linear_count = [&](Position p) {
    std::uint64_t count = 0;
    for (const auto& g : all) {
      const double r =
          range_by_band[static_cast<std::int64_t>(g.center_frequency.hz())];
      const double dx = g.location.x_m - p.x_m;
      const double dy = g.location.y_m - p.y_m;
      if (dx * dx + dy * dy <= r * r) ++count;
    }
    return count;
  };
  const auto probe = [&](int i) {
    return Position{(i * 37 % 100 + 0.5) * (extent_m / 100.0),
                    (i * 59 % 100 + 0.5) * (extent_m / 100.0)};
  };

  SpatialResult out;
  out.grants = static_cast<std::uint64_t>(n);
  // Correctness first: index and scan agree probe by probe.
  for (int i = 0; i < opt.linear_probes; ++i) {
    const Position p = probe(i);
    const std::uint64_t indexed = reg.count_grants_near(p);
    const std::uint64_t linear = linear_count(p);
    out.matches += indexed;
    if (indexed != linear) out.identical = false;
  }
  // Then the clocks.
  auto start = std::chrono::steady_clock::now();
  std::uint64_t sink = 0;
  for (int i = 0; i < opt.spatial_probes; ++i) {
    sink += reg.count_grants_near(probe(i));
  }
  out.indexed_us_per_query =
      wall_seconds_since(start) * 1e6 / opt.spatial_probes;
  start = std::chrono::steady_clock::now();
  for (int i = 0; i < opt.linear_probes; ++i) sink += linear_count(probe(i));
  out.linear_us_per_query =
      wall_seconds_since(start) * 1e6 / opt.linear_probes;
  if (sink == 0) std::abort();  // Keep the loops honest.
  return out;
}

// ---- Section B: batched commit scaling --------------------------------

std::uint64_t run_batch(const C12Options& opt, std::size_t cap,
                        obs::MetricsRegistry* metrics,
                        const std::string& prefix) {
  sim::Simulator sim;
  spectrum::SpectrumChain chain{sim, Duration::seconds(1.0)};
  chain.set_max_records_per_block(cap);
  spectrum::Registry reg{sim, spectrum::RegistryKind::kBlockchain};
  // attach_chain starts the chain and re-points its metrics at the
  // registry's (none here) — attach first, then claim the metrics.
  reg.attach_chain(&chain);
  if (metrics != nullptr) chain.set_metrics(metrics, prefix);
  std::uint64_t committed = 0;
  for (int i = 0; i < opt.batch_offered; ++i) {
    spectrum::GrantRequest req;
    req.ap = ApId{static_cast<std::uint32_t>(i + 1)};
    req.location = Position{(i % 64) * 2'000.0, (i / 64) * 2'000.0};
    req.center_frequency = Hertz::mhz(3550.0 + 10.0 * (i % 15));
    req.bandwidth = Hertz::mhz(10.0);
    req.operator_contact = "c12@bench";
    reg.request_grant(req, [&committed](Result<spectrum::SpectrumGrant> r) {
      if (r.ok()) ++committed;
    });
  }
  sim.run_until(sim.now() + Duration::seconds(opt.batch_horizon_s));
  return committed;
}

// ---- Section C: churn storm on the par runtime ------------------------

par::RegistryPlaneConfig storm_config(const C12Options& opt,
                                      std::size_t shards,
                                      std::size_t threads) {
  par::RegistryPlaneConfig cfg;
  cfg.blocks = opt.blocks;
  cfg.leases_per_block = opt.leases_per_block;
  cfg.zones_x = 8;
  cfg.zones_y = 8;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.horizon = Duration::seconds(opt.horizon_s);
  // Always profile and audit, like C9/C10: both merged sections are
  // deterministic and byte-compared across shard counts.
  cfg.profile = true;
  cfg.audit = true;
  return cfg;
}

void record_storm(dlte::bench::Harness& harness, const std::string& prefix,
                  const par::RegistryPlaneResult& r) {
  harness.counter(prefix + "grants_issued", r.grants_issued);
  harness.counter(prefix + "grant_failures", r.grant_failures);
  harness.counter(prefix + "heartbeats_ok", r.heartbeats_ok);
  harness.counter(prefix + "heartbeats_failed", r.heartbeats_failed);
  harness.counter(prefix + "grants_lapsed", r.grants_lapsed);
  harness.counter(prefix + "regrant_batches", r.regrant_batches);
  harness.counter(prefix + "queries_answered", r.queries_answered);
  harness.counter(prefix + "cache_hits", r.cache_hits);
  harness.counter(prefix + "cache_misses", r.cache_misses);
  harness.counter(prefix + "cache_stale_serves", r.cache_stale_serves);
  harness.counter(prefix + "cache_root_sheds", r.cache_root_sheds);
  harness.counter(prefix + "leases_held", r.leases_held);
  harness.counter(prefix + "alert_fired", r.outage_alert_fired ? 1 : 0);
  harness.counter(prefix + "alert_resolved", r.outage_alert_resolved ? 1 : 0);
  const double lookups = static_cast<double>(r.cache_hits + r.cache_misses +
                                             r.cache_root_sheds);
  harness.gauge(prefix + "cache_hit_ratio",
                lookups == 0.0 ? 0.0 : r.cache_hits / lookups);
}
}  // namespace

int main(int argc, char** argv) {
  dlte::bench::Harness harness{"c12_registry_scale"};
  harness.parse_args(argc, argv);
  const C12Options opt = parse_options(argc, argv);
  dlte::bench::ParBench par_bench{harness, "c12"};

  // Section C's scenario, shared by the sweep and gate mode.
  std::vector<par::RegistryPlaneResult> results;
  const auto run = [&](std::size_t shards, std::size_t threads) {
    par::RegistryPlaneScenario plane{storm_config(opt, shards, threads)};
    return par_bench.measure(
        plane.runtime(), [&] { results.push_back(plane.run()); },
        [&] { return plane.monitor(); });
  };
  TextTable storm_table{{"shards", "leases", "lapsed", "regrants", "hit%",
                         "events", "alert", "wall", "speedup", "identical"}};
  const auto report = [&](const dlte::bench::ParRun& out, bool identical,
                          double speedup) {
    const par::RegistryPlaneResult& r = results.back();
    const double lookups = static_cast<double>(r.cache_hits + r.cache_misses +
                                               r.cache_root_sheds);
    storm_table.row()
        .integer(static_cast<long long>(out.shards))
        .integer(static_cast<long long>(r.leases_held))
        .integer(static_cast<long long>(r.grants_lapsed))
        .integer(static_cast<long long>(r.regrant_batches))
        .num(lookups == 0.0 ? 0.0 : 100.0 * r.cache_hits / lookups, 1)
        .integer(static_cast<long long>(r.events_executed))
        .add(std::string{r.outage_alert_fired ? "fired" : "NO"} + "/" +
             (r.outage_alert_resolved ? "resolved" : "NO"))
        .num(out.wall_s, 2, "s")
        .num(speedup, 2, "x")
        .add(identical ? "yes" : "NO");
  };

  // Gate mode: the churn storm alone at one configuration.
  if (par_bench.gate_mode()) {
    const int rc = par_bench.gate(run, report);
    storm_table.print(std::cout);
    record_storm(harness, "c12.storm.", results.front());
    return harness.finish(rc);
  }

  print_bench_header(std::cout, "C12", "paper §4.3, registry scale",
                     "a lightweight open license database must stay "
                     "lightweight at millions of leases: indexed region "
                     "queries, batched chain commits, and a zone-outage "
                     "churn storm that the whole observability stack "
                     "rides through deterministically");

  bool ok = true;

  // ---- A: region queries at 1M grants -------------------------------
  const SpatialResult spatial = run_spatial(opt);
  const double speedup =
      spatial.indexed_us_per_query == 0.0
          ? 0.0
          : spatial.linear_us_per_query / spatial.indexed_us_per_query;
  harness.counter("c12.spatial.grants", spatial.grants);
  harness.counter("c12.spatial.matches", spatial.matches);
  harness.counter("c12.spatial.identical", spatial.identical ? 1 : 0);
  harness.timing("spatial_indexed_us_per_query",
                 spatial.indexed_us_per_query * 1e-6);
  harness.timing("spatial_linear_us_per_query",
                 spatial.linear_us_per_query * 1e-6);
  harness.timing("spatial_speedup", speedup);
  {
    TextTable t{{"grants", "indexed", "linear scan", "speedup", "agree"}};
    t.row()
        .integer(static_cast<long long>(spatial.grants))
        .num(spatial.indexed_us_per_query, 1, "us/q")
        .num(spatial.linear_us_per_query, 1, "us/q")
        .num(speedup, 1, "x")
        .add(spatial.identical ? "yes" : "NO");
    t.print(std::cout);
  }
  ok = ok && spatial.identical && speedup >= 10.0;
  if (speedup < 10.0) {
    std::cerr << "c12: spatial speedup " << speedup << "x < 10x gate\n";
  }

  // ---- B: batched commit scaling ------------------------------------
  std::cout << "\n";
  std::uint64_t committed_cap1 = 0;
  std::uint64_t committed_cap64 = 0;
  {
    TextTable t{{"records/block", "committed", "commit rate"}};
    for (const std::size_t cap : {1u, 4u, 16u, 64u}) {
      const std::string prefix = "c12.batch.cap" + std::to_string(cap) + ".";
      const std::uint64_t committed =
          run_batch(opt, cap, &harness.metrics(), prefix);
      harness.counter(prefix + "committed", committed);
      if (cap == 1) committed_cap1 = committed;
      if (cap == 64) committed_cap64 = committed;
      t.row()
          .integer(static_cast<long long>(cap))
          .integer(static_cast<long long>(committed))
          .num(committed / opt.batch_horizon_s, 1, "/s");
    }
    t.print(std::cout);
  }
  ok = ok && committed_cap64 >= 4 * committed_cap1 && committed_cap1 > 0;
  if (committed_cap64 < 4 * committed_cap1) {
    std::cerr << "c12: batch=64 commit throughput < 4x batch=1 gate\n";
  }

  // ---- C: churn storm across 1/2/4 shards ----------------------------
  std::cout << "\n";
  ok = par_bench.sweep(run, report) == 0 && ok;
  storm_table.print(std::cout);

  // The storm must complete its arc: every lease lapses zone-wide is
  // too strong (only the storm zone suffers), but the totals must show
  // a real outage and a full recovery, with the SLO timeline attached.
  const par::RegistryPlaneResult& r = results.front();
  record_storm(harness, "c12.storm.", r);
  const std::uint64_t quota =
      static_cast<std::uint64_t>(opt.blocks) *
      static_cast<std::uint64_t>(opt.leases_per_block);
  ok = ok && r.leases_held == quota && r.grants_lapsed > 0 &&
       r.regrant_batches > 0 && r.outage_alert_fired &&
       r.outage_alert_resolved && r.cache_hits > 0;
  std::cout << "\nleases=" << r.leases_held << "/" << quota
            << " lapsed=" << r.grants_lapsed << " regrant_batches="
            << r.regrant_batches << " cache hits=" << r.cache_hits
            << " misses=" << r.cache_misses << " stale=" <<
      r.cache_stale_serves
            << " sheds=" << r.cache_root_sheds
            << " alert=" << (r.outage_alert_fired ? "fired" : "NO") << "/"
            << (r.outage_alert_resolved ? "resolved" : "NO") << "\n"
            << "Merged metrics, series (with the churn SLO timeline), "
               "openmetrics, the event-attribution profile, and the audit "
               "merged section are byte-compared across 1/2/4 shards "
               "in-process.\n";
  if (!ok) std::cerr << "c12: a gate failed (see above)\n";
  return harness.finish(ok ? 0 : 1);
}
