// MetroScenario: the city-scale workload for the parallel runtime.
//
// Where ShardedTown models a street of full protocol islands (real EPC
// stubs, S1/X2 codecs, per-packet networks), MetroScenario asks the
// opposite question: how many dLTE APs can the engine carry? It scales
// the paper's deployment to a metro — ~10k APs, ~1M UEs — by spending
// events only where the answer needs them: every AP's UE population is
// one workload::UeCohort (attach waves in batches, bulk traffic as
// transport::FlowTrain aggregates), and the inter-AP coordination plane
// is one periodic load report to the ring neighbour through post().
//
// Observability is district-granular: APs group into contiguous
// districts, and all metrics live under "d<k>." prefixes. Districts —
// not APs — are the unit the block partition distributes over shards, so
// a district's registry (histograms included) always lives in exactly
// one shard and the obs::merge_registry bit-exactness contract holds at
// any shard count. The merged snapshot is therefore byte-identical for
// 1, 2, or 4 shards — the property bench_c10_metro double-runs and the
// perf CI compares.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "par/sharded_sim.h"

namespace dlte::par {

struct MetroConfig {
  int aps{10000};
  int ues_per_ap{100};
  // Metric granularity: contiguous AP blocks, "d<k>." prefixes. Also the
  // unit of partitioning (districts are block-partitioned over shards).
  int districts{100};
  std::size_t shards{1};
  std::size_t threads{0};  // 0 → one thread per shard.
  std::uint64_t seed{42};
  Duration horizon{Duration::seconds(8.0)};
  // UEs attach in stratified batches across this window.
  Duration attach_window{Duration::seconds(4.0)};
  int attach_batches{10};
  // Bulk volume each UE pulls once attached (0 disables traffic).
  std::uint64_t flow_bytes_per_ue{200 * 1024};
  // Ring load-report cadence per AP (the cross-shard traffic).
  Duration report_interval{Duration::millis(500)};
  // One-way AP↔AP backbone latency — the runtime lookahead.
  Duration backbone_delay{Duration::millis(5)};
  // Telemetry cadence for the merged series; zero (default) disables —
  // at 10k APs the snapshot, not the series, is the compared artifact.
  Duration sample_interval{};
  // Enable the runtime self-profiling plane (DESIGN.md §14).
  bool profile{false};
  // Enable the determinism audit plane (DESIGN.md §15).
  bool audit{false};
  Duration audit_window{Duration::millis(250)};
  // Engine-sampler cadence (sim.queue_depth in the merged series); zero
  // falls back to sample_interval — set this alone to get the engine
  // series without paying for 10k-AP domain sampling.
  Duration engine_sample_interval{};
};

struct MetroResult {
  std::uint64_t ues_attached{0};
  std::uint64_t bytes_delivered{0};
  std::uint64_t flows_completed{0};
  std::uint64_t reports_rx{0};
  std::uint64_t windows{0};
  std::uint64_t messages{0};
  std::uint64_t events_executed{0};
  double sim_seconds{0.0};
};

class MetroScenario {
 public:
  explicit MetroScenario(MetroConfig config);
  MetroScenario(const MetroScenario&) = delete;
  MetroScenario& operator=(const MetroScenario&) = delete;
  ~MetroScenario();

  // Build (first call) and run to the configured horizon.
  MetroResult run();

  [[nodiscard]] ShardedSimulator& runtime() { return runtime_; }

  // District of an AP: contiguous blocks, pure function of the config.
  [[nodiscard]] std::size_t district_of(std::size_t ap) const;

 private:
  struct District;
  struct Cell;
  void build();

  MetroConfig config_;
  ShardedSimulator runtime_;
  std::vector<std::unique_ptr<District>> districts_;
  std::vector<std::unique_ptr<Cell>> cells_;
  bool built_{false};
};

}  // namespace dlte::par
