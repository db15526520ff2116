// ShardedTown: the reference scenario for the parallel runtime.
//
// A street of N dLTE APs (the paper's neighborhood deployment), each a
// self-contained island — local EPC stub, S1 fabric, eNodeB, its own
// packet network with an egress portal — partitioned over shards by
// geography. UEs attach at seeded staggered times; every AP periodically
// ships an X2 LoadInformation report to its ring neighbours through the
// egress portal, so the X2-over-Internet coordination plane (§4.3) is
// exactly the cross-shard traffic. All scenario metrics live in the
// shard domain registries under per-AP prefixes ("ap3.attach.ms"), which
// is what makes the merged artifacts byte-identical at any shard count —
// the property bench_c9 and the CI par-determinism gate verify.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "par/sharded_sim.h"

namespace dlte::par {

struct TownConfig {
  int aps{8};
  int ues_per_ap{10};
  std::size_t shards{1};
  std::size_t threads{0};  // 0 → one thread per shard.
  std::uint64_t seed{42};
  Duration horizon{Duration::seconds(5.0)};
  // X2 load-report cadence per AP.
  Duration report_interval{Duration::millis(100)};
  // One-way AP↔AP Internet latency — also the runtime lookahead, so it
  // bounds the window width.
  Duration backbone_delay{Duration::millis(5)};
  // Telemetry cadence for the merged series document; zero disables.
  Duration sample_interval{Duration::millis(500)};
  // Enable the runtime self-profiling plane (DESIGN.md §14).
  bool profile{false};
  // Enable the determinism audit plane (DESIGN.md §15).
  bool audit{false};
  Duration audit_window{Duration::millis(250)};
  // Engine-sampler cadence (sim.queue_depth in the merged series); zero
  // falls back to sample_interval.
  Duration engine_sample_interval{};
};

struct TownResult {
  std::uint64_t attaches_completed{0};
  std::uint64_t attaches_failed{0};
  std::uint64_t x2_reports_rx{0};
  std::uint64_t windows{0};
  std::uint64_t messages{0};
  double sim_seconds{0.0};
};

class ShardedTown {
 public:
  explicit ShardedTown(TownConfig config);
  ShardedTown(const ShardedTown&) = delete;
  ShardedTown& operator=(const ShardedTown&) = delete;
  ~ShardedTown();

  // Build (first call) and run to the configured horizon.
  TownResult run();

  // Shard-count-invariant artifacts come from the runtime's merged_*
  // accessors (valid after run()).
  [[nodiscard]] ShardedSimulator& runtime() { return runtime_; }

 private:
  struct Island;
  void build();

  TownConfig config_;
  ShardedSimulator runtime_;
  std::vector<std::unique_ptr<Island>> islands_;
  bool built_{false};
};

}  // namespace dlte::par
