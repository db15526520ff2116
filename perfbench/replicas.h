// Traced replicas of par::RegistryPlaneScenario and par::ShardedTown.
//
// The traced run needs two things the scenario classes do not offer from
// outside: control of the barrier loop between build and horizon (to time
// each window), and the registry endpoint handler (to time each call into
// spectrum::Registry). These classes rebuild the same scenarios from the
// same public pieces, in the same order, so the event structure and the
// merged metrics are the scenario's own; job.cpp proves it on every traced
// run by checking the merged-metrics digest against the untraced one.
// Nothing here adds instrumentation inside the simulator.
#pragma once

#include <memory>
#include <vector>

#include "obs/slo.h"
#include "par/registry_plane.h"
#include "par/sharded_sim.h"
#include "par/town.h"

namespace perfbench {

// Wall-clock spans (microseconds) around the registry calls the endpoint
// handler makes, one sample per call.
struct RegistrySpans {
  std::vector<float> grant_us;
  std::vector<float> heartbeat_us;
  std::vector<float> occupancy_us;
};

class TracedRegistryPlane {
 public:
  explicit TracedRegistryPlane(dlte::par::RegistryPlaneConfig config);
  TracedRegistryPlane(const TracedRegistryPlane&) = delete;
  TracedRegistryPlane& operator=(const TracedRegistryPlane&) = delete;
  ~TracedRegistryPlane();

  // Everything RegistryPlaneScenario::run() does before its first window.
  void build();
  [[nodiscard]] dlte::par::ShardedSimulator& runtime() { return runtime_; }
  // The scenario's result, computed from the state at the current time.
  [[nodiscard]] dlte::par::RegistryPlaneResult result() const;
  [[nodiscard]] const RegistrySpans& spans() const { return spans_; }

 private:
  struct Block;
  struct RegistryNode;
  void handle_registry_message(const dlte::par::Message& m);

  dlte::par::RegistryPlaneConfig config_;
  dlte::par::ShardedSimulator runtime_;
  std::unique_ptr<RegistryNode> registry_;
  std::vector<std::unique_ptr<Block>> blocks_;
  std::unique_ptr<dlte::obs::SloMonitor> monitor_;
  RegistrySpans spans_;
};

class TracedTown {
 public:
  explicit TracedTown(dlte::par::TownConfig config);
  TracedTown(const TracedTown&) = delete;
  TracedTown& operator=(const TracedTown&) = delete;
  ~TracedTown();

  // Everything ShardedTown::run() does before its first window.
  void build();
  [[nodiscard]] dlte::par::ShardedSimulator& runtime() { return runtime_; }
  [[nodiscard]] dlte::par::TownResult result() const;

 private:
  struct Island;

  dlte::par::TownConfig config_;
  dlte::par::ShardedSimulator runtime_;
  std::vector<std::unique_ptr<Island>> islands_;
};

}  // namespace perfbench
