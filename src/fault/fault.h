// Deterministic fault injection (the resilience half of §7's "ecosystem
// health" story).
//
// A FaultPlan is a seeded, fully-reproducible schedule of failures — AP
// crashes, backhaul partitions and degradations, registry outages, X2
// message corruption. The FaultInjector arms the plan against live
// components on the simulator clock: every fault and its heal is an
// ordinary event, so two runs with the same seed see byte-identical
// failure timelines. That is what makes the C8 resilience experiment an
// A/B comparison instead of an anecdote.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "core/access_point.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "spectrum/registry.h"

namespace dlte::fault {

enum class FaultKind {
  kApCrash,         // AP loses volatile core state and leaves the air.
  kLinkPartition,   // Backhaul link hard-down.
  kLinkDegrade,     // Backhaul link turns lossy / slow.
  kRegistryOutage,  // Registry service (or one federated zone) fails.
  kX2Impairment,    // An AP's X2 agent drops / duplicates messages.
};

[[nodiscard]] const char* fault_kind_name(FaultKind kind);

// One scheduled failure. Only the fields for `kind` are meaningful.
struct FaultSpec {
  FaultKind kind{FaultKind::kApCrash};
  TimePoint at{};
  // Zero = permanent: the fault never heals within the run.
  Duration duration{};

  ApId ap{};                   // kApCrash, kX2Impairment.
  NodeId link_a{}, link_b{};   // kLinkPartition, kLinkDegrade.
  double loss{0.0};            // kLinkDegrade loss / kX2Impairment drop.
  Duration extra_latency{};    // kLinkDegrade added one-way delay.
  double duplicate{0.0};       // kX2Impairment duplication probability.
  spectrum::RegistryOutage outage{spectrum::RegistryOutage::kNone};
  int zone{-1};                // kRegistryOutage: federated zone, -1 = all.

  [[nodiscard]] std::string describe() const;
};

// Knobs for FaultPlan::random().
struct RandomFaultProfile {
  int ap_crashes{2};
  int link_partitions{2};
  int link_degrades{2};
  int registry_outages{1};
  Duration horizon{Duration::seconds(120.0)};
  Duration min_duration{Duration::seconds(5.0)};
  Duration max_duration{Duration::seconds(20.0)};
};

class FaultPlan {
 public:
  FaultPlan& add(FaultSpec spec);
  [[nodiscard]] const std::vector<FaultSpec>& specs() const {
    return specs_;
  }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }

  // One line per fault in schedule order. Byte-stable for a given plan —
  // the determinism check in tests/bench compares these strings.
  [[nodiscard]] std::string summary() const;

  // Seeded random plan over the given APs and links. Same seed + same
  // inputs = identical plan; the draws depend only on the seed, never on
  // wall-clock or address ordering.
  [[nodiscard]] static FaultPlan random(
      std::uint64_t seed, const std::vector<ApId>& aps,
      const std::vector<std::pair<NodeId, NodeId>>& links,
      const RandomFaultProfile& profile = {});

 private:
  std::vector<FaultSpec> specs_;
};

struct FaultInjectorStats {
  std::uint64_t injected{0};
  std::uint64_t healed{0};
};

// Arms a FaultPlan against live components. Register the targets first,
// then arm(); injection and healing run as simulator events.
class FaultInjector {
 public:
  explicit FaultInjector(sim::Simulator& sim)
      : sim_(sim),
        inject_label_(sim_.label("fault.inject")),
        heal_label_(sim_.label("fault.heal")) {}

  void register_ap(core::DlteAccessPoint* ap);
  void set_network(net::Network* net) { net_ = net; }
  void set_registry(spectrum::Registry* registry) { registry_ = registry; }

  // Schedule every fault (and, for finite durations, its heal).
  void arm(const FaultPlan& plan);

  [[nodiscard]] const FaultInjectorStats& stats() const { return stats_; }

  // Export fault counters under `<prefix>fault.*`, plus a repair-time
  // histogram (`fault.repair_time_s`) fed at each heal — the per-fault
  // injected repair duration, the ground truth MTTR input — and a
  // `fault.active` gauge (currently-unhealed faults; a health-timeline
  // overlay for the §10 series plane).
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "");

  // Causal tracing: every inject/heal emits a zero-duration
  // "fault_inject"/"fault_heal" marker span (category `<prefix>fault`)
  // and, when a procedure span is currently active, annotates it — so a
  // trace shows which attach/handover a fault landed in the middle of.
  void set_tracer(obs::SpanTracer* tracer, const std::string& prefix = "");

 private:
  void inject(const FaultSpec& spec);
  void heal(const FaultSpec& spec);
  void trace_event(const FaultSpec& spec, std::string_view name);
  [[nodiscard]] core::DlteAccessPoint* find_ap(ApId id) const;
  [[nodiscard]] static std::pair<std::uint64_t, std::uint64_t> link_key(
      const FaultSpec& spec);

  sim::Simulator& sim_;
  std::uint32_t inject_label_;
  std::uint32_t heal_label_;
  std::vector<core::DlteAccessPoint*> aps_;
  net::Network* net_{nullptr};
  spectrum::Registry* registry_{nullptr};
  obs::SpanTracer* tracer_{nullptr};
  std::string span_cat_{"fault"};
  FaultInjectorStats stats_;
  obs::Counter* m_injected_{nullptr};
  obs::Counter* m_healed_{nullptr};
  obs::Histogram* m_repair_time_s_{nullptr};
  obs::Gauge* m_active_{nullptr};
  // Overlapping partition windows on one link refcount: the link comes
  // back only when the *last* window closes. [10,40] ∪ [20,30] heals the
  // link once, at t=40.
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> partition_depth_;
};

}  // namespace dlte::fault
