// DlteAccessPoint: the paper's unit of deployment (§4).
//
// One box on a silo roof: eNodeB + collapsed local core (MME/HSS/S-GW/
// P-GW stub) + registry client + X2 peer coordinator + local Internet
// breakout. Bringing one up is the paper's "organic expansion" story:
//   1. apply for a grant at the open registry,
//   2. query the registry for the local contention domain,
//   3. say hello to the peers and start coordinated sharing,
//   4. serve any client whose keys are published (or locally provisioned).
// No human coordination, no carrier, no shared core.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/enodeb.h"
#include "core/radio_env.h"
#include "core/s1_fabric.h"
#include "core/ue_device.h"
#include "epc/epc.h"
#include "mac/lte_cell_mac.h"
#include "spectrum/coordinator.h"
#include "spectrum/registry.h"

namespace dlte::core {

struct ApConfig {
  ApId id;
  CellId cell;
  Position position;
  Hertz frequency{Hertz::mhz(850.0)};
  lte::DlteMode mode{lte::DlteMode::kFairShare};
  std::string operator_contact{"ops@example.net"};
  std::uint64_t seed{1};
};

class DlteAccessPoint {
 public:
  DlteAccessPoint(sim::Simulator& sim, net::Network& net,
                  NodeId backhaul_node, RadioEnvironment& radio_env,
                  ApConfig config);
  ~DlteAccessPoint();
  DlteAccessPoint(const DlteAccessPoint&) = delete;
  DlteAccessPoint& operator=(const DlteAccessPoint&) = delete;

  // Async bring-up against the registry (grant → discovery → hello →
  // coordination). Callback fires with success once the grant is held.
  void bring_up(spectrum::Registry& registry,
                std::function<void(bool)> on_done = nullptr);

  // Pull every published open identity from the registry into the local
  // HSS (§4.2: published keys let any AP authenticate the subscriber).
  std::size_t import_published_subscribers(
      const spectrum::Registry& registry);

  // Radio-level attach of a UE camping on this cell. Also registers the
  // UE's traffic with the cell MAC using the radio environment's SINR.
  void attach(UeDevice& ue, mac::UeTrafficConfig traffic,
              std::function<void(AttachOutcome)> on_done = nullptr);

  // Attach with the UE-side retry schedule: on failure (guard expiry,
  // NAS reject, AP down) the attach is retried after ue::attach_backoff,
  // up to ue::kMaxAttachAttempts attempts. The callback fires exactly
  // once, with the outcome of the last attempt.
  void attach_with_retry(UeDevice& ue, mac::UeTrafficConfig traffic,
                         std::function<void(AttachOutcome)> on_done = nullptr);

  // --- Fault surface (src/fault) ---------------------------------------
  // Crash the box: the local core loses all volatile state (EMM contexts,
  // bearers), every radio bearer dies, the cell leaves the air, the X2
  // endpoint goes dark, and lease heartbeats stop. UEs must re-attach —
  // at a neighbour, or here after recover().
  void fail();
  // Restart the box. With a registry, re-runs bring-up (fresh grant, peer
  // rediscovery); without one, just re-lights the cell and X2.
  void recover(spectrum::Registry* registry = nullptr);
  [[nodiscard]] bool failed() const { return failed_; }

  // Cooperative-handover radio plumbing: register an admitted UE's bearer
  // with this cell's MAC without an attach dialogue (the core context was
  // created by Mme::admit_handover), and drop a departed UE's bearer.
  void adopt_ue(UeDevice& ue, mac::UeTrafficConfig traffic);
  void drop_ue(UeDevice& ue);

  // Causal span tracing: wires one SpanTracer through this AP's eNodeB
  // (attach root spans), MME (NAS/AKA phase spans) and X2 coordinator
  // (share-round spans). All APs in a scenario share the tracer so
  // cross-AP procedures (handover, X2 rounds) parent correctly; `prefix`
  // lands in the span categories, not the names. The AP adds its own
  // `ap_lease` and `attach_retry` markers. Null-safe.
  void set_span_tracer(obs::SpanTracer* tracer,
                       const std::string& prefix = "");

  // Per-AP health source (DESIGN.md §10): gauges `<prefix>ap<id>.up`
  // (0 while crashed) and `<prefix>ap<id>.lease_degraded`, plus counter
  // `<prefix>ap<id>.lease_renewal_failures`. The AP appends its own
  // `ap<id>.` segment so a scenario wires every AP with one prefix and
  // gets distinct per-box series. Null-safe.
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "");

  [[nodiscard]] ApId id() const { return config_.id; }
  [[nodiscard]] CellId cell_id() const { return config_.cell; }
  [[nodiscard]] const spectrum::SpectrumGrant& grant() const {
    return *grant_;
  }

  [[nodiscard]] epc::EpcCore& core() { return *core_; }
  [[nodiscard]] mac::LteCellMac& cell_mac() { return cell_mac_; }
  [[nodiscard]] spectrum::PeerCoordinator& coordinator() {
    return *coordinator_;
  }

 private:
  sim::Simulator& sim_;
  // Event labels: the lease heartbeat, a crashed AP's attach refusal,
  // and the wait before an attach retry.
  std::uint32_t lease_label_;
  std::uint32_t refusal_label_;
  std::uint32_t retry_label_;
  net::Network& net_;
  NodeId node_;
  RadioEnvironment& radio_env_;
  ApConfig config_;
  std::string network_id_;

  std::unique_ptr<epc::EpcCore> core_;
  std::unique_ptr<S1Fabric> fabric_;
  std::unique_ptr<EnodeB> enodeb_;
  mac::LteCellMac cell_mac_;
  std::unique_ptr<spectrum::PeerCoordinator> coordinator_;
  std::optional<spectrum::SpectrumGrant> grant_;
  std::uint32_t next_ue_{1};
  std::unordered_map<Imsi, UeId> mac_ue_ids_;
  obs::SpanTracer* tracer_{nullptr};
  std::string span_cat_;
  obs::Gauge* m_up_{nullptr};
  obs::Gauge* m_lease_degraded_{nullptr};
  obs::Counter* m_renewal_failures_{nullptr};
  sim::Simulator::PeriodicHandle lease_heartbeat_;
  bool failed_{false};
  // Set while lease renewals fail; cleared on renewal or final lapse.
  std::optional<TimePoint> degraded_since_;
  // Guards `this`-capturing async callbacks (registry grant/query) that
  // may still be in flight when the AP is torn down.
  std::shared_ptr<bool> alive_{std::make_shared<bool>(true)};

  void start_lease_heartbeat(spectrum::Registry& registry);
  void try_attach(UeDevice* ue, mac::UeTrafficConfig traffic,
                  std::shared_ptr<sim::RngStream> rng, int attempt,
                  std::function<void(AttachOutcome)> on_done);
  // Zero-duration `ap_lease` marker span: a lease decision only the AP
  // sees.
  void mark_lease(const char* state);
};

}  // namespace dlte::core
