// HandoverManager: cooperative-mode client handoff between dLTE peers.
//
// §4.3: "Cooperation allows for client handoff across the APs"; §6: "LTE
// … supports efficient client handover that does not require any packet
// duplication. APs do not have to do additional work to hide the
// handover or let clients keep their IP addresses, allowing fast
// re-authentication technologies to handle the address change."
//
// Sequence (standard X2 handover adapted across administrative domains):
//   source: X2 HandoverRequest {imsi, tmsi, K_eNB*} ──Internet──▶ target
//   target: admits (no fresh EPS-AKA — context forwarded), allocates the
//           UE's new address, replies HandoverRequestAck
//   source: RRC reconfiguration to the UE (one radio interruption, tens
//           of ms instead of a full re-attach), then UeContextRelease
// The UE's IP still changes (dLTE never hides that); the win over plain
// re-attach is skipping RRC idle→connected and the AKA dialogue.
//
// Both APs must be in cooperative mode; fair-share/isolated peers refuse
// (coordination is consensual).
#pragma once

#include <functional>
#include <unordered_map>

#include "core/access_point.h"
#include "obs/span.h"

namespace dlte::core {

struct HandoverOutcome {
  bool success{false};
  Duration interruption{};     // UE-visible radio gap.
  Duration total{};            // Request → UE active on target.
  std::uint32_t new_ue_ip{0};
  std::string failure_reason;
};

class HandoverManager {
 public:
  // One manager per AP; registers itself as the coordinator's handover
  // sink.
  HandoverManager(sim::Simulator& sim, DlteAccessPoint& ap);

  // Source-side: move `ue` (currently served by our AP) to `target_ap`.
  // `traffic` re-registers the UE's bearer with the target's cell MAC.
  void initiate(UeDevice& ue, ApId target_ap, mac::UeTrafficConfig traffic,
                std::function<void(HandoverOutcome)> on_done);

  // Causal tracing: initiate() opens a "handover" root span (category
  // `<prefix>handover`) stashed under span_key("handover", imsi); the
  // target's admission becomes a "handover_admit" child (via the shared
  // tracer's stash) and the source's RRC reconfiguration an
  // "rrc_reconfiguration" child. Null-safe.
  void set_tracer(obs::SpanTracer* tracer, const std::string& prefix = "");

 private:
  struct Pending {
    UeDevice* ue{nullptr};
    mac::UeTrafficConfig traffic;
    std::function<void(HandoverOutcome)> on_done;
    TimePoint started_at{};
    ApId target;
    obs::SpanId span{obs::kNoSpan};
  };

  void on_x2(const lte::X2Message& message, NodeId from);
  void handle_request(const lte::X2HandoverRequest& request, NodeId from);
  void handle_ack(const lte::X2HandoverRequestAck& ack);

  sim::Simulator& sim_;
  // Event labels: the admission timeout and the RRC reconfiguration.
  std::uint32_t timeout_label_;
  std::uint32_t rrc_label_;
  DlteAccessPoint& ap_;
  std::unordered_map<std::uint64_t, Pending> pending_;  // By IMSI.
  // Target-side record of admitted-but-not-yet-arrived UEs.
  std::unordered_map<std::uint64_t, mac::UeTrafficConfig> expected_;
  obs::SpanTracer* tracer_{nullptr};
  std::string span_cat_{"handover"};

  // Radio interruption of an RRC-reconfiguration-based handover (no RRC
  // idle→connected, no AKA).
  static constexpr Duration kRrcReconfiguration = Duration::millis(35);
};

}  // namespace dlte::core
