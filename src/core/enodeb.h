// EnodeB: the radio-side control agent of one cell.
//
// Relays NAS between UEs and whichever MME the S1Fabric wires in (local
// stub or centralized), paying radio-interface latency per round trip
// (RRC scheduling, SR/grant cycles). Tracks per-attach timing so the
// architecture experiments can compare attach latency under both
// deployments with identical protocol work.
#pragma once

#include <functional>
#include <unordered_map>

#include "core/s1_fabric.h"
#include "lte/nas.h"
#include "obs/span.h"
#include "ue/nas_client.h"

namespace dlte::core {

struct EnbConfig {
  CellId cell;
  // One-way radio latency for a NAS message (HARQ + scheduling).
  Duration radio_one_way{Duration::millis(10)};
  // RRC connection establishment before the first NAS message flies.
  Duration rrc_setup{Duration::millis(50)};
  Teid downlink_teid_base{1000};
  // Guard timer: an attach that has not completed by then fails (T3410-
  // style). Keeps eNodeB state bounded when the core is unreachable.
  Duration attach_guard{Duration::seconds(15.0)};
};

struct AttachOutcome {
  bool success{false};
  Duration elapsed{};
  std::uint32_t ue_ip{0};
};

class EnodeB {
 public:
  EnodeB(sim::Simulator& sim, S1Fabric& fabric, EnbConfig config);

  // Run the full attach for `client` (RRC setup + NAS dialogue + context
  // setup). The callback fires exactly once — on success, NAS-level
  // rejection, or guard-timer expiry.
  void attach_ue(ue::NasClient& client,
                 std::function<void(AttachOutcome)> on_done);

  // Handler to register with the S1Fabric for this cell.
  void on_s1ap(const lte::S1apMessage& message);

  [[nodiscard]] CellId cell() const { return config_.cell; }
  [[nodiscard]] int attaches_started() const { return started_; }
  [[nodiscard]] int attaches_succeeded() const { return succeeded_; }
  [[nodiscard]] int attaches_failed() const { return failed_; }

  // Causal tracing: each attach_ue() opens an "attach" root span in
  // category `<prefix>ran`, covering RRC setup through completion/guard
  // expiry, and stashes it under span_key("attach", cell, enb_ue_id) so
  // the MME parents its dialogue phases beneath it. Null-safe.
  void set_tracer(obs::SpanTracer* tracer, const std::string& prefix = "");

 private:
  struct PendingUe {
    ue::NasClient* client{nullptr};
    std::function<void(AttachOutcome)> on_done;
    TimePoint started_at{};
    MmeUeId mme_ue_id{};
    bool context_setup{false};
    bool done{false};
    obs::SpanId span{obs::kNoSpan};
  };

  void deliver_nas_to_ue(EnbUeId id, const std::vector<std::uint8_t>& pdu);
  void send_nas_to_mme(EnbUeId enb_id, MmeUeId mme_id,
                       const lte::NasMessage& nas);
  void check_completion(EnbUeId id, PendingUe& ue);
  // Annotates the outcome, closes the attach span, and drops the stash.
  void close_attach_span(EnbUeId id, PendingUe& ue, const char* result);

  sim::Simulator& sim_;
  std::uint32_t ev_label_{0};
  S1Fabric& fabric_;
  EnbConfig config_;
  std::unordered_map<std::uint32_t, PendingUe> pending_;
  std::uint32_t next_enb_ue_id_{1};
  obs::SpanTracer* tracer_{nullptr};
  std::string span_cat_{"ran"};
  int started_{0};
  int succeeded_{0};
  int failed_{0};
};

}  // namespace dlte::core
