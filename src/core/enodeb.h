// EnodeB: the radio-side control agent of one cell.
//
// Relays NAS between UEs and whichever MME the S1Fabric wires in (local
// stub or centralized), paying radio-interface latency per round trip
// (RRC scheduling, SR/grant cycles). Tracks per-attach timing so the
// architecture experiments can compare attach latency under both
// deployments with identical protocol work.
#pragma once

#include <functional>
#include <vector>

#include "common/pool.h"
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

  // Handler to register with the S1Fabric for this cell. The rvalue form
  // takes the message's NAS PDU over; the const form copies it first.
  void on_s1ap(lte::S1apMessage&& message);
  void on_s1ap(const lte::S1apMessage& message) {
    on_s1ap(lte::S1apMessage{message});
  }

  [[nodiscard]] CellId cell() const { return config_.cell; }
  [[nodiscard]] int attaches_started() const { return started_; }
  [[nodiscard]] int attaches_succeeded() const { return succeeded_; }
  [[nodiscard]] int attaches_failed() const { return failed_; }

  // The pending-attach table, for tests. An eNB UE id (issued from 1
  // upward, never reused) indexes a dense id → slot table; slots are
  // reused through a free list once an attach completes, fails or
  // expires. An id from the wire that was never issued finds nothing and
  // never grows the table.
  [[nodiscard]] bool is_pending(EnbUeId id) const {
    return slot_of(id) != kNoSlot;
  }
  [[nodiscard]] std::size_t pending_count() const {
    return pending_.size() - free_slots_.size();
  }
  [[nodiscard]] std::size_t pending_slots() const { return pending_.size(); }
  // One entry per eNB UE id issued so far, plus the never-issued id 0.
  [[nodiscard]] std::size_t enb_id_table_size() const {
    return slot_of_enb_id_.size();
  }

  // Causal tracing: each attach_ue() opens an "attach" root span in
  // category `<prefix>ran`, covering RRC setup through completion/guard
  // expiry, and stashes it under span_key("attach", cell, enb_ue_id) so
  // the MME parents its dialogue phases beneath it. Null-safe.
  void set_tracer(obs::SpanTracer* tracer, const std::string& prefix = "");

 private:
  struct PendingUe {
    EnbUeId id;  // 0 while the slot is free.
    ue::NasClient* client{nullptr};
    std::function<void(AttachOutcome)> on_done;
    TimePoint started_at{};
    MmeUeId mme_ue_id{};
    bool context_setup{false};
    obs::SpanId span{obs::kNoSpan};
  };

  // A NAS PDU on the radio leg, in either direction: parked here for the
  // radio latency so the event captures only the record's address.
  struct RadioNas {
    EnbUeId enb_id;
    MmeUeId mme_id;
    std::vector<std::uint8_t> pdu;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  [[nodiscard]] std::uint32_t slot_of(EnbUeId id) const {
    return id.value() < slot_of_enb_id_.size() ? slot_of_enb_id_[id.value()]
                                                : kNoSlot;
  }
  [[nodiscard]] PendingUe* find_pending(EnbUeId id) {
    const std::uint32_t slot = slot_of(id);
    return slot == kNoSlot ? nullptr : &pending_[slot];
  }
  // Frees the slot and hands back its completion callback, moved out:
  // the slot may be reused (or move) while the callback runs.
  std::function<void(AttachOutcome)> finish(PendingUe& ue);
  void deliver_nas_to_ue(RadioNas* down);
  void send_nas_to_mme(RadioNas* up);
  void check_completion(EnbUeId id, PendingUe& ue);
  // Annotates the outcome, closes the attach span, and drops the stash.
  void close_attach_span(EnbUeId id, PendingUe& ue, const char* result);

  sim::Simulator& sim_;
  std::uint32_t ev_label_{0};
  S1Fabric& fabric_;
  EnbConfig config_;
  std::vector<PendingUe> pending_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> slot_of_enb_id_{kNoSlot};
  ObjectPool<RadioNas> radio_nas_{4};
  obs::SpanTracer* tracer_{nullptr};
  std::string span_cat_{"ran"};
  int started_{0};
  int succeeded_{0};
  int failed_{0};
};

}  // namespace dlte::core
