// MME: mobility management entity — the EMM/ECM state machine.
//
// Drives attach, EPS-AKA, security mode, and session setup over S1AP.
// One Mme instance serves either a whole centralized network (many cells,
// one signaling queue — the §4.1 chokepoint) or a single dLTE AP (the
// local stub, one queue per site). Message processing consumes simulated
// CPU time through a single-server queue, which is what saturates in the
// C4 core-scaling experiment.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/ids.h"
#include "common/pool.h"
#include "common/stats.h"
#include "common/time.h"
#include "epc/gateway.h"
#include "epc/hss.h"
#include "lte/nas.h"
#include "lte/s1ap.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/simulator.h"

namespace dlte::epc {

enum class EmmState {
  kDeregistered,
  kAuthPending,
  kSecurityPending,
  kAttachAccepted,   // Waiting for AttachComplete / context setup.
  kRegistered,
};

struct MmeConfig {
  std::string serving_network_id{"dlte-net"};
  // CPU cost of handling one signaling message (single-server queue).
  Duration nas_processing{Duration::micros(500)};
  // NAS retransmission (T3460/T3450-style): a downlink NAS message that
  // has not advanced the UE's state is re-sent up to `nas_max_retx`
  // times, `nas_retx_timeout` apart. Lets an attach survive transient
  // S1/backhaul loss instead of stalling until the UE gives up.
  Duration nas_retx_timeout{Duration::seconds(2.0)};
  int nas_max_retx{4};
  // Re-attach storm admission throttle (T3346-style congestion control):
  // with more than this many attach dialogues in flight, new attach
  // requests are rejected with a congestion cause so the UEs back off and
  // spread the storm, instead of every dialogue timing out together.
  // Zero = unlimited.
  int max_concurrent_attaches{0};
};

struct MmeStats {
  std::uint64_t messages_processed{0};
  std::uint64_t attaches_completed{0};
  std::uint64_t auth_failures{0};
  std::uint64_t handovers_in{0};
  std::uint64_t handovers_out{0};
  std::uint64_t nas_retransmissions{0};
  std::uint64_t attaches_throttled{0};  // Rejected by storm admission.
  std::uint64_t state_losses{0};        // Crashes wiping volatile state.
  Quantiles queueing_delay_ms;  // Time spent waiting for MME CPU.
};

class Mme {
 public:
  // Sends an S1AP message toward the eNodeB serving `cell`.
  using S1apSender = std::function<void(CellId, lte::S1apMessage)>;

  Mme(sim::Simulator& sim, Hss& hss, Gateway& gateway, MmeConfig config);

  void set_sender(S1apSender sender) { sender_ = std::move(sender); }

  // Entry point for S1AP traffic from eNodeBs. Subject to the processing
  // queue: handling happens after queueing + service time.
  void handle_s1ap(CellId from_cell, lte::S1apMessage message);

  // dLTE cooperative handover admission (§4.3/§6): the source AP forwards
  // the UE's security context over X2, so the target core creates a
  // registered session without re-running EPS-AKA. Returns the new bearer
  // (with this AP's address for the UE). Synchronous — the caller models
  // the X2/processing latency.
  [[nodiscard]] Result<BearerContext> admit_handover(
      Imsi imsi, CellId cell, std::span<const std::uint8_t> security_context);
  // Release a UE's context (source side of a completed handover).
  void release_ue(Imsi imsi);

  // Crash semantics (src/fault): an MME process restart loses every EMM
  // context and in-flight dialogue — exactly what a dLTE AP reboot does to
  // its local core. The HSS subscriber DB (persistent storage) survives;
  // UEs must re-attach from scratch. Pending retransmission timers for the
  // wiped contexts find no state and die quietly.
  void lose_volatile_state();

  [[nodiscard]] bool is_registered(Imsi imsi) const;
  [[nodiscard]] std::size_t attaches_in_progress() const;
  [[nodiscard]] const MmeStats& stats() const { return stats_; }

  // The EMM context tables, for tests. Contexts sit in reusable slots;
  // an MME UE id (issued from 1 upward, never reused, not even across
  // lose_volatile_state) indexes a dense id → slot table, and the IMSI
  // finds its slot through a flat hash map. An id from the wire that was
  // never issued finds nothing and never grows the table.
  struct UeView {
    Imsi imsi;
    MmeUeId mme_ue_id;
    EmmState state{EmmState::kDeregistered};
    std::uint32_t slot{0};
  };
  [[nodiscard]] std::optional<UeView> find_ue(MmeUeId id) const {
    const std::uint32_t slot = slot_of(id);
    if (slot == kNoSlot) return std::nullopt;
    return view(slot);
  }
  [[nodiscard]] std::optional<UeView> find_ue(Imsi imsi) const {
    const std::uint32_t* slot = slot_of_imsi_.find(imsi);
    if (slot == nullptr) return std::nullopt;
    return view(*slot);
  }
  [[nodiscard]] std::size_t context_count() const {
    return slot_of_imsi_.size();
  }
  [[nodiscard]] std::size_t context_slots() const { return contexts_.size(); }
  // One entry per MME UE id issued so far, plus the never-issued id 0.
  [[nodiscard]] std::size_t mme_id_table_size() const {
    return slot_of_mme_id_.size();
  }

  // Export signaling counters and the attach-latency / queueing-delay
  // histograms under `<prefix>epc.*` (all simulated-time derived, so
  // values are deterministic for a given seed).
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "");

  // Causal tracing (DESIGN.md §9): the EMM dialogue's core-side phases
  // ("aka", "security_mode", "bearer_setup") become child spans of the
  // eNodeB's "attach" span, found via the tracer's stash under
  // span_key("attach", cell, enb_ue_id). Spans land in category
  // `<prefix>epc`. Null tracer disables tracing.
  void set_tracer(obs::SpanTracer* tracer, const std::string& prefix = "");

 private:
  struct UeContext {
    Imsi imsi;
    Tmsi tmsi;
    EnbUeId enb_ue_id;
    MmeUeId mme_ue_id;
    CellId cell;
    EmmState state{EmmState::kDeregistered};
    TimePoint attach_started{};  // First AttachRequest of this dialogue.
    crypto::Res64 xres{};
    crypto::Kasme kasme{};
    bool context_setup_done{false};
    bool attach_complete_seen{false};
    // NAS retransmission state: the last downlink NAS message, re-sent
    // while the EMM state has not advanced. A retransmission timer finds
    // its context by MME UE id, which a later dialogue of the same IMSI
    // never shares.
    std::uint32_t retx_epoch{0};
    int retx_left{0};
    EmmState retx_state{EmmState::kDeregistered};
    std::vector<std::uint8_t> retx_pdu;
    // Causal tracing: the RAN-side "attach" span this dialogue belongs
    // to (owned and closed by the eNodeB), and the currently open
    // core-side phase child span.
    obs::SpanId proc_span{obs::kNoSpan};
    obs::SpanId phase_span{obs::kNoSpan};
  };

  // A message waiting for MME CPU in the processing queue.
  struct Queued {
    CellId from;
    lte::S1apMessage message;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  void process(CellId from_cell, const lte::S1apMessage& message);
  void handle_nas(UeContext& ue, const lte::NasMessage& nas);
  void send_nas(UeContext& ue, const lte::NasMessage& nas);
  void arm_nas_retx(UeContext& ue);
  void start_attach(CellId cell, EnbUeId enb_ue_id,
                    const lte::AttachRequest& request);
  void maybe_finish_attach(UeContext& ue);
  [[nodiscard]] MmeUeId issue_mme_id();
  // The context of `imsi`, created (with a fresh MME UE id) when absent.
  // Creating one may move every other context: hold no reference across.
  UeContext& context_for(Imsi imsi);
  // Resets a context and returns its slot to the free list.
  void free_slot(std::uint32_t slot);
  UeContext* find_by_mme_id(MmeUeId id);
  [[nodiscard]] std::uint32_t slot_of(MmeUeId id) const {
    return id.value() < slot_of_mme_id_.size() ? slot_of_mme_id_[id.value()]
                                                : kNoSlot;
  }
  [[nodiscard]] UeView view(std::uint32_t slot) const {
    const UeContext& ue = contexts_[slot];
    return UeView{ue.imsi, ue.mme_ue_id, ue.state, slot};
  }
  // The RAN's stashed "attach" span for this dialogue (kNoSpan if the
  // eNodeB is untraced or the stash expired).
  [[nodiscard]] obs::SpanId ran_span(CellId cell, EnbUeId enb_ue_id) const;
  // Closes the open phase span (if any) and opens `name` under proc_span.
  void begin_phase(UeContext& ue, const char* name);
  void end_phase(UeContext& ue);

  sim::Simulator& sim_;
  std::uint32_t ev_label_{0};
  Hss& hss_;
  Gateway& gateway_;
  MmeConfig config_;
  S1apSender sender_;
  TimePoint busy_until_{};

  // Context slots; a free slot has mme_ue_id 0 and waits in free_slots_.
  std::vector<UeContext> contexts_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> slot_of_mme_id_{kNoSlot};
  FlatMap<Imsi, std::uint32_t> slot_of_imsi_;
  ObjectPool<Queued> queued_{4};
  std::uint32_t next_tmsi_{0x1000};
  MmeStats stats_;

  obs::SpanTracer* tracer_{nullptr};
  std::string span_cat_{"epc"};

  obs::Counter* m_messages_{nullptr};
  obs::Counter* m_attaches_{nullptr};
  obs::Counter* m_auth_failures_{nullptr};
  obs::Counter* m_handovers_in_{nullptr};
  obs::Counter* m_handovers_out_{nullptr};
  obs::Counter* m_nas_retx_{nullptr};
  obs::Counter* m_throttled_{nullptr};
  obs::Counter* m_state_losses_{nullptr};
  obs::Histogram* m_attach_latency_ms_{nullptr};
  obs::Histogram* m_queueing_delay_ms_{nullptr};
};

}  // namespace dlte::epc
