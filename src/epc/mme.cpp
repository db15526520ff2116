#include "epc/mme.h"

#include <algorithm>

#include "crypto/key_derivation.h"

namespace dlte::epc {

Mme::Mme(sim::Simulator& sim, Hss& hss, Gateway& gateway, MmeConfig config)
    : sim_(sim), hss_(hss), gateway_(gateway), config_(config) {
  ev_label_ = sim_.label("epc.mme");
}

void Mme::set_metrics(obs::MetricsRegistry* registry,
                      const std::string& prefix) {
  if (registry == nullptr) {
    m_messages_ = nullptr;
    m_attaches_ = nullptr;
    m_auth_failures_ = nullptr;
    m_handovers_in_ = nullptr;
    m_handovers_out_ = nullptr;
    m_nas_retx_ = nullptr;
    m_throttled_ = nullptr;
    m_state_losses_ = nullptr;
    m_attach_latency_ms_ = nullptr;
    m_queueing_delay_ms_ = nullptr;
    return;
  }
  m_messages_ = &registry->counter(prefix + "epc.messages_processed");
  m_attaches_ = &registry->counter(prefix + "epc.attaches_completed");
  m_auth_failures_ = &registry->counter(prefix + "epc.auth_failures");
  // Never incremented: detach and S1 path switch are not modelled, but
  // the names are part of every metrics document.
  (void)registry->counter(prefix + "epc.detaches");
  (void)registry->counter(prefix + "epc.path_switches");
  m_handovers_in_ = &registry->counter(prefix + "epc.handovers_in");
  m_handovers_out_ = &registry->counter(prefix + "epc.handovers_out");
  // Never incremented either: ECM-idle and paging are not modelled.
  (void)registry->counter(prefix + "epc.paging_messages");
  (void)registry->counter(prefix + "epc.service_requests");
  m_nas_retx_ = &registry->counter(prefix + "epc.nas_retransmissions");
  m_throttled_ = &registry->counter(prefix + "epc.attaches_throttled");
  m_state_losses_ = &registry->counter(prefix + "epc.state_losses");
  m_attach_latency_ms_ =
      &registry->histogram(prefix + "epc.attach_latency_ms");
  m_queueing_delay_ms_ =
      &registry->histogram(prefix + "epc.queueing_delay_ms");
}

void Mme::set_tracer(obs::SpanTracer* tracer, const std::string& prefix) {
  tracer_ = tracer;
  span_cat_ = prefix + "epc";
}

obs::SpanId Mme::ran_span(CellId cell, EnbUeId enb_ue_id) const {
  return obs::span_stashed(
      tracer_, obs::span_key("attach", cell.value(), enb_ue_id.value()));
}

void Mme::begin_phase(UeContext& ue, const char* name) {
  end_phase(ue);
  ue.phase_span = obs::span_begin(tracer_, name, span_cat_, ue.proc_span);
}

void Mme::end_phase(UeContext& ue) {
  obs::span_end(tracer_, ue.phase_span);
  ue.phase_span = obs::kNoSpan;
}

void Mme::handle_s1ap(CellId from_cell, lte::S1apMessage message) {
  // Single-server processing queue: messages wait for MME CPU.
  const TimePoint now = sim_.now();
  const TimePoint start = std::max(now, busy_until_);
  busy_until_ = start + config_.nas_processing;
  stats_.queueing_delay_ms.add((start - now).to_millis());
  obs::observe(m_queueing_delay_ms_, (start - now).to_millis());
  Queued* queued = queued_.acquire();
  queued->from = from_cell;
  queued->message = std::move(message);
  sim_.schedule_at(
      busy_until_,
      [this, queued] {
        ++stats_.messages_processed;
        obs::inc(m_messages_);
        const CellId from = queued->from;
        const lte::S1apMessage m = std::move(queued->message);
        queued_.release(queued);
        process(from, m);
      },
      ev_label_);
}

void Mme::process(CellId from_cell, const lte::S1apMessage& message) {
  if (const auto* init = std::get_if<lte::InitialUeMessage>(&message)) {
    auto nas = lte::decode_nas(init->nas_pdu);
    if (!nas) return;
    if (const auto* attach = std::get_if<lte::AttachRequest>(&*nas)) {
      start_attach(init->cell, init->enb_ue_id, *attach);
    }
    return;
  }
  if (const auto* up = std::get_if<lte::UplinkNasTransport>(&message)) {
    UeContext* ue = find_by_mme_id(up->mme_ue_id);
    if (ue == nullptr) return;
    auto nas = lte::decode_nas(up->nas_pdu);
    if (!nas) return;
    handle_nas(*ue, *nas);
    return;
  }
  if (const auto* resp =
          std::get_if<lte::InitialContextSetupResponse>(&message)) {
    UeContext* ue = find_by_mme_id(resp->mme_ue_id);
    if (ue == nullptr) return;
    obs::ScopedActivation act{tracer_, ue->proc_span};
    gateway_.complete_session(ue->imsi, resp->enb_downlink_teid);
    ue->context_setup_done = true;
    obs::span_annotate(tracer_, ue->phase_span, "context_setup", [&] {
      return "enb_downlink_teid=" +
             std::to_string(resp->enb_downlink_teid.value());
    });
    maybe_finish_attach(*ue);
    return;
  }
  (void)from_cell;
}

void Mme::start_attach(CellId cell, EnbUeId enb_ue_id,
                       const lte::AttachRequest& request) {
  if (config_.max_concurrent_attaches > 0 &&
      attaches_in_progress() >=
          static_cast<std::size_t>(config_.max_concurrent_attaches) &&
      !slot_of_imsi_.contains(request.imsi)) {
    // Admission throttle: a re-attach storm (every UE of a dead neighbour
    // arriving at once) is spread out rather than allowed to stall every
    // dialogue at once. Known UEs mid-dialogue are exempt — rejecting a
    // retransmitted AttachRequest would deadlock the very UE being served.
    UeContext ghost;
    ghost.enb_ue_id = enb_ue_id;
    ghost.mme_ue_id = issue_mme_id();
    ghost.cell = cell;
    obs::span_annotate(tracer_, ran_span(cell, enb_ue_id), "reject",
                       "congestion (attach storm throttle)");
    send_nas(ghost, lte::NasMessage{lte::AttachReject{/*cause=*/0x16}});
    ++stats_.attaches_throttled;
    obs::inc(m_throttled_);
    return;
  }
  auto vector =
      hss_.generate_auth_vector(request.imsi, config_.serving_network_id);
  if (!vector) {
    // Unknown subscriber: reject outright.
    UeContext ghost;
    ghost.enb_ue_id = enb_ue_id;
    ghost.mme_ue_id = issue_mme_id();
    ghost.cell = cell;
    obs::span_annotate(tracer_, ran_span(cell, enb_ue_id), "reject",
                       "unknown subscriber");
    send_nas(ghost, lte::NasMessage{lte::AttachReject{/*cause=*/0x0f}});
    ++stats_.auth_failures;
    obs::inc(m_auth_failures_);
    return;
  }

  UeContext& ue = context_for(request.imsi);
  // Latency is measured from the first AttachRequest of the dialogue: a
  // retransmitted request must not restart the clock (nor re-open spans).
  if (ue.state == EmmState::kDeregistered) {
    ue.attach_started = sim_.now();
    ue.proc_span = ran_span(cell, enb_ue_id);
    obs::span_annotate(tracer_, ue.proc_span, "imsi", [&] {
      return std::to_string(request.imsi.value());
    });
    begin_phase(ue, "aka");
  } else {
    obs::span_annotate(tracer_, ue.proc_span, "nas_retx",
                       "AttachRequest retransmitted");
  }
  ue.enb_ue_id = enb_ue_id;
  ue.cell = cell;
  ue.state = EmmState::kAuthPending;
  ue.xres = vector->xres;
  ue.kasme = vector->kasme;
  ue.context_setup_done = false;
  ue.attach_complete_seen = false;

  lte::AuthenticationRequest auth;
  auth.rand = vector->rand;
  auth.autn.sqn_xor_ak = vector->sqn_xor_ak;
  auth.autn.amf = vector->amf;
  auth.autn.mac_a = vector->mac_a;
  send_nas(ue, lte::NasMessage{auth});
}

void Mme::handle_nas(UeContext& ue, const lte::NasMessage& nas) {
  // Fault and SLO events recorded while this dialogue is being
  // processed annotate its RAN attach span.
  obs::ScopedActivation act{tracer_, ue.proc_span};
  switch (ue.state) {
    case EmmState::kAuthPending: {
      const auto* resp = std::get_if<lte::AuthenticationResponse>(&nas);
      if (resp == nullptr) return;
      if (resp->res != ue.xres) {
        ++stats_.auth_failures;
        obs::inc(m_auth_failures_);
        obs::span_annotate(tracer_, ue.phase_span, "result",
                           "xres mismatch — authentication rejected");
        end_phase(ue);
        ue.state = EmmState::kDeregistered;
        send_nas(ue, lte::NasMessage{lte::AuthenticationReject{}});
        return;
      }
      end_phase(ue);
      ue.state = EmmState::kSecurityPending;
      begin_phase(ue, "security_mode");
      send_nas(ue, lte::NasMessage{lte::SecurityModeCommand{}});
      return;
    }
    case EmmState::kSecurityPending: {
      if (!std::holds_alternative<lte::SecurityModeComplete>(nas)) return;
      // Session setup: allocate bearer + UE address, push the radio-side
      // context, and accept the attach.
      end_phase(ue);
      const BearerContext bearer =
          gateway_.create_session(ue.imsi, BearerId{5});
      ue.tmsi = Tmsi{next_tmsi_++};
      ue.state = EmmState::kAttachAccepted;
      begin_phase(ue, "bearer_setup");
      obs::span_annotate(tracer_, ue.phase_span, "uplink_teid", [&] {
        return std::to_string(bearer.uplink_teid.value());
      });
      obs::span_annotate(tracer_, ue.phase_span, "ue_ip",
                         [&] { return bearer.ue_ip.to_string(); });

      const auto kenb = crypto::derive_kenb(ue.kasme, 0);
      lte::InitialContextSetupRequest ctx;
      ctx.enb_ue_id = ue.enb_ue_id;
      ctx.mme_ue_id = ue.mme_ue_id;
      ctx.sgw_uplink_teid = bearer.uplink_teid;
      ctx.security_key.assign(kenb.begin(), kenb.end());
      sender_(ue.cell, lte::S1apMessage{std::move(ctx)});

      lte::AttachAccept accept;
      accept.tmsi = ue.tmsi;
      accept.ue_ip = bearer.ue_ip.addr;
      accept.default_bearer = bearer.bearer;
      send_nas(ue, lte::NasMessage{accept});
      return;
    }
    case EmmState::kAttachAccepted: {
      if (std::holds_alternative<lte::AttachComplete>(nas)) {
        ue.attach_complete_seen = true;
        maybe_finish_attach(ue);
      }
      return;
    }
    case EmmState::kRegistered:
    case EmmState::kDeregistered:
      return;
  }
}

void Mme::maybe_finish_attach(UeContext& ue) {
  if (ue.state == EmmState::kAttachAccepted && ue.context_setup_done &&
      ue.attach_complete_seen) {
    ue.state = EmmState::kRegistered;
    ++stats_.attaches_completed;
    obs::inc(m_attaches_);
    obs::observe(m_attach_latency_ms_,
                 (sim_.now() - ue.attach_started).to_millis());
    end_phase(ue);
    obs::span_annotate(tracer_, ue.proc_span, "core", "registered");
  }
}

void Mme::send_nas(UeContext& ue, const lte::NasMessage& nas) {
  obs::span_annotate(tracer_, ue.proc_span, "nas_tx",
                     [&] { return lte::nas_brief(nas); });
  lte::DownlinkNasTransport transport;
  transport.enb_ue_id = ue.enb_ue_id;
  transport.mme_ue_id = ue.mme_ue_id;
  transport.nas_pdu = lte::encode_nas(nas);
  // Record for retransmission until the dialogue advances.
  ue.retx_pdu = transport.nas_pdu;
  ue.retx_state = ue.state;
  ue.retx_left = config_.nas_max_retx;
  arm_nas_retx(ue);
  sender_(ue.cell, lte::S1apMessage{std::move(transport)});
}

void Mme::arm_nas_retx(UeContext& ue) {
  if (config_.nas_max_retx <= 0) return;
  const std::uint32_t epoch = ++ue.retx_epoch;
  const MmeUeId id = ue.mme_ue_id;
  sim_.schedule(
      config_.nas_retx_timeout,
      [this, id, epoch] {
    UeContext* found = find_by_mme_id(id);
    if (found == nullptr) return;  // Released or wiped meanwhile.
    UeContext& u = *found;
    if (u.retx_epoch != epoch) return;       // Newer message superseded.
    if (u.state != u.retx_state) return;     // Dialogue advanced.
    if (u.state == EmmState::kRegistered || u.retx_left <= 0) return;
    --u.retx_left;
    ++stats_.nas_retransmissions;
    obs::inc(m_nas_retx_);
    obs::span_annotate(tracer_, u.proc_span, "nas_retx", [&] {
      return "downlink NAS re-sent (" + std::to_string(u.retx_left) +
             " left)";
    });
    // If the radio-side context setup is also outstanding, the original
    // InitialContextSetupRequest may have been the lost message: re-issue
    // it alongside the NAS retransmission.
    if (u.state == EmmState::kAttachAccepted && !u.context_setup_done) {
      if (const auto* bearer = gateway_.find_by_imsi(u.imsi)) {
        const auto kenb = crypto::derive_kenb(u.kasme, 0);
        lte::InitialContextSetupRequest ctx;
        ctx.enb_ue_id = u.enb_ue_id;
        ctx.mme_ue_id = u.mme_ue_id;
        ctx.sgw_uplink_teid = bearer->uplink_teid;
        ctx.security_key.assign(kenb.begin(), kenb.end());
        sender_(u.cell, lte::S1apMessage{std::move(ctx)});
      }
    }
    lte::DownlinkNasTransport transport;
    transport.enb_ue_id = u.enb_ue_id;
    transport.mme_ue_id = u.mme_ue_id;
    transport.nas_pdu = u.retx_pdu;
    arm_nas_retx(u);
    sender_(u.cell, lte::S1apMessage{std::move(transport)});
      },
      ev_label_);
}

Result<BearerContext> Mme::admit_handover(
    Imsi imsi, CellId cell, std::span<const std::uint8_t> security_context) {
  if (security_context.empty()) {
    return fail("handover requires a forwarded security context");
  }
  UeContext& ue = context_for(imsi);
  ue.cell = cell;
  ue.tmsi = Tmsi{next_tmsi_++};
  ue.state = EmmState::kRegistered;
  ue.context_setup_done = true;
  ue.attach_complete_seen = true;
  ++stats_.handovers_in;
  obs::inc(m_handovers_in_);
  return gateway_.create_session(imsi, BearerId{5});
}

void Mme::release_ue(Imsi imsi) {
  const std::uint32_t* slot = slot_of_imsi_.find(imsi);
  if (slot == nullptr) return;
  gateway_.delete_session(imsi);
  free_slot(*slot);
  slot_of_imsi_.erase(imsi);
  ++stats_.handovers_out;
  obs::inc(m_handovers_out_);
}

MmeUeId Mme::issue_mme_id() {
  const MmeUeId id{static_cast<std::uint32_t>(slot_of_mme_id_.size())};
  slot_of_mme_id_.push_back(kNoSlot);
  return id;
}

Mme::UeContext& Mme::context_for(Imsi imsi) {
  const auto [entry, inserted] = slot_of_imsi_.try_emplace(imsi);
  if (!inserted) return contexts_[*entry];
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(contexts_.size());
    contexts_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  *entry = slot;
  UeContext& ue = contexts_[slot];
  ue.imsi = imsi;
  ue.mme_ue_id = issue_mme_id();
  slot_of_mme_id_[ue.mme_ue_id.value()] = slot;
  return ue;
}

void Mme::free_slot(std::uint32_t slot) {
  slot_of_mme_id_[contexts_[slot].mme_ue_id.value()] = kNoSlot;
  contexts_[slot] = UeContext{};
  free_slots_.push_back(slot);
}

Mme::UeContext* Mme::find_by_mme_id(MmeUeId id) {
  const std::uint32_t slot = slot_of(id);
  return slot == kNoSlot ? nullptr : &contexts_[slot];
}

void Mme::lose_volatile_state() {
  for (UeContext& ue : contexts_) {
    if (ue.mme_ue_id.value() == 0) continue;  // Free slot.
    obs::span_annotate(tracer_, ue.phase_span, "fault",
                       "mme volatile state lost mid-dialogue");
    end_phase(ue);
    obs::span_annotate(tracer_, ue.proc_span, "fault",
                       "mme volatile state lost");
    slot_of_mme_id_[ue.mme_ue_id.value()] = kNoSlot;
  }
  contexts_.clear();
  free_slots_.clear();
  slot_of_imsi_.clear();
  busy_until_ = sim_.now();
  ++stats_.state_losses;
  obs::inc(m_state_losses_);
}

std::size_t Mme::attaches_in_progress() const {
  std::size_t n = 0;
  for (const UeContext& ue : contexts_) {
    if (ue.state == EmmState::kAuthPending ||
        ue.state == EmmState::kSecurityPending ||
        ue.state == EmmState::kAttachAccepted) {
      ++n;
    }
  }
  return n;
}

bool Mme::is_registered(Imsi imsi) const {
  const std::uint32_t* slot = slot_of_imsi_.find(imsi);
  return slot != nullptr && contexts_[*slot].state == EmmState::kRegistered;
}

}  // namespace dlte::epc
