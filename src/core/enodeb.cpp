#include "core/enodeb.h"

namespace dlte::core {

EnodeB::EnodeB(sim::Simulator& sim, S1Fabric& fabric, EnbConfig config)
    : sim_(sim), fabric_(fabric), config_(config) {
  ev_label_ = sim_.label("ran.enodeb");
}

void EnodeB::set_tracer(obs::SpanTracer* tracer, const std::string& prefix) {
  tracer_ = tracer;
  span_cat_ = prefix + "ran";
}

void EnodeB::close_attach_span(EnbUeId id, PendingUe& ue,
                               const char* result) {
  obs::span_annotate(tracer_, ue.span, "result", result);
  obs::span_end(tracer_, ue.span);
  obs::span_take(tracer_,
                 obs::span_key("attach", config_.cell.value(), id.value()));
  ue.span = obs::kNoSpan;
}

void EnodeB::attach_ue(ue::NasClient& client,
                       std::function<void(AttachOutcome)> on_done) {
  const EnbUeId id{static_cast<std::uint32_t>(slot_of_enb_id_.size())};
  std::uint32_t slot = 0;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(pending_.size());
    pending_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slot_of_enb_id_.push_back(slot);
  PendingUe& ue = pending_[slot];
  ue.id = id;
  ue.client = &client;
  ue.on_done = std::move(on_done);
  ue.started_at = sim_.now();
  ue.span = obs::span_begin(tracer_, "attach", span_cat_);
  obs::span_annotate(tracer_, ue.span, "cell",
                     [&] { return std::to_string(config_.cell.value()); });
  // Handoff to the core: the MME parents its dialogue phases here.
  obs::span_stash(tracer_,
                  obs::span_key("attach", config_.cell.value(), id.value()),
                  ue.span);
  ++started_;

  // RRC connection establishment, then the initial NAS message.
  sim_.schedule(
      config_.rrc_setup + config_.radio_one_way,
      [this, id] {
        PendingUe* pending = find_pending(id);
        if (pending == nullptr) return;
        lte::InitialUeMessage init;
        init.enb_ue_id = id;
        init.cell = config_.cell;
        init.nas_pdu = lte::encode_nas(pending->client->start_attach());
        fabric_.enb_send(config_.cell, lte::S1apMessage{std::move(init)});
      },
      ev_label_);
  // Guard timer: bounded state when the core never answers.
  sim_.schedule(
      config_.attach_guard,
      [this, id] {
        PendingUe* pending = find_pending(id);
        if (pending == nullptr) return;
        ++failed_;
        close_attach_span(id, *pending, "guard_expired");
        AttachOutcome out;
        out.success = false;
        out.elapsed = sim_.now() - pending->started_at;
        auto cb = finish(*pending);
        if (cb) cb(out);
      },
      ev_label_);
}

std::function<void(AttachOutcome)> EnodeB::finish(PendingUe& ue) {
  auto cb = std::move(ue.on_done);
  slot_of_enb_id_[ue.id.value()] = kNoSlot;
  free_slots_.push_back(static_cast<std::uint32_t>(&ue - pending_.data()));
  ue = PendingUe{};
  return cb;
}

void EnodeB::on_s1ap(lte::S1apMessage&& message) {
  if (auto* down = std::get_if<lte::DownlinkNasTransport>(&message)) {
    PendingUe* ue = find_pending(down->enb_ue_id);
    if (ue == nullptr) return;
    ue->mme_ue_id = down->mme_ue_id;
    // Radio latency down to the UE; reply (if any) pays it back up.
    RadioNas* radio = radio_nas_.acquire();
    radio->enb_id = down->enb_ue_id;
    radio->mme_id = down->mme_ue_id;
    radio->pdu = std::move(down->nas_pdu);
    sim_.schedule(
        config_.radio_one_way, [this, radio] { deliver_nas_to_ue(radio); },
        ev_label_);
    return;
  }
  if (const auto* ctx =
          std::get_if<lte::InitialContextSetupRequest>(&message)) {
    PendingUe* ue = find_pending(ctx->enb_ue_id);
    if (ue == nullptr) return;
    ue->context_setup = true;
    lte::InitialContextSetupResponse resp;
    resp.enb_ue_id = ctx->enb_ue_id;
    resp.mme_ue_id = ctx->mme_ue_id;
    resp.enb_downlink_teid =
        Teid{config_.downlink_teid_base.value() + ctx->enb_ue_id.value()};
    fabric_.enb_send(config_.cell, lte::S1apMessage{resp});
    check_completion(ctx->enb_ue_id, *ue);
    return;
  }
}

void EnodeB::deliver_nas_to_ue(RadioNas* radio) {
  const EnbUeId enb_id = radio->enb_id;
  PendingUe* ue = find_pending(enb_id);
  auto nas = lte::decode_nas(radio->pdu);
  if (ue == nullptr || !nas) {
    radio_nas_.release(radio);
    return;
  }
  auto reply = ue->client->handle(*nas);
  if (reply) {
    // The record carries the reply back up, encoded now (encoding
    // depends on the message alone) over the downlink PDU's buffer, and
    // sent after the radio latency.
    lte::encode_nas(*reply, radio->pdu);
    sim_.schedule(
        config_.radio_one_way, [this, radio] { send_nas_to_mme(radio); },
        ev_label_);
  } else {
    radio_nas_.release(radio);
  }
  check_completion(enb_id, *ue);
}

void EnodeB::send_nas_to_mme(RadioNas* up_nas) {
  lte::UplinkNasTransport up;
  up.enb_ue_id = up_nas->enb_id;
  up.mme_ue_id = up_nas->mme_id;
  up.nas_pdu = std::move(up_nas->pdu);
  radio_nas_.release(up_nas);
  fabric_.enb_send(config_.cell, lte::S1apMessage{std::move(up)});
}

void EnodeB::check_completion(EnbUeId id, PendingUe& ue) {
  if (ue.client->state() == ue::NasClientState::kRejected) {
    ++failed_;
    close_attach_span(id, ue, "rejected");
    AttachOutcome out;
    out.success = false;
    out.elapsed = sim_.now() - ue.started_at;
    auto cb = finish(ue);
    if (cb) cb(out);
    return;
  }
  if (ue.client->registered() && ue.context_setup) {
    ++succeeded_;
    obs::span_annotate(tracer_, ue.span, "ue_ip",
                       [&] { return std::to_string(ue.client->ue_ip()); });
    close_attach_span(id, ue, "registered");
    AttachOutcome out;
    out.success = true;
    out.elapsed = sim_.now() - ue.started_at;
    out.ue_ip = ue.client->ue_ip();
    auto cb = finish(ue);
    if (cb) cb(out);
  }
}

}  // namespace dlte::core
