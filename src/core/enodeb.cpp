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
  const EnbUeId id{next_enb_ue_id_++};
  PendingUe ue;
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
  pending_.emplace(id.value(), std::move(ue));
  ++started_;

  // RRC connection establishment, then the initial NAS message.
  sim_.schedule(
      config_.rrc_setup + config_.radio_one_way,
      [this, id] {
        auto it = pending_.find(id.value());
        if (it == pending_.end()) return;
        lte::InitialUeMessage init;
        init.enb_ue_id = id;
        init.cell = config_.cell;
        init.nas_pdu = lte::encode_nas(it->second.client->start_attach());
        fabric_.enb_send(config_.cell, lte::S1apMessage{init});
      },
      ev_label_);
  // Guard timer: bounded state when the core never answers.
  sim_.schedule(
      config_.attach_guard,
      [this, id] {
        auto it = pending_.find(id.value());
        if (it == pending_.end() || it->second.done) return;
        ++failed_;
        close_attach_span(id, it->second, "guard_expired");
        AttachOutcome out;
        out.success = false;
        out.elapsed = sim_.now() - it->second.started_at;
        auto cb = std::move(it->second.on_done);
        pending_.erase(it);
        if (cb) cb(out);
      },
      ev_label_);
}

void EnodeB::on_s1ap(const lte::S1apMessage& message) {
  if (const auto* down = std::get_if<lte::DownlinkNasTransport>(&message)) {
    auto it = pending_.find(down->enb_ue_id.value());
    if (it == pending_.end()) return;
    // Radio latency down to the UE; reply (if any) pays it back up.
    const EnbUeId enb_id = down->enb_ue_id;
    const MmeUeId mme_id = down->mme_ue_id;
    it->second.mme_ue_id = mme_id;
    const auto pdu = down->nas_pdu;
    sim_.schedule(config_.radio_one_way, [this, enb_id, mme_id, pdu] {
      auto it2 = pending_.find(enb_id.value());
      if (it2 == pending_.end()) return;
      PendingUe& ue = it2->second;
      auto nas = lte::decode_nas(pdu);
      if (!nas) return;
      auto reply = ue.client->handle(*nas);
      if (reply) {
        sim_.schedule(
            config_.radio_one_way,
            [this, enb_id, mme_id, r = *reply] {
              send_nas_to_mme(enb_id, mme_id, r);
            },
            ev_label_);
      }
      check_completion(enb_id, ue);
    },
        ev_label_);
    return;
  }
  if (const auto* ctx =
          std::get_if<lte::InitialContextSetupRequest>(&message)) {
    auto it = pending_.find(ctx->enb_ue_id.value());
    if (it == pending_.end()) return;
    it->second.context_setup = true;
    lte::InitialContextSetupResponse resp;
    resp.enb_ue_id = ctx->enb_ue_id;
    resp.mme_ue_id = ctx->mme_ue_id;
    resp.enb_downlink_teid =
        Teid{config_.downlink_teid_base.value() + ctx->enb_ue_id.value()};
    fabric_.enb_send(config_.cell, lte::S1apMessage{resp});
    check_completion(ctx->enb_ue_id, it->second);
    return;
  }
}

void EnodeB::send_nas_to_mme(EnbUeId enb_id, MmeUeId mme_id,
                             const lte::NasMessage& nas) {
  lte::UplinkNasTransport up;
  up.enb_ue_id = enb_id;
  up.mme_ue_id = mme_id;
  up.nas_pdu = lte::encode_nas(nas);
  fabric_.enb_send(config_.cell, lte::S1apMessage{up});
}

void EnodeB::check_completion(EnbUeId id, PendingUe& ue) {
  if (ue.done) return;
  if (ue.client->state() == ue::NasClientState::kRejected) {
    ue.done = true;
    ++failed_;
    close_attach_span(id, ue, "rejected");
    AttachOutcome out;
    out.success = false;
    out.elapsed = sim_.now() - ue.started_at;
    if (ue.on_done) ue.on_done(out);
    pending_.erase(id.value());
    return;
  }
  if (ue.client->registered() && ue.context_setup) {
    ue.done = true;
    ++succeeded_;
    obs::span_annotate(tracer_, ue.span, "ue_ip",
                       [&] { return std::to_string(ue.client->ue_ip()); });
    close_attach_span(id, ue, "registered");
    AttachOutcome out;
    out.success = true;
    out.elapsed = sim_.now() - ue.started_at;
    out.ue_ip = ue.client->ue_ip();
    if (ue.on_done) ue.on_done(out);
    pending_.erase(id.value());
  }
}

}  // namespace dlte::core
