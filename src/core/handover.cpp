#include "core/handover.h"

namespace dlte::core {

HandoverManager::HandoverManager(sim::Simulator& sim, DlteAccessPoint& ap)
    : sim_(sim), ap_(ap) {
  ap_.coordinator().set_handover_sink(
      [this](const lte::X2Message& m, NodeId from) { on_x2(m, from); });
}

void HandoverManager::set_tracer(obs::SpanTracer* tracer,
                                 const std::string& prefix) {
  tracer_ = tracer;
  span_cat_ = prefix + "handover";
}

void HandoverManager::initiate(UeDevice& ue, ApId target_ap,
                               mac::UeTrafficConfig traffic,
                               std::function<void(HandoverOutcome)> on_done) {
  const Imsi imsi = ue.imsi();
  HandoverOutcome fail_out;
  const auto trace_refusal = [&](const std::string& why) {
    // A zero-duration marker span: the refusal is still a procedure the
    // trace should show, it just never left this AP.
    const obs::SpanId s =
        obs::span_begin(tracer_, "handover_refused", span_cat_);
    obs::span_annotate(tracer_, s, "imsi",
                       [&] { return std::to_string(imsi.value()); });
    obs::span_annotate(tracer_, s, "reason", why);
    obs::span_end(tracer_, s);
  };
  if (ap_.coordinator().mode() != lte::DlteMode::kCooperative) {
    fail_out.failure_reason = "source AP not in cooperative mode";
    trace_refusal(fail_out.failure_reason);
    if (on_done) on_done(fail_out);
    return;
  }
  if (!ap_.core().mme().is_registered(imsi)) {
    fail_out.failure_reason = "UE not registered at source";
    trace_refusal(fail_out.failure_reason);
    if (on_done) on_done(fail_out);
    return;
  }
  if (!ap_.coordinator().peer_node(target_ap)) {
    fail_out.failure_reason = "target AP is not a known peer";
    trace_refusal(fail_out.failure_reason);
    if (on_done) on_done(fail_out);
    return;
  }
  ++initiated_;
  Pending p;
  p.ue = &ue;
  p.traffic = traffic;
  p.on_done = std::move(on_done);
  p.started_at = sim_.now();
  p.target = target_ap;
  p.span = obs::span_begin(tracer_, "handover", span_cat_);
  obs::span_annotate(tracer_, p.span, "imsi",
                     [&] { return std::to_string(imsi.value()); });
  obs::span_annotate(tracer_, p.span, "target_ap",
                     [&] { return std::to_string(target_ap.value()); });
  // The target AP's manager parents its admission span here.
  obs::span_stash(tracer_, obs::span_key("handover", imsi.value()), p.span);
  pending_[imsi.value()] = std::move(p);

  // Forward the UE context (K_eNB* stands in for the derived chain).
  lte::X2HandoverRequest req;
  req.source_cell = ap_.cell_id();
  req.target_cell = CellId{target_ap.value()};
  req.imsi = imsi;
  req.tmsi = ue.nas() != nullptr ? ue.nas()->tmsi() : Tmsi{0};
  req.security_context.assign(32, 0x5a);
  if (ue.nas() != nullptr) {
    const auto& kasme = ue.nas()->kasme();
    req.security_context.assign(kasme.begin(), kasme.end());
  }
  ap_.coordinator().send_to_peer(target_ap, lte::X2Message{req});

  // Admission timeout: a non-cooperative or unreachable target never
  // answers; the source falls back (the caller decides how — typically a
  // plain re-attach).
  sim_.schedule(Duration::millis(300), [this, imsi] {
    const auto it = pending_.find(imsi.value());
    if (it == pending_.end()) return;  // Completed in time.
    HandoverOutcome out;
    out.failure_reason = "handover admission timed out";
    obs::span_annotate(tracer_, it->second.span, "result",
                       "admission_timeout");
    obs::span_end(tracer_, it->second.span);
    obs::span_take(tracer_, obs::span_key("handover", imsi.value()));
    auto cb = std::move(it->second.on_done);
    pending_.erase(it);
    if (cb) cb(out);
  });
}

void HandoverManager::on_x2(const lte::X2Message& message, NodeId from) {
  if (const auto* req = std::get_if<lte::X2HandoverRequest>(&message)) {
    handle_request(*req, from);
    return;
  }
  if (const auto* ack = std::get_if<lte::X2HandoverRequestAck>(&message)) {
    handle_ack(*ack);
    return;
  }
  if (const auto* rel = std::get_if<lte::X2UeContextRelease>(&message)) {
    // Source confirms it released the UE; nothing further to do — the
    // target admitted the context at request time.
    (void)rel;
    return;
  }
}

void HandoverManager::handle_request(const lte::X2HandoverRequest& request,
                                     NodeId from) {
  // The admission happens on the target AP, but parents under the
  // source's stashed "handover" span (one tracer spans the peer group).
  const obs::SpanId parent = obs::span_stashed(
      tracer_, obs::span_key("handover", request.imsi.value()));
  const obs::SpanId admit =
      obs::span_begin(tracer_, "handover_admit", span_cat_, parent);
  obs::ScopedActivation act{tracer_, admit};
  // Cooperation is consensual: refuse silently unless we opted in.
  if (ap_.coordinator().mode() != lte::DlteMode::kCooperative) {
    ++refused_;
    obs::span_annotate(tracer_, admit, "result", "refused: not cooperative");
    obs::span_end(tracer_, admit);
    return;
  }
  auto bearer = ap_.core().mme().admit_handover(
      request.imsi, ap_.cell_id(), request.security_context);
  if (!bearer) {
    ++refused_;
    obs::span_annotate(tracer_, admit, "result",
                       [&] { return "refused: " + bearer.error(); });
    obs::span_end(tracer_, admit);
    return;
  }
  ++admitted_;
  obs::span_annotate(tracer_, admit, "result", "admitted");
  obs::span_annotate(tracer_, admit, "new_ue_ip",
                     [&] { return bearer->ue_ip.to_string(); });
  obs::span_end(tracer_, admit);
  lte::X2HandoverRequestAck ack;
  ack.target_cell = ap_.cell_id();
  ack.imsi = request.imsi;
  ack.forwarding_teid = bearer->uplink_teid;
  ack.new_ue_ip = bearer->ue_ip.addr;
  ap_.coordinator().send_to_node(from, lte::X2Message{ack});
}

void HandoverManager::handle_ack(const lte::X2HandoverRequestAck& ack) {
  const auto it = pending_.find(ack.imsi.value());
  if (it == pending_.end()) return;  // Timed out already.
  Pending pending = std::move(it->second);
  pending_.erase(it);

  // Release our side and command the UE over RRC: the radio interruption
  // is one reconfiguration, not a fresh attach.
  obs::ScopedActivation act{tracer_, pending.span};
  ap_.core().mme().release_ue(ack.imsi);
  if (pending.ue != nullptr) ap_.drop_ue(*pending.ue);
  ap_.coordinator().send_to_peer(
      pending.target,
      lte::X2Message{lte::X2UeContextRelease{ap_.cell_id(), ack.imsi}});

  const obs::SpanId rrc =
      obs::span_begin(tracer_, "rrc_reconfiguration", span_cat_, pending.span);
  sim_.schedule(kRrcReconfiguration, [this, pending = std::move(pending),
                                      ack, rrc]() mutable {
    obs::span_end(tracer_, rrc);
    obs::span_annotate(tracer_, pending.span, "result", "success");
    obs::span_annotate(tracer_, pending.span, "new_ue_ip",
                       [&] { return std::to_string(ack.new_ue_ip); });
    obs::span_end(tracer_, pending.span);
    obs::span_take(tracer_, obs::span_key("handover", ack.imsi.value()));
    HandoverOutcome out;
    out.success = true;
    out.interruption = kRrcReconfiguration;
    out.total = sim_.now() - pending.started_at;
    out.new_ue_ip = ack.new_ue_ip;
    if (pending.on_done) pending.on_done(out);
  });
}

}  // namespace dlte::core
