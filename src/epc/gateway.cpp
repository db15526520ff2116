#include "epc/gateway.h"

namespace dlte::epc {

void Gateway::set_metrics(obs::MetricsRegistry* registry,
                          const std::string& prefix) {
  if (registry == nullptr) {
    m_bearers_created_ = nullptr;
    m_bearers_completed_ = nullptr;
    m_bearers_released_ = nullptr;
    m_uplink_bytes_ = nullptr;
    m_downlink_bytes_ = nullptr;
    return;
  }
  m_bearers_created_ = &registry->counter(prefix + "epc.gw.bearers_created");
  m_bearers_completed_ =
      &registry->counter(prefix + "epc.gw.bearers_completed");
  m_bearers_released_ =
      &registry->counter(prefix + "epc.gw.bearers_released");
  m_uplink_bytes_ = &registry->counter(prefix + "epc.gw.uplink_bytes");
  m_downlink_bytes_ = &registry->counter(prefix + "epc.gw.downlink_bytes");
}

BearerContext& Gateway::create_session(Imsi imsi, BearerId bearer) {
  BearerContext ctx;
  ctx.imsi = imsi;
  ctx.bearer = bearer;
  ctx.uplink_teid = Teid{next_teid_++};
  ctx.ue_ip = net::Ipv4{ip_pool_base_ + next_host_++};
  obs::inc(m_bearers_created_);
  return by_imsi_.insert_or_assign(imsi, ctx);
}

void Gateway::complete_session(Imsi imsi, Teid enb_downlink_teid) {
  if (BearerContext* ctx = by_imsi_.find(imsi)) {
    ctx->downlink_teid = enb_downlink_teid;
    obs::inc(m_bearers_completed_);
  }
}

void Gateway::delete_session(Imsi imsi) {
  if (by_imsi_.erase(imsi)) obs::inc(m_bearers_released_);
}

const BearerContext* Gateway::find_by_imsi(Imsi imsi) const {
  return by_imsi_.find(imsi);
}

const BearerContext* Gateway::find_by_uplink_teid(Teid teid) const {
  return by_imsi_.find_if(
      [teid](const BearerContext& ctx) { return ctx.uplink_teid == teid; });
}

const BearerContext* Gateway::find_by_ue_ip(net::Ipv4 ip) const {
  return by_imsi_.find_if(
      [ip](const BearerContext& ctx) { return ctx.ue_ip == ip; });
}

}  // namespace dlte::epc
