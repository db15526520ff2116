#include "core/access_point.h"

namespace dlte::core {

DlteAccessPoint::DlteAccessPoint(sim::Simulator& sim, net::Network& net,
                                 NodeId backhaul_node,
                                 RadioEnvironment& radio_env, ApConfig config)
    : sim_(sim),
      net_(net),
      node_(backhaul_node),
      radio_env_(radio_env),
      config_(config),
      network_id_("dlte-ap-" + std::to_string(config.id.value())),
      cell_mac_([&] {
        mac::CellMacConfig mc = config.mac;
        mc.bandwidth = config.radio.bandwidth;
        mc.seed = config.seed ^ 0x9e37;
        return mc;
      }()) {
  // Local core stub (§4.1): every EPC function the client needs, on-box.
  epc::EpcConfig ec;
  ec.deployment = epc::CoreDeployment::kLocalStub;
  ec.network_id = network_id_;
  // Each AP hands out addresses from its own block: dLTE addresses are
  // scoped to the serving AP (§4.2 — a move means a new address).
  ec.ip_pool_base = 0x0A2D0000u + (config_.id.value() << 8);
  core_ = std::make_unique<epc::EpcCore>(
      sim_, ec, sim::RngStream::derive(config_.seed, "hss"));

  fabric_ = std::make_unique<S1Fabric>(sim_, core_->mme());
  EnbConfig enb_cfg = config_.enb;
  enb_cfg.cell = config_.cell;
  enodeb_ = std::make_unique<EnodeB>(sim_, *fabric_, enb_cfg);
  fabric_->register_enb_direct(
      config_.cell, config_.stub_s1_latency,
      [this](lte::S1apMessage&& m) { enodeb_->on_s1ap(std::move(m)); });

  coordinator_ = std::make_unique<spectrum::PeerCoordinator>(
      sim_, net_, node_,
      spectrum::CoordinatorConfig{config_.id, config_.mode,
                                  config_.coordination_period});
  coordinator_->attach_cell(&cell_mac_);

  // Put the cell on the air (in the shared radio environment).
  radio_env_.add_cell(CellSiteConfig{config_.cell, config_.position,
                                     config_.radio, config_.frequency});
}

DlteAccessPoint::~DlteAccessPoint() { *alive_ = false; }

void DlteAccessPoint::set_span_tracer(obs::SpanTracer* tracer,
                                      const std::string& prefix) {
  tracer_ = tracer;
  span_cat_ = prefix + "ap";
  enodeb_->set_tracer(tracer, prefix);
  core_->set_tracer(tracer, prefix);
  coordinator_->set_tracer(tracer, prefix);
}

void DlteAccessPoint::set_metrics(obs::MetricsRegistry* registry,
                                  const std::string& prefix) {
  if (registry == nullptr) {
    m_up_ = nullptr;
    m_lease_degraded_ = nullptr;
    m_renewal_failures_ = nullptr;
    return;
  }
  const std::string base =
      prefix + "ap" + std::to_string(config_.id.value()) + ".";
  m_up_ = &registry->gauge(base + "up");
  m_lease_degraded_ = &registry->gauge(base + "lease_degraded");
  m_renewal_failures_ = &registry->counter(base + "lease_renewal_failures");
  m_up_->set(failed_ ? 0.0 : 1.0);
  m_lease_degraded_->set(degraded_since_ ? 1.0 : 0.0);
}

void DlteAccessPoint::mark_lease(const char* state) {
  const obs::SpanId s = obs::span_begin(tracer_, "ap_lease", span_cat_);
  obs::span_annotate(tracer_, s, "state", state);
  obs::span_end(tracer_, s);
}

void DlteAccessPoint::bring_up(spectrum::Registry& registry,
                               std::function<void(bool)> on_done) {
  spectrum::GrantRequest req;
  req.ap = config_.id;
  req.location = config_.position;
  req.center_frequency = config_.frequency;
  req.bandwidth = config_.radio.bandwidth;
  req.max_eirp = config_.radio.tx_power + config_.radio.tx_antenna_gain;
  req.operator_contact = config_.operator_contact;
  req.coordination_node = node_;

  registry.request_grant(
      std::move(req),
      [this, &registry, alive = alive_, on_done = std::move(on_done)](
          Result<spectrum::SpectrumGrant> grant) {
        if (!*alive) return;  // AP torn down while the grant was pending.
        if (!grant) {
          if (on_done) on_done(false);
          return;
        }
        grant_ = *grant;
        // Leased grants must be kept alive (a dead AP's grant lapses and
        // frees its neighbours' spectrum).
        start_lease_heartbeat(registry);
        // Discover the contention domain and peer up.
        registry.query_region(
            config_.position,
            [this, alive,
             on_done](std::vector<spectrum::SpectrumGrant> grants) {
              if (!*alive) return;
              for (const auto& g : grants) {
                if (g.ap == config_.id) continue;
                coordinator_->add_peer(g.ap, g.coordination_node);
              }
              coordinator_->send_hello(config_.operator_contact);
              if (config_.mode != lte::DlteMode::kIsolated) {
                radio_env_.set_coordinated(config_.cell, true);
              }
              coordinator_->start();
              if (on_done) on_done(true);
            });
      });
}

void DlteAccessPoint::start_lease_heartbeat(spectrum::Registry& registry) {
  if (registry.grant_lifetime().is_zero()) return;
  lease_heartbeat_ = sim_.every_cancellable(
      registry.grant_lifetime() / 3, [this, &registry] {
        if (!grant_) return;
        if (registry.heartbeat_outcome(grant_->id) ==
            spectrum::HeartbeatOutcome::kRenewed) {
          if (degraded_since_) {
            // Registry is back; resume full power.
            degraded_since_.reset();
            radio_env_.set_power_backoff_db(config_.cell, 0.0);
            obs::set(m_lease_degraded_, 0.0);
            mark_lease("restored");
          }
          return;
        }
        obs::inc(m_renewal_failures_);
        // Renewal failed (registry outage, partition, or a lapsed lease).
        // Don't vanish from the air on the first miss: degrade to
        // conservative power and keep trying for the grace window — a
        // registry outage shorter than the grace costs capacity, not
        // service.
        if (!degraded_since_) {
          degraded_since_ = sim_.now();
          obs::set(m_lease_degraded_, 1.0);
          radio_env_.set_power_backoff_db(config_.cell,
                                          config_.degraded_power_backoff_db);
          mark_lease("degraded");
        } else if (sim_.now() - *degraded_since_ >= config_.lease_grace) {
          grant_.reset();
          degraded_since_.reset();
          obs::set(m_lease_degraded_, 0.0);
          mark_lease("lapsed");
          lease_heartbeat_.cancel();
        }
      });
}

std::size_t DlteAccessPoint::import_published_subscribers(
    const spectrum::Registry& registry) {
  std::size_t imported = 0;
  for (const auto& keys : registry.published_subscribers()) {
    if (!core_->hss().has_subscriber(keys.imsi)) {
      core_->hss().provision_with_opc(keys.imsi, keys.k, keys.opc);
      ++imported;
    }
  }
  return imported;
}

void DlteAccessPoint::attach(UeDevice& ue, mac::UeTrafficConfig traffic,
                             std::function<void(AttachOutcome)> on_done) {
  if (failed_) {
    // A crashed AP does not answer RACH: the UE's attach dies quickly at
    // the radio layer rather than running the full NAS guard timer.
    if (on_done) {
      sim_.schedule(config_.enb.rrc_setup, [on_done = std::move(on_done)] {
        on_done(AttachOutcome{});
      });
    }
    return;
  }
  auto& client = ue.begin_attachment(network_id_);
  UeDevice* ue_ptr = &ue;
  enodeb_->attach_ue(
      client, [this, ue_ptr, traffic,
               on_done = std::move(on_done)](AttachOutcome outcome) {
        if (outcome.success) adopt_ue(*ue_ptr, traffic);
        if (on_done) on_done(outcome);
      });
}

void DlteAccessPoint::attach_with_retry(
    UeDevice& ue, mac::UeTrafficConfig traffic, ue::AttachRetryPolicy policy,
    std::function<void(AttachOutcome)> on_done) {
  // Per-UE backoff stream: every UE jitters independently of the others
  // (de-synchronizing a re-attach storm) but identically across runs.
  auto rng = std::make_shared<sim::RngStream>(sim::RngStream::derive(
      config_.seed ^ ue.imsi().value(), "attach-retry"));
  try_attach(&ue, traffic, policy, std::move(rng), 1, std::move(on_done));
}

void DlteAccessPoint::try_attach(UeDevice* ue, mac::UeTrafficConfig traffic,
                                 ue::AttachRetryPolicy policy,
                                 std::shared_ptr<sim::RngStream> rng,
                                 int attempt,
                                 std::function<void(AttachOutcome)> on_done) {
  attach(*ue, traffic,
         [this, ue, traffic, policy, rng = std::move(rng), attempt,
          alive = alive_,
          on_done = std::move(on_done)](AttachOutcome outcome) mutable {
           if (outcome.success || attempt >= policy.max_attempts) {
             if (on_done) on_done(outcome);
             return;
           }
           const Duration wait = policy.backoff(attempt, *rng);
           const obs::SpanId s =
               obs::span_begin(tracer_, "attach_retry", span_cat_);
           obs::span_annotate(tracer_, s, "imsi", [&] {
             return std::to_string(ue->imsi().value());
           });
           obs::span_annotate(tracer_, s, "attempt",
                              [&] { return std::to_string(attempt); });
           obs::span_annotate(tracer_, s, "backoff_ms", [&] {
             return std::to_string(wait.to_millis());
           });
           obs::span_end(tracer_, s);
           sim_.schedule(wait, [this, ue, traffic, policy,
                                rng = std::move(rng), attempt,
                                alive = std::move(alive),
                                on_done = std::move(on_done)]() mutable {
             if (!*alive) return;
             try_attach(ue, traffic, policy, std::move(rng), attempt + 1,
                        std::move(on_done));
           });
         });
}

void DlteAccessPoint::fail() {
  if (failed_) return;
  failed_ = true;
  obs::set(m_up_, 0.0);
  // The core process dies: EMM contexts and bearers are volatile. The
  // HSS's flash-backed subscriber DB survives the reboot.
  core_->crash();
  // Every radio bearer dies with the box.
  for (auto& [imsi, mac_ue] : mac_ue_ids_) {
    if (cell_mac_.has_ue(mac_ue)) cell_mac_.remove_ue(mac_ue);
  }
  mac_ue_ids_.clear();
  // Off the air: UEs stop seeing this cell; neighbours stop seeing its
  // interference.
  radio_env_.set_cell_active(config_.cell, false);
  // The X2 endpoint goes dark — peers will expire us from their share
  // rounds after their liveness timeout.
  coordinator_->set_offline(true);
  // No heartbeats from a dead box: the grant degrades and then lapses at
  // the registry, freeing the spectrum if we never come back.
  lease_heartbeat_.cancel();
}

void DlteAccessPoint::recover(spectrum::Registry* registry) {
  if (!failed_) return;
  failed_ = false;
  obs::set(m_up_, 1.0);
  obs::set(m_lease_degraded_, 0.0);
  radio_env_.set_cell_active(config_.cell, true);
  radio_env_.set_power_backoff_db(config_.cell, 0.0);
  degraded_since_.reset();
  coordinator_->set_offline(false);
  if (registry != nullptr) {
    // Rejoin from scratch: fresh grant (the old one lapsed or will), peer
    // rediscovery, hello. Exactly the organic bring-up path — a reboot is
    // not special.
    if (grant_) {
      registry->revoke(grant_->id);
      grant_.reset();
    }
    bring_up(*registry);
  } else {
    // No registry in this deployment: just re-announce to the peers.
    coordinator_->send_hello(config_.operator_contact);
  }
}

void DlteAccessPoint::adopt_ue(UeDevice& ue, mac::UeTrafficConfig traffic) {
  // Register the UE's bearer with the cell MAC; its SINR follows its
  // position in the shared radio environment.
  const UeId mac_ue{next_ue_++};
  mac_ue_ids_[ue.imsi()] = mac_ue;
  const CellId cell = config_.cell;
  RadioEnvironment* env = &radio_env_;
  UeDevice* ue_ptr = &ue;
  cell_mac_.add_ue(
      mac_ue,
      [env, cell, ue_ptr] {
        return env->downlink_sinr(cell, ue_ptr->position());
      },
      traffic);
}

void DlteAccessPoint::drop_ue(UeDevice& ue) {
  const auto it = mac_ue_ids_.find(ue.imsi());
  if (it == mac_ue_ids_.end()) return;
  if (cell_mac_.has_ue(it->second)) cell_mac_.remove_ue(it->second);
  mac_ue_ids_.erase(it);
}

}  // namespace dlte::core
