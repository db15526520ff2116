#include "spectrum/coordinator.h"

#include <algorithm>

#include "spectrum/fair_share.h"

namespace dlte::spectrum {

PeerCoordinator::PeerCoordinator(sim::Simulator& sim, net::Network& net,
                                 NodeId node, CoordinatorConfig config)
    : sim_(sim),
      net_(net),
      node_(node),
      config_(config),
      impair_rng_(sim::RngStream::derive(config.ap.value(), "x2-impair")) {
  net_.set_protocol_handler(node_, kX2Protocol, [this](net::Packet&& p) {
    on_packet(p);
  });
}

PeerCoordinator::~PeerCoordinator() {
  net_.set_protocol_handler(node_, kX2Protocol, nullptr);
}

void PeerCoordinator::set_metrics(obs::MetricsRegistry* registry,
                                  const std::string& prefix) {
  if (registry == nullptr) {
    m_messages_sent_ = nullptr;
    m_bytes_sent_ = nullptr;
    m_messages_received_ = nullptr;
    m_rounds_led_ = nullptr;
    m_shares_applied_ = nullptr;
    m_grant_churn_ = nullptr;
    m_peers_expired_ = nullptr;
    m_mode_rejects_ = nullptr;
    return;
  }
  m_messages_sent_ = &registry->counter(prefix + "x2.messages_sent");
  m_bytes_sent_ = &registry->counter(prefix + "x2.bytes_sent");
  m_messages_received_ = &registry->counter(prefix + "x2.messages_received");
  m_rounds_led_ = &registry->counter(prefix + "x2.rounds_led");
  m_shares_applied_ = &registry->counter(prefix + "x2.shares_applied");
  m_grant_churn_ = &registry->counter(prefix + "x2.grant_churn");
  m_peers_expired_ = &registry->counter(prefix + "x2.peers_expired");
  m_mode_rejects_ = &registry->counter(prefix + "spectrum.mode_rejects");
}

void PeerCoordinator::set_tracer(obs::SpanTracer* tracer,
                                 const std::string& prefix) {
  tracer_ = tracer;
  span_cat_ = prefix + "x2";
}

void PeerCoordinator::close_round_span(const char* result) {
  if (round_span_ == obs::kNoSpan) return;
  obs::span_annotate(tracer_, round_span_, "result", result);
  obs::span_end(tracer_, round_span_);
  obs::span_take(tracer_, obs::span_key("x2_round", round_span_round_));
  round_span_ = obs::kNoSpan;
  round_accepts_.clear();
  round_accepts_needed_ = 0;
}

void PeerCoordinator::add_peer(ApId ap, NodeId node) {
  if (ap == config_.ap) return;
  peers_[ap] = node;
  note_heard(ap);
}

void PeerCoordinator::note_heard(ApId ap) { last_heard_[ap] = sim_.now(); }

void PeerCoordinator::expire_dead_peers() {
  if (config_.peer_liveness_timeout.is_zero()) return;
  const TimePoint now = sim_.now();
  for (auto it = peers_.begin(); it != peers_.end();) {
    const auto heard = last_heard_.find(it->first);
    const TimePoint last =
        heard != last_heard_.end() ? heard->second : TimePoint{};
    if (now - last > config_.peer_liveness_timeout) {
      const ApId dead = it->first;
      latest_status_.erase(dead);
      last_heard_.erase(dead);
      it = peers_.erase(it);
      ++stats_.peers_expired;
      obs::inc(m_peers_expired_);
      // The next round recomputes shares over the survivors — the dead
      // peer's spectrum is reclaimed (and, should it return, its hello /
      // status re-establishes peering).
      if (peer_loss_observer_) peer_loss_observer_(dead);
    } else {
      ++it;
    }
  }
}

void PeerCoordinator::send_hello(const std::string& operator_contact) {
  lte::DlteHello hello{config_.ap, config_.mode, operator_contact};
  broadcast(lte::X2Message{hello});
}

bool PeerCoordinator::set_mode(lte::DlteMode mode) {
  if (lte::is_coexistence_mode(mode) && wifi_occupants_ == 0) {
    ++stats_.mode_rejects;
    obs::inc(m_mode_rejects_);
    return false;
  }
  config_.mode = mode;
  // Isolated APs reclaim the full band; so do coexistence-mode APs — on a
  // WiFi-shared channel the whole cell contends for the whole channel and
  // the on-air policy (LBT/duty-cycle), not a PRB split, bounds airtime.
  if (mode == lte::DlteMode::kIsolated || lte::is_coexistence_mode(mode)) {
    apply_share(1.0);
  }
  return true;
}

void PeerCoordinator::start() {
  if (started_) return;
  started_ = true;
  ticker_ = sim_.every_cancellable(config_.report_period, [this] {
    if (offline_) return;  // Crashed AP: no reports, no rounds.
    expire_dead_peers();
    report_status();
    maybe_lead_round();
  });
}

void PeerCoordinator::send_to(NodeId node, const lte::X2Message& message) {
  if (offline_) return;
  int copies = 1;
  if (impairment_.drop > 0.0 && impair_rng_.bernoulli(impairment_.drop)) {
    ++stats_.x2_drops_injected;
    return;
  }
  if (impairment_.duplicate > 0.0 &&
      impair_rng_.bernoulli(impairment_.duplicate)) {
    ++stats_.x2_dups_injected;
    copies = 2;
  }
  const int size = lte::x2_wire_size(message);
  for (int c = 0; c < copies; ++c) {
    net_.send(net::Packet{node_, node, size, kX2Protocol,
                          lte::encode_x2(message)});
    ++stats_.messages_sent;
    stats_.bytes_sent += static_cast<std::uint64_t>(size);
    obs::inc(m_messages_sent_);
    obs::inc(m_bytes_sent_, static_cast<std::uint64_t>(size));
  }
}

void PeerCoordinator::broadcast(const lte::X2Message& message) {
  for (const auto& [ap, node] : peers_) send_to(node, message);
}

void PeerCoordinator::report_status() {
  if (config_.mode == lte::DlteMode::kIsolated) return;
  lte::DltePeerStatus status;
  status.ap = config_.ap;
  status.mode = config_.mode;
  status.offered_load = offered_load_;
  status.prb_utilization = cell_ != nullptr ? cell_->prb_share() : 0.0;
  status.active_ues =
      cell_ != nullptr ? static_cast<std::uint32_t>(cell_->ue_ids().size())
                       : 0;
  // Record our own status for the leader computation.
  latest_status_[config_.ap] = status;
  broadcast(lte::X2Message{status});
}

bool PeerCoordinator::is_leader() const {
  // Lowest ApId in the domain leads the round. Deterministic and
  // leaderless in spirit: any member could compute the same shares.
  for (const auto& [ap, node] : peers_) {
    if (ap < config_.ap) return false;
  }
  return true;
}

void PeerCoordinator::maybe_lead_round() {
  if (config_.mode == lte::DlteMode::kIsolated) return;
  // Coexistence modes arbitrate airtime on the air, not in X2 rounds.
  if (lte::is_coexistence_mode(config_.mode)) return;
  if (!is_leader()) return;
  // Need fresh status from every peer before proposing.
  if (latest_status_.size() < peers_.size() + 1) return;

  std::vector<std::uint32_t> ids;
  std::vector<double> demands;
  bool all_cooperative = config_.mode == lte::DlteMode::kCooperative;
  for (const auto& [ap, status] : latest_status_) {
    ids.push_back(ap.value());
    demands.push_back(std::clamp(status.offered_load, 0.0, 1.0));
    if (status.mode != lte::DlteMode::kCooperative) all_cooperative = false;
  }

  // Cooperative mode fuses resources (demand-proportional); fair-share
  // mode guarantees the WiFi-like max-min equilibrium (§4.3).
  const auto shares = all_cooperative ? proportional_shares(demands)
                                      : max_min_fair_shares(demands);

  lte::DlteShareProposal proposal;
  proposal.round = ++round_;
  proposal.ap_ids = ids;
  proposal.shares = shares;
  ++stats_.rounds_led;
  obs::inc(m_rounds_led_);
  // A previous round still waiting for accepts is superseded.
  close_round_span("incomplete (superseded by next round)");
  round_span_ = obs::span_begin(tracer_, "x2_round", span_cat_, obs::kNoSpan);
  round_span_round_ = proposal.round;
  round_accepts_.clear();
  round_accepts_needed_ = peers_.size();
  obs::span_annotate(tracer_, round_span_, "round",
                     [&] { return std::to_string(proposal.round); });
  obs::span_annotate(tracer_, round_span_, "members",
                     [&] { return std::to_string(ids.size()); });
  obs::span_stash(tracer_, obs::span_key("x2_round", proposal.round),
                  round_span_);
  {
    // Proposal packets (and our own share application) belong to the
    // round causally.
    obs::ScopedActivation act{tracer_, round_span_};
    broadcast(lte::X2Message{proposal});
    // Apply our own slice directly.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == config_.ap.value()) apply_share(shares[i], round_span_);
    }
  }
  // A leader with no peers has nobody to wait for.
  if (round_accepts_needed_ == 0) close_round_span("complete");
}

void PeerCoordinator::apply_share(double share, obs::SpanId round_span) {
  obs::span_annotate(tracer_, round_span, "applied", [&] {
    return "ap" + std::to_string(config_.ap.value()) +
           " share=" + std::to_string(share);
  });
  const double previous = current_share_;
  current_share_ = std::clamp(share, 0.0, 1.0);
  ++stats_.shares_applied;
  obs::inc(m_shares_applied_);
  if (current_share_ != previous) obs::inc(m_grant_churn_);
  if (cell_ != nullptr) cell_->set_prb_share(current_share_);
}

void PeerCoordinator::on_packet(const net::Packet& packet) {
  if (offline_) return;  // Crashed AP: the X2 endpoint is dark.
  auto message = lte::decode_x2(packet.payload);
  if (!message) return;
  ++stats_.messages_received;
  obs::inc(m_messages_received_);

  if (const auto* hello = std::get_if<lte::DlteHello>(&*message)) {
    // A new AP announced itself; its reachable node is the packet source.
    add_peer(hello->ap, packet.src);
    return;
  }
  if (const auto* status = std::get_if<lte::DltePeerStatus>(&*message)) {
    // Status also (re)establishes peering for APs we had not met yet.
    latest_status_[status->ap] = *status;
    if (status->ap != config_.ap) add_peer(status->ap, packet.src);
    return;
  }
  if (const auto* proposal =
          std::get_if<lte::DlteShareProposal>(&*message)) {
    // A coexistence-mode AP does not take PRB splits from X2 rounds: its
    // airtime is whatever LBT/duty-cycle wins on the shared channel.
    if (lte::is_coexistence_mode(config_.mode)) return;
    for (std::size_t i = 0; i < proposal->ap_ids.size(); ++i) {
      if (proposal->ap_ids[i] == config_.ap.value() &&
          i < proposal->shares.size()) {
        // The leader's round span lives in the shared tracer's stash.
        apply_share(proposal->shares[i],
                    obs::span_stashed(
                        tracer_, obs::span_key("x2_round", proposal->round)));
        // Acknowledge to the proposer.
        lte::DlteShareAccept accept{proposal->round, config_.ap};
        send_to(packet.src, lte::X2Message{accept});
      }
    }
    return;
  }
  if (const auto* accept = std::get_if<lte::DlteShareAccept>(&*message)) {
    // Leader side: the round's span closes when every proposal recipient
    // has acknowledged. (Previously accepts were received and dropped —
    // the span gives them a job.)
    note_heard(accept->ap);
    if (accept->round == round_span_round_ && round_span_ != obs::kNoSpan &&
        round_accepts_.insert(accept->ap.value()).second) {
      obs::span_annotate(tracer_, round_span_, "accept", [&] {
        return "ap" + std::to_string(accept->ap.value());
      });
      if (round_accepts_.size() >= round_accepts_needed_) {
        close_round_span("complete");
      }
    }
    return;
  }
  // Handover family: hand to the registered sink (core::HandoverManager).
  if (handover_sink_ != nullptr &&
      (std::holds_alternative<lte::X2HandoverRequest>(*message) ||
       std::holds_alternative<lte::X2HandoverRequestAck>(*message) ||
       std::holds_alternative<lte::X2UeContextRelease>(*message))) {
    handover_sink_(*message, packet.src);
  }
}

bool PeerCoordinator::send_to_peer(ApId peer, const lte::X2Message& message) {
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return false;
  send_to(it->second, message);
  return true;
}

std::optional<NodeId> PeerCoordinator::peer_node(ApId peer) const {
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return std::nullopt;
  return it->second;
}

}  // namespace dlte::spectrum
