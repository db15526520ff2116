// PeerCoordinator: the dLTE X2-over-Internet agent, one per AP.
//
// §4.3's operational model made concrete: after the registry hands an AP
// the membership of its RF contention domain, the coordinators exchange
// extended-X2 messages over the backhaul Internet path (no carrier core
// in the loop — the Fig. 1 contrast). Each reporting period every member
// broadcasts a DltePeerStatus; the lowest ApId acts as round leader,
// computes the share vector (max-min fair, or demand-proportional when
// every member opted into cooperative mode), and broadcasts a
// DlteShareProposal, which members apply to their MAC's PRB quota and
// acknowledge. "Aside from selecting the mode, all optimization and day
// to day management is automated."
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/ids.h"
#include "lte/x2ap.h"
#include "mac/lte_cell_mac.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace dlte::spectrum {

// Network protocol tag for X2 traffic.
inline constexpr std::uint16_t kX2Protocol = 0x5832;  // "X2".

struct CoordinatorConfig {
  ApId ap;
  lte::DlteMode mode{lte::DlteMode::kFairShare};
  Duration report_period{Duration::seconds(1.0)};
  // Declare a peer dead after silence for this long and recompute shares
  // without it (survivors reclaim its spectrum). Zero disables liveness
  // tracking (a silent peer holds its share forever — the pre-fault
  // behaviour).
  Duration peer_liveness_timeout{Duration::seconds(3.5)};
};

struct CoordinatorStats {
  std::uint64_t messages_sent{0};
  std::uint64_t bytes_sent{0};
  std::uint64_t messages_received{0};
  std::uint64_t rounds_led{0};
  std::uint64_t shares_applied{0};
  std::uint64_t peers_expired{0};       // Declared dead by liveness timeout.
  std::uint64_t x2_drops_injected{0};   // Lost to injected impairment.
  std::uint64_t x2_dups_injected{0};    // Duplicated by injected impairment.
  std::uint64_t mode_rejects{0};        // Refused coexistence-mode switches.
};

// Injected X2 impairment (src/fault): each outbound message is dropped
// with probability `drop` or sent twice with probability `duplicate`.
struct X2Impairment {
  double drop{0.0};
  double duplicate{0.0};
};

class PeerCoordinator {
 public:
  PeerCoordinator(sim::Simulator& sim, net::Network& net, NodeId node,
                  CoordinatorConfig config);
  // Unregisters the node's X2 handler: a torn-down AP must not leave a
  // dangling callback behind in the network.
  ~PeerCoordinator();
  PeerCoordinator(const PeerCoordinator&) = delete;
  PeerCoordinator& operator=(const PeerCoordinator&) = delete;

  // The cell whose PRB quota this coordinator manages (optional: C7
  // measures pure protocol overhead without a cell attached).
  void attach_cell(mac::LteCellMac* cell) { cell_ = cell; }

  void add_peer(ApId ap, NodeId node);
  // Announce ourselves to all known peers (the joining AP's side of
  // organic expansion); receivers add us to their peer set automatically.
  void send_hello(const std::string& operator_contact);
  void set_offered_load(double load) { offered_load_ = load; }

  // Switch coordination mode. Coexistence modes (kLbt, kDutyCycle) are
  // only legal on a band the registry reports as shared with live WiFi
  // occupants (set_wifi_occupants); switching blind would silently stop
  // X2 share rounds with nobody on the air to defer to. A refused switch
  // leaves the mode unchanged, bumps stats().mode_rejects, and counts on
  // the `<prefix>spectrum.mode_rejects` counter. Returns whether the
  // switch was applied.
  bool set_mode(lte::DlteMode mode);

  // WiFi occupancy of this AP's granted band, as learned from the
  // registry (Registry::wifi_occupants) or a site survey. Gates the
  // coexistence modes above.
  void set_wifi_occupants(std::size_t occupants) {
    wifi_occupants_ = occupants;
  }
  [[nodiscard]] std::size_t wifi_occupants() const { return wifi_occupants_; }

  // Begin periodic status reporting + share rounds.
  void start();

  // Cooperative-mode handover transport: X2 handover messages ride the
  // same peer links. The owner (core::HandoverManager) registers a sink;
  // unhandled X2 kinds are silently dropped as before.
  using HandoverSink =
      std::function<void(const lte::X2Message&, NodeId from)>;
  void set_handover_sink(HandoverSink sink) {
    handover_sink_ = std::move(sink);
  }
  // Send an arbitrary X2 message to a peer AP (by id) or node.
  bool send_to_peer(ApId peer, const lte::X2Message& message);
  void send_to_node(NodeId node, const lte::X2Message& message) {
    send_to(node, message);
  }
  [[nodiscard]] std::optional<NodeId> peer_node(ApId peer) const;

  // Observe peers declared dead by the liveness timeout.
  void set_peer_loss_observer(std::function<void(ApId)> observer) {
    peer_loss_observer_ = std::move(observer);
  }

  // --- Fault hooks (src/fault) -----------------------------------------
  // A crashed AP's coordinator goes silent: it neither sends nor receives
  // until brought back online. Peers notice via the liveness timeout.
  void set_offline(bool offline) { offline_ = offline; }
  [[nodiscard]] bool offline() const { return offline_; }
  // Drop/duplicate outbound X2 messages (coordination-plane loss).
  void set_impairment(X2Impairment impairment) { impairment_ = impairment; }

  [[nodiscard]] double current_share() const { return current_share_; }
  [[nodiscard]] const CoordinatorStats& stats() const { return stats_; }
  [[nodiscard]] lte::DlteMode mode() const { return config_.mode; }
  [[nodiscard]] ApId ap() const { return config_.ap; }
  [[nodiscard]] std::size_t peer_count() const { return peers_.size(); }

  // Export X2 coordination counters under `<prefix>x2.*`, including
  // grant churn (share changes that actually moved the PRB quota).
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "");

  // Causal tracing: when this coordinator leads a round it opens an
  // "x2_round" span (category `<prefix>x2`) covering proposal broadcast
  // through the last peer's DlteShareAccept; peers annotate the leader's
  // span via the shared tracer's stash under span_key("x2_round", round).
  void set_tracer(obs::SpanTracer* tracer, const std::string& prefix = "");

 private:
  void on_packet(const net::Packet& packet);
  void send_to(NodeId node, const lte::X2Message& message);
  void broadcast(const lte::X2Message& message);
  void report_status();
  void maybe_lead_round();
  void expire_dead_peers();
  void note_heard(ApId ap);
  [[nodiscard]] bool is_leader() const;
  // A share won in an X2 round is recorded as the round span's
  // `applied` annotation.
  void apply_share(double share, obs::SpanId round_span = obs::kNoSpan);
  // Closes the led round's span (all accepts in, or superseded/offline).
  void close_round_span(const char* result);

  sim::Simulator& sim_;
  net::Network& net_;
  NodeId node_;
  CoordinatorConfig config_;
  mac::LteCellMac* cell_{nullptr};
  // Demand defaults to "full": an AP that never reports its load must not
  // be allocated zero spectrum by its own coordinator.
  double offered_load_{1.0};
  double current_share_{1.0};
  std::size_t wifi_occupants_{0};
  std::uint32_t round_{0};
  bool started_{false};

  sim::Simulator::PeriodicHandle ticker_;
  std::map<ApId, NodeId> peers_;
  std::map<ApId, lte::DltePeerStatus> latest_status_;
  std::map<ApId, TimePoint> last_heard_;
  HandoverSink handover_sink_;
  std::function<void(ApId)> peer_loss_observer_;
  bool offline_{false};
  X2Impairment impairment_{};
  sim::RngStream impair_rng_;
  CoordinatorStats stats_;

  obs::SpanTracer* tracer_{nullptr};
  std::string span_cat_{"x2"};
  // Led-round span state: open until every proposal recipient accepted
  // (a set, so injected duplicate accepts cannot complete a round early).
  obs::SpanId round_span_{obs::kNoSpan};
  std::uint32_t round_span_round_{0};
  std::set<std::uint32_t> round_accepts_;
  std::size_t round_accepts_needed_{0};

  obs::Counter* m_messages_sent_{nullptr};
  obs::Counter* m_bytes_sent_{nullptr};
  obs::Counter* m_messages_received_{nullptr};
  obs::Counter* m_rounds_led_{nullptr};
  obs::Counter* m_shares_applied_{nullptr};
  obs::Counter* m_grant_churn_{nullptr};
  obs::Counter* m_peers_expired_{nullptr};
  obs::Counter* m_mode_rejects_{nullptr};
};

}  // namespace dlte::spectrum
