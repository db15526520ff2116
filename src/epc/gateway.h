// S-GW / P-GW: bearer tunnel endpoints and UE address allocation.
//
// In the centralized deployment these anchor every user packet at the
// core site (Fig. 1 left); in the dLTE local core stub they collapse into
// the AP and do nothing but hand out an address and strip/add the GTP
// header locally (§4.1: the AP "terminates all LTE tunnels … and outputs
// the client's unencapsulated IP traffic").
#pragma once

#include <cstdint>
#include <optional>

#include "common/flat_map.h"
#include "common/ids.h"
#include "common/result.h"
#include "net/network.h"
#include "obs/metrics.h"

namespace dlte::epc {

struct BearerContext {
  Imsi imsi;
  BearerId bearer{5};
  Teid uplink_teid;     // Core-side tunnel endpoint (eNB → gateway).
  Teid downlink_teid;   // eNB-side tunnel endpoint (gateway → eNB).
  net::Ipv4 ue_ip{};
};

class Gateway {
 public:
  // `ip_pool_base` e.g. 10.45.0.0; addresses are handed out sequentially.
  explicit Gateway(std::uint32_t ip_pool_base)
      : ip_pool_base_(ip_pool_base) {}

  // Create a session: allocates the UE address and the core-side TEID.
  // The eNodeB-side TEID arrives later via complete_session(). The
  // reference (like every find_*() pointer) is valid until the next
  // create_session() or delete_session().
  [[nodiscard]] BearerContext& create_session(Imsi imsi, BearerId bearer);
  void complete_session(Imsi imsi, Teid enb_downlink_teid);
  void delete_session(Imsi imsi);
  // Crash semantics (src/fault): every bearer is volatile tunnel state and
  // dies with the process. Address/TEID counters keep advancing, so UEs
  // re-attaching after the restart get fresh addresses (dLTE §4.2 treats
  // an address change as normal).
  void clear_sessions() {
    obs::inc(m_bearers_released_, by_imsi_.size());
    by_imsi_.clear();
  }

  [[nodiscard]] const BearerContext* find_by_imsi(Imsi imsi) const;
  [[nodiscard]] const BearerContext* find_by_uplink_teid(Teid teid) const;
  [[nodiscard]] const BearerContext* find_by_ue_ip(net::Ipv4 ip) const;

  [[nodiscard]] std::size_t session_count() const { return by_imsi_.size(); }

  // User-plane byte accounting, into `epc.gw.{up,down}link_bytes`.
  void count_uplink(int bytes) {
    obs::inc(m_uplink_bytes_, static_cast<std::uint64_t>(bytes));
  }
  void count_downlink(int bytes) {
    obs::inc(m_downlink_bytes_, static_cast<std::uint64_t>(bytes));
  }

  // Export bearer lifecycle and user-plane byte counters under
  // `<prefix>epc.gw.*`.
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "");

 private:
  std::uint32_t ip_pool_base_;
  std::uint32_t next_host_{1};
  std::uint32_t next_teid_{1};
  FlatMap<Imsi, BearerContext> by_imsi_;

  obs::Counter* m_bearers_created_{nullptr};
  obs::Counter* m_bearers_completed_{nullptr};
  obs::Counter* m_bearers_released_{nullptr};
  obs::Counter* m_uplink_bytes_{nullptr};
  obs::Counter* m_downlink_bytes_{nullptr};
};

}  // namespace dlte::epc
