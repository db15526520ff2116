// SharedChannel: one unlicensed channel, two waveforms (DESIGN.md §12).
//
// The paper builds "a more WiFi-like cellular network"; this subsystem
// asks what that network looks like as a spectrum *neighbour*. A
// SharedChannel is a slot-stepped medium that WiFi DCF stations and dLTE
// transmitters register with. Unlike mac::DcfSimulator, whose sensing and
// interference relations are configured booleans, everything here derives
// from received energy through the phy::propagation path-loss models:
//
//   * carrier sense — a listener's CCA reports busy when any active
//     transmitter's power at the listener exceeds its energy-detect
//     threshold (802.11-class -82 dBm for WiFi; the LAA energy-detect
//     -72 dBm default for LTE LBT), so hidden terminals are geometry,
//     not configuration;
//   * collisions — a frame survives a slot of overlap only if the wanted
//     signal beats the strongest co-channel interferer at its receiver
//     by a capture margin.
//
// dLTE transmitters choose one of three access behaviours (the C11 sweep):
//
//   * kOblivious — the scheduled waveform transmits whenever it has
//     traffic, exactly as a licensed-band eNodeB would. On a shared
//     channel this is the LTE-U horror story the coexistence literature
//     opens with: WiFi defers to it and starves.
//   * kLbt      — LAA-style listen-before-talk: energy-detect CCA, defer
//     while busy, then the DCF contention discipline (mac::DcfBackoff —
//     the very same class the 802.11 stations run) before a bounded TXOP
//     burst. Backoff draws come from a stream derived per transmitter
//     via sim::RngStream::derive, so runs are deterministic and adding a
//     transmitter never perturbs another's draws.
//   * kDutyCycle — CSAT-style fixed on/off airtime split, blind to
//     instantaneous channel state; optionally adaptive, shrinking its
//     next on-window by the WiFi occupancy it measured while off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/geo.h"
#include "common/stats.h"
#include "common/time.h"
#include "common/units.h"
#include "mac/dcf_backoff.h"
#include "obs/metrics.h"
#include "phy/link_budget.h"
#include "phy/propagation.h"
#include "sim/random.h"

namespace dlte::coex {

enum class Waveform { kWifi, kDlte };
enum class LteCoexPolicy { kOblivious, kLbt, kDutyCycle };

[[nodiscard]] const char* to_string(LteCoexPolicy policy);

// Where a transmitter and its designated receiver sit, and with what
// radios. Both the sensing and the interference relations fall out of
// this geometry through the channel's path-loss model.
struct TransmitterSite {
  Position tx_pos;
  Position rx_pos;
  phy::RadioProfile tx_profile;
  phy::RadioProfile rx_profile;
};

// Every frame is 1500 bytes and every transmitter saturated; the channel
// constants (2.4 GHz, the C6 town profile's 2.6 path-loss exponent, the
// 802.11 -82 dBm CCA, a 10 dB capture margin) and the waveforms' rates
// and timers are listed in DESIGN.md §12.
struct LteTransmitterConfig {
  TransmitterSite site;
  LteCoexPolicy policy{LteCoexPolicy::kLbt};
  // kLbt: energy-detect threshold (dBm at the listener).
  double cca_dbm{-72.0};  // 3GPP LAA energy-detect default.
  // kDutyCycle: adaptive CSAT — after each off-window, the next
  // on-fraction becomes (1 - measured WiFi occupancy), clamped to
  // [0.1, 0.8] of the cycle. Blind CSAT keeps its 20/20 ms split forever.
  bool adaptive{false};
};

struct CoexStats {
  std::int64_t tx_slots{0};          // Airtime occupied, in 9 us slots.
  std::int64_t attempts{0};          // Frames put on the air.
  std::int64_t delivered_frames{0};
  std::int64_t collisions{0};        // Frames corrupted by overlap.
  std::int64_t dropped_frames{0};    // Retry limit exceeded (DCF/LBT).
  std::int64_t defer_slots{0};       // Slots a pending frame sat out CCA.
  double delivered_bits{0.0};
  // Channel-access latency: head-of-line ready -> frame delivered, in ms.
  Quantiles access_latency_ms;

  [[nodiscard]] DataRate goodput(Duration elapsed) const {
    return DataRate{delivered_bits / elapsed.to_seconds()};
  }
};

class SharedChannel {
 public:
  // Every transmitter's stream derives from `seed`.
  explicit SharedChannel(std::uint64_t seed);

  // Registration. Returned index identifies the transmitter across both
  // waveforms (registration order).
  int add_wifi_station(const TransmitterSite& site);
  int add_lte_transmitter(const LteTransmitterConfig& config);

  void run(Duration duration);

  [[nodiscard]] const CoexStats& stats(int index) const;
  [[nodiscard]] Duration elapsed() const { return elapsed_; }

  // Fraction of elapsed slots a waveform held the channel (sums over its
  // transmitters; > 1 is possible if spatial reuse lets them overlap).
  [[nodiscard]] double airtime_share(Waveform waveform) const;
  // Per-transmitter airtime fractions, registration order — the input to
  // jain_fairness in the C11 summary.
  [[nodiscard]] std::vector<double> airtime_fractions() const;

  // Observability: per-waveform counters `<prefix>coex.{wifi,dlte}.*`
  // (attempts, delivered, collisions, drops, defer_slots), access-latency
  // histograms `<prefix>coex.{wifi,dlte}.access_ms`, and end-of-run
  // gauges `<prefix>coex.airtime.{wifi,dlte}` and `<prefix>coex.fairness`
  // (Jain over per-transmitter airtime). Null-safe.
  void set_metrics(obs::MetricsRegistry* registry,
                   const std::string& prefix = "");

 private:
  struct Entry {
    Waveform waveform{Waveform::kWifi};
    TransmitterSite site;
    double cca_dbm{-82.0};
    sim::RngStream rng;

    // When the current head-of-line frame became ready.
    std::int64_t hol_since_slot{0};

    // Shared MAC state.
    bool transmitting{false};
    int tx_slots_remaining{0};
    bool frame_corrupted{false};
    int frame_slots{1};
    int backoff_slots{0};
    mac::DcfBackoff backoff;

    // dLTE-only.
    LteCoexPolicy policy{LteCoexPolicy::kLbt};
    std::int64_t txop_slots_remaining{0};
    bool burst_leader_pending{false};
    bool burst_leader_failed{false};
    std::int64_t on_slots{0};
    std::int64_t off_slots{0};
    std::int64_t cycle_pos{0};      // Slot position inside the on/off cycle.
    bool adaptive{false};
    std::int64_t off_busy_slots{0};  // Medium-busy samples this off-window.

    CoexStats stats;
  };

  void step_slot();
  [[nodiscard]] bool medium_busy_for(const Entry& e) const;
  void start_frame(Entry& e);
  void finish_frame(Entry& e);
  void step_wifi(Entry& e);
  void step_lte(Entry& e);
  // Pairwise energy tables, rebuilt when the population changes.
  void rebuild_energy_tables();
  void flush_run_gauges();

  std::uint64_t seed_;
  phy::LogDistanceModel model_;
  std::vector<Entry> entries_;
  // at_listener_[i][j]: power of i's transmitter at j's transmitter
  // (carrier sense); at_receiver_[i][j]: at j's designated receiver
  // (interference).
  std::vector<std::vector<double>> at_listener_;
  std::vector<std::vector<double>> at_receiver_;
  bool tables_dirty_{true};
  std::int64_t slot_index_{0};
  Duration elapsed_{};

  obs::MetricsRegistry* registry_{nullptr};
  std::string prefix_;
  obs::Counter* m_attempts_[2] = {nullptr, nullptr};
  obs::Counter* m_delivered_[2] = {nullptr, nullptr};
  obs::Counter* m_collisions_[2] = {nullptr, nullptr};
  obs::Counter* m_drops_[2] = {nullptr, nullptr};
  obs::Counter* m_defer_slots_[2] = {nullptr, nullptr};
  obs::Histogram* m_access_ms_[2] = {nullptr, nullptr};
};

}  // namespace dlte::coex
