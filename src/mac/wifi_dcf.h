// Slot-level simulation of the 802.11 DCF (CSMA/CA) MAC.
//
// This is the "legacy WiFi" baseline of Table 1 and the §4.3 comparison:
// independent transmitters contending with binary exponential backoff.
// Carrier sensing and interference are separate relations, so hidden
// terminals — the failure mode the paper's registry-based coordination
// eliminates — are modelled directly: two stations that cannot sense each
// other but whose transmissions collide at a common victim.
//
// The model is abstract on purpose: a "station" here is any transmitter
// with a designated receiver (an AP serving its downlink, or a client's
// uplink), which is the granularity the architecture experiments need.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "common/units.h"
#include "mac/dcf_backoff.h"
#include "sim/random.h"

namespace dlte::mac {

struct DcfStationConfig {
  bool saturated{true};
  double arrival_fps{0.0};   // Poisson frame arrivals when not saturated.
  int frame_bytes{1500};
  int rate_index{4};         // Index into the phy::wifi_rate ladder.
  double channel_fer{0.0};   // SNR-induced loss, independent of collisions.
  int retry_limit{7};
};

struct DcfStationStats {
  std::int64_t attempts{0};
  std::int64_t delivered_frames{0};
  std::int64_t collisions{0};       // Corrupted transmissions.
  std::int64_t channel_losses{0};   // Lost to channel error, not collision.
  std::int64_t dropped_frames{0};   // Retry limit exceeded.
  double delivered_bits{0.0};

  [[nodiscard]] DataRate goodput(Duration elapsed) const {
    return DataRate{delivered_bits / elapsed.to_seconds()};
  }
};

class DcfSimulator {
 public:
  explicit DcfSimulator(std::uint64_t seed);

  // Returns the station index. Stations default to sensing and interfering
  // with every other station (single collision domain).
  int add_station(const DcfStationConfig& config);

  // Carrier-sense relation (symmetric): can a defer to b's transmissions?
  void set_sensing(int a, int b, bool senses);
  // Interference relation (directed): does a transmission by `tx` corrupt
  // a concurrent frame from `victim_tx` at its receiver?
  void set_interference(int tx, int victim_tx, bool interferes);

  void run(Duration duration);

  [[nodiscard]] const DcfStationStats& stats(int station) const;
  [[nodiscard]] Duration elapsed() const { return elapsed_; }
  // CCA as this station sees it: is any station it senses transmitting
  // right now? Public so tests can pin the carrier-sense relation the
  // coexistence subsystem leans on.
  [[nodiscard]] bool medium_busy_for(int station) const;
  [[nodiscard]] bool transmitting(int station) const {
    return stations_[static_cast<std::size_t>(station)].transmitting;
  }

 private:
  struct Station {
    DcfStationConfig config;
    // MAC state.
    int queue{0};               // Pending frames (saturated: always ≥1).
    int backoff_slots{0};
    DcfBackoff backoff;
    bool transmitting{false};
    int tx_slots_remaining{0};
    bool frame_corrupted{false};
    double next_arrival_s{0.0};
    DcfStationStats stats;
  };

  void step_slot();
  void begin_transmission(Station& st);
  void finish_transmission(int index);

  std::vector<Station> stations_;
  std::vector<std::vector<bool>> senses_;
  std::vector<std::vector<bool>> interferes_;
  sim::RngStream rng_;
  Duration elapsed_{};
  std::int64_t slot_index_{0};
};

}  // namespace dlte::mac
