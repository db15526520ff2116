#include "mac/wifi_dcf.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "phy/wifi_phy.h"

namespace dlte::mac {

namespace {
// DIFS expressed in slots (ceil(34us / 9us) = 4); charged after each busy
// period before backoff countdown resumes.
constexpr int kDifsSlots = 4;

int frame_slots(const DcfStationConfig& c) {
  const Duration airtime =
      phy::wifi_frame_airtime(c.rate_index, c.frame_bytes);
  return static_cast<int>(
      (airtime.ns() + phy::kSlot.ns() - 1) / phy::kSlot.ns());
}
}  // namespace

DcfSimulator::DcfSimulator(std::uint64_t seed) : rng_(seed) {}

int DcfSimulator::add_station(const DcfStationConfig& config) {
  const int index = static_cast<int>(stations_.size());
  Station st;
  st.config = config;
  st.backoff = DcfBackoff{config.retry_limit};
  st.backoff_slots = st.backoff.draw(rng_);
  if (config.saturated) {
    st.queue = 1;
  } else if (config.arrival_fps > 0.0) {
    st.next_arrival_s = rng_.exponential(1.0 / config.arrival_fps);
  }
  stations_.push_back(std::move(st));
  // Extend the relation matrices; default full sensing + interference.
  for (auto& row : senses_) row.push_back(true);
  for (auto& row : interferes_) row.push_back(true);
  senses_.emplace_back(stations_.size(), true);
  interferes_.emplace_back(stations_.size(), true);
  return index;
}

void DcfSimulator::set_sensing(int a, int b, bool senses) {
  senses_[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = senses;
  senses_[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = senses;
}

void DcfSimulator::set_interference(int tx, int victim_tx, bool interferes) {
  interferes_[static_cast<std::size_t>(tx)][static_cast<std::size_t>(
      victim_tx)] = interferes;
}

bool DcfSimulator::medium_busy_for(int station) const {
  for (std::size_t j = 0; j < stations_.size(); ++j) {
    if (static_cast<int>(j) == station) continue;
    if (stations_[j].transmitting &&
        senses_[static_cast<std::size_t>(station)][j]) {
      return true;
    }
  }
  return false;
}

void DcfSimulator::begin_transmission(Station& st) {
  st.transmitting = true;
  st.tx_slots_remaining = frame_slots(st.config);
  st.frame_corrupted = false;
  ++st.stats.attempts;
}

void DcfSimulator::finish_transmission(int index) {
  Station& st = stations_[static_cast<std::size_t>(index)];
  st.transmitting = false;
  bool failed = st.frame_corrupted;
  if (failed) {
    ++st.stats.collisions;
  } else if (st.config.channel_fer > 0.0 &&
             rng_.bernoulli(st.config.channel_fer)) {
    ++st.stats.channel_losses;
    failed = true;
  }
  if (!failed) {
    ++st.stats.delivered_frames;
    st.stats.delivered_bits += st.config.frame_bytes * 8.0;
    st.backoff.note_success();
    if (!st.config.saturated) st.queue = std::max(0, st.queue - 1);
  } else if (st.backoff.note_failure()) {
    ++st.stats.dropped_frames;
    if (!st.config.saturated) st.queue = std::max(0, st.queue - 1);
  }
  st.backoff_slots = st.backoff.draw(rng_);
}

void DcfSimulator::step_slot() {
  const double now_s =
      static_cast<double>(slot_index_) * phy::kSlot.to_seconds();

  // Unsaturated arrivals.
  for (auto& st : stations_) {
    if (!st.config.saturated && st.config.arrival_fps > 0.0) {
      while (st.next_arrival_s <= now_s) {
        ++st.queue;
        st.next_arrival_s += rng_.exponential(1.0 / st.config.arrival_fps);
      }
    }
  }

  // Phase 1: countdown / transmit decisions based on the *current* medium
  // state, so stations starting in the same slot collide (as in DCF).
  std::vector<int> starting;
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    Station& st = stations_[i];
    if (st.transmitting) continue;
    const bool has_frame = st.config.saturated || st.queue > 0;
    if (!has_frame) continue;
    if (medium_busy_for(static_cast<int>(i))) continue;
    if (st.backoff_slots > 0) {
      --st.backoff_slots;
    }
    if (st.backoff_slots == 0) {
      starting.push_back(static_cast<int>(i));
    }
  }
  for (int i : starting) {
    begin_transmission(stations_[static_cast<std::size_t>(i)]);
  }

  // Phase 2: interference marking — any concurrent transmission pair with
  // an interference edge corrupts the victim's frame.
  for (std::size_t a = 0; a < stations_.size(); ++a) {
    if (!stations_[a].transmitting) continue;
    for (std::size_t v = 0; v < stations_.size(); ++v) {
      if (a == v || !stations_[v].transmitting) continue;
      if (interferes_[a][v]) stations_[v].frame_corrupted = true;
    }
  }

  // Phase 3: advance transmissions.
  for (std::size_t i = 0; i < stations_.size(); ++i) {
    Station& st = stations_[i];
    if (!st.transmitting) continue;
    if (--st.tx_slots_remaining <= 0) {
      finish_transmission(static_cast<int>(i));
      // Post-frame DIFS charged as extra backoff slots.
      st.backoff_slots += kDifsSlots;
    }
  }

  ++slot_index_;
}

void DcfSimulator::run(Duration duration) {
  const auto slots =
      static_cast<std::int64_t>(duration.ns() / phy::kSlot.ns());
  for (std::int64_t i = 0; i < slots; ++i) step_slot();
  elapsed_ += Duration::nanos(slots * phy::kSlot.ns());
}

const DcfStationStats& DcfSimulator::stats(int station) const {
  return stations_[static_cast<std::size_t>(station)].stats;
}

}  // namespace dlte::mac
