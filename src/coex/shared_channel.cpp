#include "coex/shared_channel.h"

#include <algorithm>
#include <cmath>

#include "phy/wifi_phy.h"

namespace dlte::coex {

namespace {
// Post-frame inter-frame space, charged as extra backoff slots (matches
// mac::DcfSimulator so the two DCF implementations pace identically).
constexpr int kDifsSlots = 4;

int wifi_frame_slots(int rate_index, int frame_bytes) {
  const Duration airtime = phy::wifi_frame_airtime(rate_index, frame_bytes);
  return static_cast<int>((airtime.ns() + phy::kSlot.ns() - 1) /
                          phy::kSlot.ns());
}

int lte_frame_slots(int frame_bytes, DataRate rate) {
  const double seconds = frame_bytes * 8.0 / rate.bps();
  const auto ns = static_cast<std::int64_t>(seconds * 1e9);
  return std::max<std::int64_t>(
      1, (ns + phy::kSlot.ns() - 1) / phy::kSlot.ns());
}

std::int64_t to_slots(Duration d) {
  return std::max<std::int64_t>(1, d.ns() / phy::kSlot.ns());
}
}  // namespace

const char* to_string(LteCoexPolicy policy) {
  switch (policy) {
    case LteCoexPolicy::kOblivious:
      return "oblivious";
    case LteCoexPolicy::kLbt:
      return "lbt";
    case LteCoexPolicy::kDutyCycle:
      return "duty-cycle";
  }
  return "?";
}

SharedChannel::SharedChannel(SharedChannelConfig config)
    : config_(config), model_(config.path_loss_exponent) {}

int SharedChannel::add_wifi_station(const WifiStationConfig& config) {
  const int index = static_cast<int>(entries_.size());
  Entry e;
  e.waveform = Waveform::kWifi;
  e.site = config.site;
  e.cca_dbm = config_.wifi_cca_dbm;
  e.rng = sim::RngStream::derive(config_.seed, "coex-wifi",
                                 static_cast<std::uint64_t>(index));
  e.saturated = config.saturated;
  e.arrival_fps = config.arrival_fps;
  e.rate_index = config.rate_index;
  e.frame_slots = wifi_frame_slots(config.rate_index, config.frame_bytes);
  e.frame_bits = config.frame_bytes * 8.0;
  e.backoff = mac::DcfBackoff{
      mac::BackoffConfig{phy::kCwMin, phy::kCwMax, config.retry_limit}};
  e.backoff_slots = e.backoff.draw(e.rng);
  if (config.saturated) {
    e.hol_since_slot = 0;
  } else if (config.arrival_fps > 0.0) {
    e.next_arrival_s = e.rng.exponential(1.0 / config.arrival_fps);
  }
  entries_.push_back(std::move(e));
  tables_dirty_ = true;
  return index;
}

int SharedChannel::add_lte_transmitter(const LteTransmitterConfig& config) {
  const int index = static_cast<int>(entries_.size());
  Entry e;
  e.waveform = Waveform::kDlte;
  e.site = config.site;
  e.cca_dbm = config.cca_dbm;
  e.rng = sim::RngStream::derive(config_.seed, "coex-lte",
                                 static_cast<std::uint64_t>(index));
  e.saturated = config.saturated;
  e.arrival_fps = config.arrival_fps;
  e.frame_slots = lte_frame_slots(config.frame_bytes, config.phy_rate);
  e.frame_bits = config.frame_bytes * 8.0;
  e.policy = config.policy;
  e.backoff = mac::DcfBackoff{config.backoff};
  e.backoff_slots = e.backoff.draw(e.rng);
  e.txop = config.txop;
  e.on_slots = to_slots(config.on_period);
  e.off_slots = to_slots(config.off_period);
  e.adaptive = config.adaptive;
  e.min_on_fraction = config.min_on_fraction;
  e.max_on_fraction = config.max_on_fraction;
  if (config.saturated) {
    e.hol_since_slot = 0;
  } else if (config.arrival_fps > 0.0) {
    e.next_arrival_s = e.rng.exponential(1.0 / config.arrival_fps);
  }
  entries_.push_back(std::move(e));
  tables_dirty_ = true;
  return index;
}

const CoexStats& SharedChannel::stats(int index) const {
  return entries_[static_cast<std::size_t>(index)].stats;
}

void SharedChannel::rebuild_energy_tables() {
  const std::size_t n = entries_.size();
  at_listener_.assign(n, std::vector<double>(n, -300.0));
  at_receiver_.assign(n, std::vector<double>(n, -300.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const Entry& tx = entries_[i];
      // Energy of i's transmitter heard by j's transmitter (CCA) and by
      // j's designated receiver (interference).
      if (i != j) {
        const double d_listen = std::max(
            1.0, distance_m(tx.site.tx_pos, entries_[j].site.tx_pos));
        at_listener_[i][j] =
            phy::received_power(tx.site.tx_profile,
                                entries_[j].site.tx_profile, model_,
                                config_.frequency, d_listen)
                .value();
      }
      const double d_rx =
          std::max(1.0, distance_m(tx.site.tx_pos, entries_[j].site.rx_pos));
      at_receiver_[i][j] =
          phy::received_power(tx.site.tx_profile, entries_[j].site.rx_profile,
                              model_, config_.frequency, d_rx)
              .value();
    }
  }
  tables_dirty_ = false;
}

bool SharedChannel::medium_busy_for(const Entry& e) const {
  const auto self = static_cast<std::size_t>(&e - entries_.data());
  for (std::size_t j = 0; j < entries_.size(); ++j) {
    if (j == self || !entries_[j].transmitting) continue;
    if (at_listener_[j][self] > e.cca_dbm) return true;
  }
  return false;
}

void SharedChannel::mark_hol_ready(Entry& e) {
  if (e.hol_since_slot < 0 && has_frame(e)) e.hol_since_slot = slot_index_;
}

void SharedChannel::note_arrivals(Entry& e, double now_s) {
  if (e.saturated || e.arrival_fps <= 0.0) return;
  while (e.next_arrival_s <= now_s) {
    ++e.queue;
    e.next_arrival_s += e.rng.exponential(1.0 / e.arrival_fps);
  }
  mark_hol_ready(e);
}

void SharedChannel::start_frame(Entry& e) {
  e.transmitting = true;
  e.tx_slots_remaining = e.frame_slots;
  e.frame_corrupted = false;
  ++e.stats.attempts;
  const int w = e.waveform == Waveform::kWifi ? 0 : 1;
  obs::inc(m_attempts_[w]);
}

void SharedChannel::finish_frame(Entry& e) {
  const int w = e.waveform == Waveform::kWifi ? 0 : 1;
  bool consume = true;
  if (!e.frame_corrupted) {
    ++e.stats.delivered_frames;
    e.stats.delivered_bits += e.frame_bits;
    obs::inc(m_delivered_[w]);
    if (e.hol_since_slot >= 0) {
      const double ms = static_cast<double>(slot_index_ + 1 -
                                            e.hol_since_slot) *
                        phy::kSlot.to_millis();
      e.stats.access_latency_ms.add(ms);
      obs::observe(m_access_ms_[w], ms);
    }
    if (e.waveform == Waveform::kWifi) e.backoff.note_success();
  } else {
    ++e.stats.collisions;
    obs::inc(m_collisions_[w]);
    if (e.waveform == Waveform::kWifi) {
      // 802.11 retries the frame until the limit; the scheduled waveform
      // moves on (HARQ below the model recovers or abandons the block).
      consume = e.backoff.note_failure();
      if (consume) {
        ++e.stats.dropped_frames;
        obs::inc(m_drops_[w]);
      }
    }
  }
  if (consume) {
    if (!e.saturated) e.queue = std::max(0, e.queue - 1);
    e.hol_since_slot = -1;
    mark_hol_ready(e);  // The next frame (if any) becomes HOL now.
  }
  e.frame_corrupted = false;
}

void SharedChannel::step_wifi(Entry& e) {
  if (e.transmitting || !has_frame(e)) return;
  if (medium_busy_for(e)) {
    ++e.stats.defer_slots;
    const int w = 0;
    obs::inc(m_defer_slots_[w]);
    return;
  }
  if (e.backoff_slots > 0) --e.backoff_slots;
  if (e.backoff_slots == 0) start_frame(e);
}

void SharedChannel::step_lte(Entry& e) {
  if (e.policy == LteCoexPolicy::kDutyCycle) {
    // The on/off clock runs regardless of traffic or channel state.
    const std::int64_t cycle = e.on_slots + e.off_slots;
    const bool in_on = e.cycle_pos < e.on_slots;
    if (!in_on && e.adaptive && !e.transmitting && medium_busy_for(e)) {
      ++e.off_busy_slots;
    }
    if (!e.transmitting && in_on && has_frame(e)) {
      const std::int64_t window_left = e.on_slots - e.cycle_pos;
      // Start only if the frame fits the window (or could never fit —
      // then take the window head rather than starve forever).
      if (e.frame_slots <= window_left ||
          (e.cycle_pos == 0 && e.frame_slots > e.on_slots)) {
        start_frame(e);
      }
    }
    ++e.cycle_pos;
    if (e.cycle_pos >= cycle) {
      e.cycle_pos = 0;
      if (e.adaptive && e.off_slots > 0) {
        // CSAT adaptation: yield the share of airtime WiFi demonstrably
        // used while we were off.
        const double occupancy = static_cast<double>(e.off_busy_slots) /
                                 static_cast<double>(e.off_slots);
        const double fraction =
            std::clamp(1.0 - occupancy, e.min_on_fraction,
                       e.max_on_fraction);
        e.on_slots = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(
                   std::llround(fraction * static_cast<double>(cycle))));
        e.off_slots = std::max<std::int64_t>(1, cycle - e.on_slots);
      }
      e.off_busy_slots = 0;
    }
    return;
  }

  if (e.transmitting || !has_frame(e)) return;
  if (e.policy == LteCoexPolicy::kOblivious) {
    // Scheduled waveform: transmit whenever there is traffic.
    start_frame(e);
    return;
  }
  // kLbt: energy-detect defer + DCF backoff, then a bounded TXOP burst.
  if (medium_busy_for(e)) {
    ++e.stats.defer_slots;
    obs::inc(m_defer_slots_[1]);
    return;
  }
  if (e.backoff_slots > 0) --e.backoff_slots;
  if (e.backoff_slots == 0) {
    e.txop_slots_remaining = to_slots(e.txop);
    e.burst_leader_pending = true;
    e.burst_leader_failed = false;
    start_frame(e);
  }
}

void SharedChannel::step_slot() {
  const double now_s =
      static_cast<double>(slot_index_) * phy::kSlot.to_seconds();
  for (auto& e : entries_) note_arrivals(e, now_s);

  // Phase 1: access decisions against the slot-start medium state, in
  // registration order — contenders whose backoff expires in the same
  // slot start together and collide, as in DCF.
  std::vector<std::size_t> starting;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& e = entries_[i];
    const bool was = e.transmitting;
    if (e.waveform == Waveform::kWifi) {
      step_wifi(e);
    } else {
      step_lte(e);
    }
    if (!was && e.transmitting) {
      // Defer actually going on air until every decision saw the
      // slot-start state.
      e.transmitting = false;
      starting.push_back(i);
    }
  }
  for (std::size_t i : starting) entries_[i].transmitting = true;

  // Phase 2: capture test — an active frame survives the slot only if
  // its wanted signal beats the strongest concurrent interferer at its
  // receiver by the capture margin.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!entries_[i].transmitting) continue;
    double strongest = -300.0;
    for (std::size_t j = 0; j < entries_.size(); ++j) {
      if (j == i || !entries_[j].transmitting) continue;
      strongest = std::max(strongest, at_receiver_[j][i]);
    }
    if (strongest > -300.0 &&
        at_receiver_[i][i] - strongest < config_.capture_margin_db) {
      entries_[i].frame_corrupted = true;
    }
  }

  // Phase 3: advance transmissions; frame/burst boundaries.
  for (auto& e : entries_) {
    if (!e.transmitting) continue;
    ++e.stats.tx_slots;
    if (e.waveform == Waveform::kDlte &&
        e.policy == LteCoexPolicy::kLbt) {
      --e.txop_slots_remaining;
    }
    if (--e.tx_slots_remaining > 0) continue;

    // LAA widens/resets the contention window on the outcome of the
    // burst's leading frame — latch it before finish_frame resets state.
    if (e.waveform == Waveform::kDlte && e.policy == LteCoexPolicy::kLbt &&
        e.burst_leader_pending) {
      e.burst_leader_failed = e.frame_corrupted;
      e.burst_leader_pending = false;
    }
    finish_frame(e);
    bool continue_burst = false;
    if (e.waveform == Waveform::kDlte && has_frame(e)) {
      switch (e.policy) {
        case LteCoexPolicy::kOblivious:
          continue_burst = true;
          break;
        case LteCoexPolicy::kDutyCycle:
          // step_lte's window check gates the next frame; stop here.
          continue_burst =
              e.cycle_pos < e.on_slots &&
              e.frame_slots <= e.on_slots - e.cycle_pos;
          break;
        case LteCoexPolicy::kLbt:
          continue_burst = e.txop_slots_remaining >= e.frame_slots;
          break;
      }
    }
    if (continue_burst) {
      start_frame(e);
      continue;
    }
    e.transmitting = false;
    if (e.waveform == Waveform::kWifi) {
      e.backoff_slots = e.backoff.draw(e.rng) + kDifsSlots;
    } else if (e.policy == LteCoexPolicy::kLbt) {
      if (e.burst_leader_failed) {
        (void)e.backoff.note_failure();
      } else {
        e.backoff.note_success();
      }
      e.backoff_slots = e.backoff.draw(e.rng) + kDifsSlots;
    }
  }

  ++slot_index_;
}

void SharedChannel::run(Duration duration) {
  if (tables_dirty_) rebuild_energy_tables();
  const auto slots =
      static_cast<std::int64_t>(duration.ns() / phy::kSlot.ns());
  for (std::int64_t i = 0; i < slots; ++i) step_slot();
  elapsed_ += Duration::nanos(slots * phy::kSlot.ns());
  flush_run_gauges();
}

double SharedChannel::airtime_share(Waveform waveform) const {
  if (slot_index_ == 0) return 0.0;
  std::int64_t slots = 0;
  for (const auto& e : entries_) {
    if (e.waveform == waveform) slots += e.stats.tx_slots;
  }
  return static_cast<double>(slots) / static_cast<double>(slot_index_);
}

std::vector<double> SharedChannel::airtime_fractions() const {
  std::vector<double> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    out.push_back(slot_index_ > 0
                      ? static_cast<double>(e.stats.tx_slots) /
                            static_cast<double>(slot_index_)
                      : 0.0);
  }
  return out;
}

void SharedChannel::flush_run_gauges() {
  if (registry_ == nullptr) return;
  registry_->gauge(prefix_ + "coex.airtime.wifi")
      .set(airtime_share(Waveform::kWifi));
  registry_->gauge(prefix_ + "coex.airtime.dlte")
      .set(airtime_share(Waveform::kDlte));
  const auto fractions = airtime_fractions();
  registry_->gauge(prefix_ + "coex.fairness").set(jain_fairness(fractions));
}

void SharedChannel::set_metrics(obs::MetricsRegistry* registry,
                                const std::string& prefix) {
  registry_ = registry;
  prefix_ = prefix;
  if (registry == nullptr) {
    for (int w = 0; w < 2; ++w) {
      m_attempts_[w] = nullptr;
      m_delivered_[w] = nullptr;
      m_collisions_[w] = nullptr;
      m_drops_[w] = nullptr;
      m_defer_slots_[w] = nullptr;
      m_access_ms_[w] = nullptr;
    }
    return;
  }
  const char* names[2] = {"wifi", "dlte"};
  for (int w = 0; w < 2; ++w) {
    const std::string base = prefix + "coex." + names[w] + ".";
    m_attempts_[w] = &registry->counter(base + "attempts");
    m_delivered_[w] = &registry->counter(base + "delivered");
    m_collisions_[w] = &registry->counter(base + "collisions");
    m_drops_[w] = &registry->counter(base + "drops");
    m_defer_slots_[w] = &registry->counter(base + "defer_slots");
    m_access_ms_[w] = &registry->histogram(base + "access_ms");
  }
}

}  // namespace dlte::coex
