// Lease-churn storm workload (DESIGN.md §16): the client half of the
// planet-scale registry experiment.
//
// A LeaseChurnStorm models one *block* of access points (≈ a metro
// neighbourhood sharing a registrar zone) that manages its spectrum
// leases in bulk: a mass grant application at start-up, periodic
// heartbeat batches to renew them, periodic zone-occupancy queries
// through the cache hierarchy, and — the storm — re-application for
// every lease the registry reports lapsed after an outage. While the
// zone is dark the re-applications fail and back off, which is exactly
// the grant-failure symptom the churn SLO rules page on; the moment the
// zone heals, thousands of blocks re-apply at once and the registry
// eats a correlated re-grant storm.
//
// The actor is registry- and transport-agnostic: it emits encoded
// request payloads through a send hook and consumes encoded replies via
// on_message, so the par scenario can carry the exchange over the
// sharded runtime's cross-shard message plane (where this traffic is
// load-bearing, not decorative). All behaviour is driven by its own
// simulator events and message deliveries — partition-invariant by
// construction.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/geo.h"
#include "common/time.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace dlte::workload {

// Message kinds on the registry plane (par::Message::kind values).
inline constexpr std::uint16_t kLeaseGrantBatch = 21;      // client → reg
inline constexpr std::uint16_t kLeaseGrantReply = 22;      // reg → client
inline constexpr std::uint16_t kLeaseHeartbeatBatch = 23;  // client → reg
inline constexpr std::uint16_t kLeaseHeartbeatReply = 24;  // reg → client
inline constexpr std::uint16_t kLeaseQuery = 25;           // client → reg
inline constexpr std::uint16_t kLeaseQueryReply = 26;      // reg → client

// --- Wire formats (common/bytes.h codec) ------------------------------
// GrantBatch:      u32 block, u32 count, f64 x, f64 y, f64 center_hz,
//                  f64 bw_hz
// GrantReply:      u32 block, u8 ok, u32 count, count × u64 grant id
//                  (ids only when ok)
// HeartbeatBatch:  u32 block, u32 count, count × u64 grant id
// HeartbeatReply:  u32 block, u32 ok, u32 unreachable, u32 lapsed,
//                  lapsed × u64 grant id
// Query:           u32 block, f64 x, f64 y
// QueryReply:      u32 block, u8 tier, u8 stale, u64 grants

struct ChurnConfig {
  std::uint32_t block{0};  // Stable block identity (and cache requester).
  std::uint32_t leases{1024};  // Leases this block keeps alive.
  Position location;           // Where the block's APs sit.
  Hertz center_frequency{Hertz::mhz(3550.0)};
  Hertz bandwidth{Hertz::mhz(10.0)};
  Duration heartbeat_interval{Duration::seconds(5.0)};
  Duration heartbeat_phase{};  // Stagger against other blocks.
  Duration query_interval{Duration::seconds(2.0)};
  Duration query_phase{};
  // Backoff between failed grant applications (an offline zone rejects
  // the whole batch; the block retries until it lands).
  Duration regrant_backoff{Duration::seconds(4.0)};
};

class LeaseChurnStorm {
 public:
  // Optional metric mirrors for single-sim embeddings. The par scenario
  // does NOT use these: the audit plane digests each shard's registry
  // per window, so a metric name must live on exactly one shard — zone
  // aggregates that straddle shards are instead summed from the plain
  // accessors below after the run. Null-safe.
  struct Hooks {
    obs::Counter* grants_requested{nullptr};
    obs::Counter* grants_confirmed{nullptr};
    obs::Counter* grant_rejections{nullptr};  // Whole batches bounced.
    obs::Counter* heartbeats_sent{nullptr};
    obs::Counter* heartbeats_unreachable{nullptr};
    obs::Counter* leases_lapsed{nullptr};
    obs::Counter* regrant_batches{nullptr};  // Re-applications after lapse.
    obs::Counter* queries_sent{nullptr};
    obs::Counter* query_grants_seen{nullptr};
    obs::Counter* stale_views{nullptr};  // Query answered from stale cache.
  };

  using Send =
      std::function<void(std::uint16_t kind, std::vector<std::uint8_t>)>;

  LeaseChurnStorm(sim::Simulator& sim, ChurnConfig config, Send send,
                  Hooks hooks);

  // Kick off the initial mass grant application + periodic heartbeat and
  // query drivers.
  void start();

  // Feed a reply delivered for this block. Ignores kinds it doesn't
  // understand and replies addressed to other blocks.
  void on_message(std::uint16_t kind,
                  const std::vector<std::uint8_t>& payload);

  [[nodiscard]] std::size_t leases_held() const { return held_.size(); }
  [[nodiscard]] std::uint64_t regrant_batches() const {
    return regrant_batches_;
  }
  [[nodiscard]] std::uint64_t grant_rejections() const {
    return grant_rejections_;
  }
  [[nodiscard]] std::uint64_t queries_answered() const {
    return queries_answered_;
  }

 private:
  void apply_for_missing();  // Request (leases - held) new grants.
  void heartbeat_tick();
  void query_tick();
  void on_grant_reply(const std::vector<std::uint8_t>& payload);
  void on_heartbeat_reply(const std::vector<std::uint8_t>& payload);
  void on_query_reply(const std::vector<std::uint8_t>& payload);

  sim::Simulator& sim_;
  ChurnConfig config_;
  Send send_;
  Hooks hooks_;
  // Event attribution (sim::Simulator::label) for the storm's timers.
  std::uint32_t heartbeat_label_;
  std::uint32_t query_label_;
  std::uint32_t regrant_label_;

  std::vector<std::uint64_t> held_;  // Sorted ascending (grant order).
  bool awaiting_grant_{false};
  std::uint64_t regrant_batches_{0};
  std::uint64_t grant_rejections_{0};
  std::uint64_t queries_answered_{0};
};

}  // namespace dlte::workload
