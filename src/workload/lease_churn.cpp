#include "workload/lease_churn.h"

#include <algorithm>

#include "common/bytes.h"

namespace dlte::workload {

LeaseChurnStorm::LeaseChurnStorm(sim::Simulator& sim, ChurnConfig config,
                                 Send send, Hooks hooks)
    : sim_(sim),
      config_(config),
      send_(std::move(send)),
      hooks_(hooks),
      heartbeat_label_(sim_.label("workload.heartbeat")),
      query_label_(sim_.label("workload.query")),
      regrant_label_(sim_.label("workload.regrant")) {}

void LeaseChurnStorm::start() {
  apply_for_missing();
  sim_.schedule(
      config_.heartbeat_phase,
      [this] {
        heartbeat_tick();
        sim_.every(
            config_.heartbeat_interval, [this] { heartbeat_tick(); },
            heartbeat_label_);
      },
      heartbeat_label_);
  sim_.schedule(
      config_.query_phase,
      [this] {
        query_tick();
        sim_.every(
            config_.query_interval, [this] { query_tick(); }, query_label_);
      },
      query_label_);
}

void LeaseChurnStorm::apply_for_missing() {
  const std::uint32_t missing =
      config_.leases - static_cast<std::uint32_t>(held_.size());
  if (missing == 0 || awaiting_grant_) return;
  awaiting_grant_ = true;
  ByteWriter w;
  w.reserve(4 + 4 + 4 * 8);
  w.u32(config_.block);
  w.u32(missing);
  w.f64(config_.location.x_m);
  w.f64(config_.location.y_m);
  w.f64(config_.center_frequency.hz());
  w.f64(config_.bandwidth.hz());
  obs::inc(hooks_.grants_requested, missing);
  send_(kLeaseGrantBatch, w.take());
}

void LeaseChurnStorm::heartbeat_tick() {
  if (held_.empty()) return;
  ByteWriter w;
  w.reserve(8 + 8 * held_.size());
  w.u32(config_.block);
  w.u32(static_cast<std::uint32_t>(held_.size()));
  w.u64s(held_);
  obs::inc(hooks_.heartbeats_sent, held_.size());
  send_(kLeaseHeartbeatBatch, w.take());
}

void LeaseChurnStorm::query_tick() {
  ByteWriter w;
  w.reserve(4 + 2 * 8);
  w.u32(config_.block);
  w.f64(config_.location.x_m);
  w.f64(config_.location.y_m);
  obs::inc(hooks_.queries_sent);
  send_(kLeaseQuery, w.take());
}

void LeaseChurnStorm::on_message(std::uint16_t kind,
                                 const std::vector<std::uint8_t>& payload) {
  switch (kind) {
    case kLeaseGrantReply:
      on_grant_reply(payload);
      break;
    case kLeaseHeartbeatReply:
      on_heartbeat_reply(payload);
      break;
    case kLeaseQueryReply:
      on_query_reply(payload);
      break;
    default:
      break;
  }
}

void LeaseChurnStorm::on_grant_reply(
    const std::vector<std::uint8_t>& payload) {
  ByteReader r{payload};
  const auto block = r.u32();
  const auto ok = r.u8();
  const auto count = r.u32();
  if (!block || !ok || !count || *block != config_.block) return;
  awaiting_grant_ = false;
  if (*ok == 0) {
    // The whole batch bounced (zone offline / registry down). Back off
    // and re-apply: during an outage this retry loop is the sustained
    // grant-failure symptom the SLO watches.
    ++grant_rejections_;
    obs::inc(hooks_.grant_rejections);
    sim_.schedule(
        config_.regrant_backoff, [this] { apply_for_missing(); },
        regrant_label_);
    return;
  }
  // Count only ids actually carried, and never past the quota: a
  // truncated or duplicated reply must not inflate the confirmations or
  // underflow the next application's shortfall.
  const std::size_t room =
      config_.leases - std::min<std::size_t>(held_.size(), config_.leases);
  const std::size_t accepted =
      std::min({std::size_t{*count}, room, r.remaining() / 8});
  (void)r.u64s(accepted, held_);  // Within the bytes present: cannot fail.
  grants_confirmed_ += accepted;
  obs::inc(hooks_.grants_confirmed, accepted);
  std::sort(held_.begin(), held_.end());
  if (held_.size() < config_.leases) {
    // Partial fill: an outage or commit stall flipped mid-batch and only
    // some requests landed. Without a re-apply here the block would sit
    // under quota forever — lapse-driven re-grants only cover leases it
    // once held. Same backoff as a bounced batch.
    sim_.schedule(
        config_.regrant_backoff, [this] { apply_for_missing(); },
        regrant_label_);
  }
}

void LeaseChurnStorm::on_heartbeat_reply(
    const std::vector<std::uint8_t>& payload) {
  ByteReader r{payload};
  const auto block = r.u32();
  const auto ok = r.u32();
  const auto unreachable = r.u32();
  const auto lapsed = r.u32();
  if (!block || !ok || !unreachable || !lapsed ||
      *block != config_.block) {
    return;
  }
  heartbeats_unreachable_ += *unreachable;
  obs::inc(hooks_.heartbeats_unreachable, *unreachable);
  if (*lapsed == 0) return;
  // The registrar no longer knows these leases: drop them and re-apply
  // for the shortfall — the re-grant storm after a zone outage.
  // Read the whole ids present, however many the count claims (a cut
  // reply still drops what it carries, and a corrupt count sizes
  // nothing), and sort: the registry sends ids ascending, but
  // set_difference must not rely on it.
  std::vector<std::uint64_t> gone;
  (void)r.u64s(std::min<std::size_t>(*lapsed, r.remaining() / 8), gone);
  std::sort(gone.begin(), gone.end());
  std::vector<std::uint64_t> kept;
  kept.reserve(held_.size());
  std::set_difference(held_.begin(), held_.end(), gone.begin(), gone.end(),
                      std::back_inserter(kept));
  const std::uint64_t dropped = held_.size() - kept.size();
  held_ = std::move(kept);
  lapses_seen_ += dropped;
  obs::inc(hooks_.leases_lapsed, dropped);
  ++regrant_batches_;
  obs::inc(hooks_.regrant_batches);
  apply_for_missing();
}

void LeaseChurnStorm::on_query_reply(
    const std::vector<std::uint8_t>& payload) {
  ByteReader r{payload};
  const auto block = r.u32();
  const auto tier = r.u8();
  const auto stale = r.u8();
  const auto grants = r.u64();
  if (!block || !tier || !stale || !grants || *block != config_.block) {
    return;
  }
  ++queries_answered_;
  query_grants_seen_ += *grants;
  obs::inc(hooks_.query_grants_seen, *grants);
  if (*stale != 0) {
    ++stale_views_;
    obs::inc(hooks_.stale_views);
  }
}

}  // namespace dlte::workload
