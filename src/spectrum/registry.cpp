#include "spectrum/registry.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <memory>
#include <optional>

#include "common/bytes.h"
#include "phy/propagation.h"
#include "spectrum/chain.h"

namespace dlte::spectrum {
namespace {
// Chain record payload for a grant: the fields an auditor needs.
std::vector<std::uint8_t> encode_grant_record(const GrantRequest& r) {
  ByteWriter w;
  w.u32(r.ap.value());
  w.f64(r.location.x_m);
  w.f64(r.location.y_m);
  w.f64(r.center_frequency.hz());
  w.f64(r.bandwidth.hz());
  w.f64(r.max_eirp.value());
  w.str(r.operator_contact);
  return w.take();
}

std::vector<std::uint8_t> encode_key_record(const epc::PublishedKeys& k) {
  ByteWriter w;
  w.u64(k.imsi.value());
  w.bytes(k.k);
  w.bytes(k.opc);
  return w.take();
}
}  // namespace
}  // namespace dlte::spectrum

namespace dlte::spectrum {

RegistryLatency registry_latency(RegistryKind kind) {
  switch (kind) {
    case RegistryKind::kCentralizedSas:
      // CBRS SAS-class cloud service.
      return {Duration::millis(50), Duration::millis(200)};
    case RegistryKind::kFederated:
      // DNS-like: one referral hop on top of the authoritative query.
      return {Duration::millis(120), Duration::millis(350)};
    case RegistryKind::kBlockchain:
      // Read from a local replica is cheap-ish; a commit waits for block
      // inclusion (Kotobi & Bilén-style chain, ~1 min block interval).
      return {Duration::millis(400), Duration::seconds(60.0)};
  }
  return {};
}

double interference_range_m(Hertz center_frequency, PowerDbm max_eirp) {
  // Find where EIRP - pathloss = -100 dBm under the band's rural model.
  const auto model = phy::make_rural_model(center_frequency);
  constexpr double kThresholdDbm = -100.0;
  double lo = 100.0, hi = 200'000.0;
  for (int i = 0; i < 60; ++i) {
    const double mid = 0.5 * (lo + hi);
    const phy::LinkGeometry geo{mid, 30.0, 1.5};
    const double rx =
        max_eirp.value() - model->path_loss(center_frequency, geo).value();
    if (rx > kThresholdDbm) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

Registry::Registry(sim::Simulator& sim, RegistryKind kind)
    : sim_(sim),
      kind_(kind),
      commit_label_(sim_.label("registry.commit")),
      failure_label_(sim_.label("registry.failure")),
      query_label_(sim_.label("registry.query")) {}

void Registry::attach_chain(SpectrumChain* chain) {
  chain_ = chain;
  if (chain_ != nullptr) {
    chain_->set_metrics(metrics_, metrics_prefix_);
    chain_->start();
  }
}

std::uint64_t Registry::zone_version(Position location) const {
  return index_.zone_version(registry::zone_key(location, kZoneSizeM));
}

Result<SpectrumGrant> Registry::grant_now(const GrantRequest& request) {
  const Result<GrantId> id = grant_one(request);
  if (!id) return fail(id.error());
  return grant_at(slot_of_[id->value()], sim_.now());
}

Result<GrantId> Registry::grant_one(const GrantRequest& request) {
  const Result<std::uint32_t> terms = admit(request, 1);
  if (!terms) return fail(terms.error());
  const GrantId id = issue_lease(request, *terms);
  index_.insert({id.value(), request.location, terms_[*terms].range_m});
  return id;
}

Result<std::uint32_t> Registry::admit(const GrantRequest& request,
                                      std::uint32_t leases) {
  if (request.operator_contact.empty()) {
    obs::inc(m_grant_failures_, leases);
    return fail("grant requires an operator contact for recourse");
  }
  if (request.bandwidth.hz() <= 0.0) {
    obs::inc(m_grant_failures_, leases);
    return fail("grant requires positive bandwidth");
  }
  // Doubles key by bit pattern: a total order, even for a NaN off the
  // wire.
  TermsKey key{std::bit_cast<std::uint64_t>(request.center_frequency.hz()),
               std::bit_cast<std::uint64_t>(request.bandwidth.hz()),
               std::bit_cast<std::uint64_t>(request.max_eirp.value()),
               request.operator_contact,
               request.secondary_use,
               request.coordination_node.value()};
  const auto [it, fresh] = terms_of_.try_emplace(
      std::move(key), static_cast<std::uint32_t>(terms_.size()));
  if (!fresh) return it->second;
  // Quantizing to milli-dBm keys the reach memo exactly for the repeated
  // (band, power) pairs a deployment actually uses.
  const std::pair<std::int64_t, std::int64_t> band_power{
      static_cast<std::int64_t>(request.center_frequency.hz()),
      static_cast<std::int64_t>(
          std::lround(request.max_eirp.value() * 1000.0))};
  const auto [range, unmemoized] = range_cache_.try_emplace(band_power, 0.0);
  if (unmemoized) {
    range->second =
        interference_range_m(request.center_frequency, request.max_eirp);
  }
  terms_.push_back(LeaseTerms{request.center_frequency, request.bandwidth,
                              request.max_eirp, request.operator_contact,
                              request.secondary_use,
                              request.coordination_node, range->second});
  return it->second;
}

GrantId Registry::issue_lease(const GrantRequest& request,
                              std::uint32_t terms) {
  const GrantId id{next_grant_++};
  const TimePoint expires_at =
      lifetime_.is_zero() ? TimePoint{} : sim_.now() + lifetime_;
  const auto slot = static_cast<std::uint32_t>(rows_.size());
  assert(rows_.size() < kNil && "slots are indexed in 32 bits");
  assert(slot_of_.size() == id.value() && "the id table stays dense");
  slot_of_.push_back(slot);
  rows_.push_back(
      LeaseRow{id, request.location, expires_at, request.ap, terms});
  due_.emplace_back();
  if (expires_at.ns() != 0) link_due(slot);
  obs::inc(m_grants_issued_);
  obs::set(m_active_grants_, static_cast<double>(rows_.size()));
  return id;
}

SpectrumGrant Registry::grant_at(std::uint32_t slot, TimePoint now) const {
  const LeaseRow& row = rows_[slot];
  const LeaseTerms& terms = terms_[row.terms];
  return SpectrumGrant{row.id,
                       row.ap,
                       row.location,
                       terms.center_frequency,
                       terms.bandwidth,
                       terms.max_eirp,
                       terms.operator_contact,
                       terms.secondary_use,
                       terms.coordination_node,
                       row.expires_at,
                       degraded_now(row, now)};
}

void Registry::erase_slot(std::size_t slot) {
  const LeaseRow& row = rows_[slot];
  if (row.expires_at.ns() != 0) unlink_due(static_cast<std::uint32_t>(slot));
  index_.erase(row.id.value(), row.location);
  slot_of_[row.id.value()] = kNil;
  const std::size_t last = rows_.size() - 1;
  if (slot != last) {
    rows_[slot] = rows_[last];
    slot_of_[rows_[slot].id.value()] = static_cast<std::uint32_t>(slot);
    // The moved lease keeps its place in expiry order: repoint its
    // neighbours (or the ends) at the new slot. Its old neighbour may
    // have been `slot` itself, but that link went with the unlink above.
    const DueLink moved = due_[last];
    due_[slot] = moved;
    if (rows_[slot].expires_at.ns() != 0) {
      const auto at = static_cast<std::uint32_t>(slot);
      (moved.prev == kNil ? due_head_ : due_[moved.prev].next) = at;
      (moved.next == kNil ? due_tail_ : due_[moved.next].prev) = at;
    }
  }
  rows_.pop_back();
  due_.pop_back();
}

void Registry::link_due(std::uint32_t slot) {
  const TimePoint at = rows_[slot].expires_at;
  std::uint32_t prev = due_tail_;
  while (prev != kNil && rows_[prev].expires_at > at) prev = due_[prev].prev;
  const std::uint32_t next = prev == kNil ? due_head_ : due_[prev].next;
  due_[slot] = DueLink{prev, next};
  (prev == kNil ? due_head_ : due_[prev].next) = slot;
  (next == kNil ? due_tail_ : due_[next].prev) = slot;
}

void Registry::unlink_due(std::uint32_t slot) {
  const DueLink link = due_[slot];
  (link.prev == kNil ? due_head_ : due_[link.prev].next) = link.next;
  (link.next == kNil ? due_tail_ : due_[link.next].prev) = link.prev;
}

void Registry::set_tracer(obs::SpanTracer* tracer,
                          const std::string& prefix) {
  tracer_ = tracer;
  span_cat_ = prefix + "registry";
}

HeartbeatBatchOutcome Registry::heartbeat_batch(
    std::span<const std::uint64_t> ids) {
  // The whole batch runs at one instant with no event inside it, so the
  // outage cannot change under it, and after the first prune nothing is
  // due: a renewal's new expiry (plus grace) lies at or after now.
  const bool offline = outage_ == RegistryOutage::kOffline;
  if (!offline) prune_expired();
  // Reachability of the last location resolved: a block's leases share
  // one, so its zone is looked up once per run of them.
  std::optional<std::pair<Position, bool>> last_reach;
  const auto renew = [&](std::uint64_t id) {
    if (offline) return HeartbeatOutcome::kUnreachable;
    const std::uint32_t slot = slot_of(id);
    if (slot == kNil) return HeartbeatOutcome::kLapsed;
    LeaseRow& row = rows_[slot];
    if (!last_reach || last_reach->first != row.location) {
      last_reach.emplace(row.location, reachable_for(row.location));
    }
    // A federated registrar renews its own zone's leases: a heartbeat
    // into an offline zone fails like any other request there. The
    // lease itself keeps aging — if the zone comes back inside the
    // grace window, the next heartbeat fully renews it.
    if (!last_reach->second) return HeartbeatOutcome::kUnreachable;
    if (!lifetime_.is_zero()) {
      // Move the lease to its new place in expiry order. A grant issued
      // perpetual and renewed after a lifetime was set is linked here for
      // the first time, so it lapses like any leased grant.
      if (row.expires_at.ns() != 0) unlink_due(slot);
      row.expires_at = sim_.now() + lifetime_;
      link_due(slot);
    }
    return HeartbeatOutcome::kRenewed;
  };
  HeartbeatBatchOutcome out;
  for (const std::uint64_t id : ids) {
    const HeartbeatOutcome outcome = renew(id);
    switch (outcome) {
      case HeartbeatOutcome::kRenewed:
        ++out.renewed;
        break;
      case HeartbeatOutcome::kUnreachable:
        ++out.unreachable;
        break;
      case HeartbeatOutcome::kLapsed:
        out.lapsed.push_back(id);
        break;
    }
    // Zero-duration marker: heartbeats are instantaneous in the model,
    // but their cadence and failures belong in the trace.
    const obs::SpanId span =
        obs::span_begin(tracer_, "registry_heartbeat", span_cat_);
    obs::span_annotate(tracer_, span, "grant",
                       [&] { return std::to_string(id); });
    obs::span_annotate(tracer_, span, "result",
                       outcome == HeartbeatOutcome::kRenewed ? "renewed"
                       : outcome == HeartbeatOutcome::kUnreachable
                           ? "registry unreachable"
                           : "grant lapsed or unknown: re-apply");
    obs::span_end(tracer_, span);
  }
  obs::inc(m_hb_ok_, out.renewed);
  obs::inc(m_hb_failed_, out.unreachable + out.lapsed.size());
  return out;
}

HeartbeatOutcome Registry::heartbeat_outcome(GrantId id) {
  const std::uint64_t raw = id.value();
  const HeartbeatBatchOutcome beat = heartbeat_batch({&raw, 1});
  if (beat.renewed != 0) return HeartbeatOutcome::kRenewed;
  return beat.unreachable != 0 ? HeartbeatOutcome::kUnreachable
                               : HeartbeatOutcome::kLapsed;
}

void Registry::prune_expired() {
  // Leases expire in two steps: past `expires_at` the grant is merely
  // degraded (reported on copy-out, holder expected at conservative
  // power); past `expires_at + grace` it lapses for good. The expiry
  // list is in lapse order, so a prune that lapses nothing is one head
  // check and a mass expiry walks only the lapsed prefix.
  const std::int64_t now = sim_.now().ns();
  const auto due_of = [this](std::uint32_t slot) {
    return (rows_[slot].expires_at + grace_).ns();
  };
  if (due_head_ == kNil || due_of(due_head_) >= now) return;
  // Erase in (due, id) order: list order breaks expiry ties by link time.
  std::vector<std::pair<std::int64_t, std::uint64_t>> lapsing;
  for (std::uint32_t slot = due_head_; slot != kNil && due_of(slot) < now;
       slot = due_[slot].next) {
    lapsing.emplace_back(due_of(slot), rows_[slot].id.value());
  }
  std::sort(lapsing.begin(), lapsing.end());
  for (const auto& lapse : lapsing) erase_slot(slot_of_[lapse.second]);
  obs::inc(m_grants_lapsed_, lapsing.size());
  obs::set(m_active_grants_, static_cast<double>(rows_.size()));
}

std::int64_t Registry::zone_of(Position location) {
  return registry::zone_key(location, kZoneSizeM);
}

bool Registry::reachable_for(Position location) const {
  if (outage_ == RegistryOutage::kOffline) return false;
  if (kind_ == RegistryKind::kFederated &&
      std::find(offline_zones_.begin(), offline_zones_.end(),
                zone_of(location)) != offline_zones_.end()) {
    return false;
  }
  return true;
}

void Registry::set_zone_offline(std::int64_t zone, bool offline) {
  const auto it =
      std::find(offline_zones_.begin(), offline_zones_.end(), zone);
  if (offline && it == offline_zones_.end()) {
    offline_zones_.push_back(zone);
  } else if (!offline && it != offline_zones_.end()) {
    offline_zones_.erase(it);
  }
}

void Registry::mark_band_shared(Hertz center_frequency,
                                std::uint32_t wifi_occupants) {
  shared_bands_[static_cast<std::int64_t>(center_frequency.hz())] =
      wifi_occupants;
}

std::uint32_t Registry::wifi_occupants(Hertz center_frequency) const {
  const auto it =
      shared_bands_.find(static_cast<std::int64_t>(center_frequency.hz()));
  return it == shared_bands_.end() ? 0 : it->second;
}

void Registry::set_outage(RegistryOutage outage) {
  outage_ = outage;
  obs::set(m_outage_active_, outage == RegistryOutage::kNone ? 0.0 : 1.0);
}

obs::SpanId Registry::begin_grant_span(const GrantRequest& request) {
  const obs::SpanId span =
      obs::span_begin(tracer_, "registry_grant", span_cat_);
  obs::span_annotate(tracer_, span, "ap",
                     [&] { return std::to_string(request.ap.value()); });
  return span;
}

void Registry::end_grant_span(obs::SpanId span,
                              const Result<GrantId>& result) {
  obs::span_annotate(tracer_, span, "result", [&] {
    return result ? "grant " + std::to_string(result->value())
                  : "failed: " + result.error();
  });
  obs::span_end(tracer_, span);
}

void Registry::request_grant(GrantRequest request, GrantCallback callback) {
  // The lease was issued in the event that answers, so it is live.
  request_grants(std::move(request), 1,
                 [this, callback = std::move(callback)](
                     Result<std::vector<std::uint64_t>> ids) {
                   if (!ids) {
                     callback(fail(ids.error()));
                   } else {
                     callback(grant_at(slot_of_[ids->front()], sim_.now()));
                   }
                 });
}

void Registry::request_grants(GrantRequest request, std::uint32_t count,
                              BatchCallback callback) {
  if (count == 0) return;
  GrantBatch batch{std::move(request), count, {}, std::move(callback), 0, {}};
  // Each span closes when its lease's outcome is known, so its duration
  // is the full request→answer latency.
  for (std::uint32_t i = 0; i < count; ++i) {
    const obs::SpanId span = begin_grant_span(batch.request);
    if (span != obs::kNoSpan) batch.spans.push_back(span);
  }
  dispatch_grants(std::move(batch));
}

// `count` single-lease requests would schedule `count` timeouts or
// commits at one instant with consecutive sequence numbers: no
// other event could run between them, so one event (or entry) running the
// same per-lease loop yields the same ids, metrics, spans and answer time.
void Registry::dispatch_grants(GrantBatch batch) {
  const bool reachable = reachable_for(batch.request.location);
  if (reachable && kind_ == RegistryKind::kBlockchain && chain_ != nullptr) {
    // Commit-by-inclusion, one record per lease (records per block is a
    // modelled quantity): each lease is granted when its record is
    // sealed, and a capped block may split the batch. The last
    // inclusion answers, and its outcome is every lease's.
    auto shared = std::make_shared<GrantBatch>(std::move(batch));
    for (std::uint32_t i = 0; i < shared->count; ++i) {
      chain_->submit(
          ChainRecord{ChainRecordKind::kGrant,
                      encode_grant_record(shared->request)},
          [this, shared](std::uint64_t) {
            const Result<GrantId> lease = grant_one(shared->request);
            settle_lease(*shared, lease);
            if (shared->settled != shared->count) return;
            if (lease) {
              shared->callback(std::move(shared->granted));
            } else {
              shared->callback(fail(lease.error()));
            }
          });
    }
    return;
  }
  // One event answers the batch: a commit granting every lease, or —
  // the registrar unreachable — a client-side timeout failing every
  // lease, whose failures count from the moment of refusal.
  if (!reachable) obs::inc(m_grant_failures_, batch.count);
  sim_.schedule(
      reachable ? registry_latency(kind_).commit : kFailureTimeout,
      [this, reachable, batch = std::move(batch)]() mutable {
        const Result<std::uint32_t> terms =
            reachable ? admit(batch.request, batch.count)
                      : fail("registry unreachable");
        if (!terms) {
          const Result<GrantId> refused = fail(terms.error());
          for (std::uint32_t i = 0; i < batch.count; ++i) {
            settle_lease(batch, refused);
          }
          batch.callback(fail(terms.error()));
          return;
        }
        batch.granted.reserve(batch.count);
        for (std::uint32_t i = 0; i < batch.count; ++i) {
          settle_lease(batch, issue_lease(batch.request, *terms));
        }
        // The batch's leases share the request's location and reach, and
        // nothing reads the index between them: index them as one run.
        index_.insert_run(batch.granted, batch.request.location,
                          terms_[*terms].range_m);
        batch.callback(std::move(batch.granted));
      },
      reachable ? commit_label_ : failure_label_);
}

void Registry::settle_lease(GrantBatch& batch, const Result<GrantId>& lease) {
  if (batch.settled < batch.spans.size()) {
    end_grant_span(batch.spans[batch.settled], lease);
  }
  ++batch.settled;
  if (lease) batch.granted.push_back(lease->value());
}

std::vector<SpectrumGrant> Registry::grants_near(Position location) const {
  const_cast<Registry*>(this)->prune_expired();
  // Zone visit order is an index detail; GrantId order is the canonical
  // result order (and matches the old scan's insertion order as long as
  // nothing was revoked).
  std::vector<std::uint64_t> ids;
  index_.for_each_reaching(location, [&](const registry::SiteEntry& entry) {
    ids.push_back(entry.id);
  });
  std::sort(ids.begin(), ids.end());
  const TimePoint now = sim_.now();
  std::vector<SpectrumGrant> out;
  out.reserve(ids.size());
  for (const std::uint64_t id : ids) out.push_back(grant_at(slot_of_[id], now));
  return out;
}

std::size_t Registry::count_grants_near(Position location) const {
  const_cast<Registry*>(this)->prune_expired();
  std::size_t count = 0;
  index_.for_each_reaching(location,
                           [&](const registry::SiteEntry&) { ++count; });
  return count;
}

registry::ZoneSnapshot Registry::zone_snapshot(std::int64_t zone) const {
  const_cast<Registry*>(this)->prune_expired();
  return index_.zone_members(zone);
}

Registry::ZoneOccupancy Registry::zone_occupancy(std::uint64_t requester,
                                                 Position location) {
  prune_expired();
  const std::int64_t zone = registry::zone_key(location, kZoneSizeM);
  if (cache_ == nullptr || kind_ != RegistryKind::kFederated) {
    return ZoneOccupancy{registry::CacheTier::kAuthoritative, false,
                         zone_snapshot(zone)->size()};
  }
  const std::uint64_t version = zone_version(location);
  const registry::CacheLookup look =
      cache_->lookup(requester, zone, version, sim_.now());
  if (look.snapshot != nullptr) {
    return ZoneOccupancy{look.tier, look.stale, look.snapshot->size()};
  }
  const registry::ZoneSnapshot snap = zone_snapshot(zone);
  if (look.tier == registry::CacheTier::kAuthoritative) {
    // A shed lookup takes the slow path *without* refilling: the root
    // refused the work, it didn't serve it.
    cache_->fill(requester, zone, version, snap, sim_.now());
  }
  return ZoneOccupancy{look.tier, false, snap->size()};
}

void Registry::query_region(Position location, QueryCallback callback) {
  const obs::SpanId span =
      obs::span_begin(tracer_, "registry_query", span_cat_);
  if (span != obs::kNoSpan) {
    callback = [this, span, cb = std::move(callback)](
                   std::vector<SpectrumGrant> grants) {
      obs::span_annotate(tracer_, span, "grants",
                         [&] { return std::to_string(grants.size()); });
      obs::span_end(tracer_, span);
      cb(std::move(grants));
    };
  }
  if (!reachable_for(location)) {
    // The querier can't tell "no grants" from "registry down" — exactly
    // the blindness the fault model wants to expose.
    obs::span_annotate(tracer_, span, "unreachable",
                       "registry down: empty reply after timeout");
    sim_.schedule(
        kFailureTimeout, [callback = std::move(callback)] { callback({}); },
        failure_label_);
    return;
  }
  sim_.schedule(
      registry_latency(kind_).query,
      [this, location, callback = std::move(callback)] {
        callback(grants_near(location));
      },
      query_label_);
}

void Registry::revoke(GrantId id) {
  const std::uint32_t slot = slot_of(id.value());
  if (slot == kNil) return;
  erase_slot(slot);
  obs::set(m_active_grants_, static_cast<double>(rows_.size()));
}

void Registry::set_metrics(obs::MetricsRegistry* metrics,
                           const std::string& prefix) {
  metrics_ = metrics;
  metrics_prefix_ = prefix;
  if (chain_ != nullptr) chain_->set_metrics(metrics, prefix);
  if (metrics == nullptr) {
    m_hb_ok_ = nullptr;
    m_hb_failed_ = nullptr;
    m_grants_issued_ = nullptr;
    m_grant_failures_ = nullptr;
    m_grants_lapsed_ = nullptr;
    m_outage_active_ = nullptr;
    m_active_grants_ = nullptr;
    return;
  }
  m_hb_ok_ = &metrics->counter(prefix + "registry.heartbeats_ok");
  m_hb_failed_ = &metrics->counter(prefix + "registry.heartbeats_failed");
  m_grants_issued_ = &metrics->counter(prefix + "registry.grants_issued");
  m_grant_failures_ = &metrics->counter(prefix + "registry.grant_failures");
  m_grants_lapsed_ = &metrics->counter(prefix + "registry.grants_lapsed");
  m_outage_active_ = &metrics->gauge(prefix + "registry.outage_active");
  (void)metrics->gauge(prefix + "registry.stalled_commits");
  m_active_grants_ = &metrics->gauge(prefix + "registry.active_grants");
  m_outage_active_->set(outage_ == RegistryOutage::kNone ? 0.0 : 1.0);
  m_active_grants_->set(static_cast<double>(rows_.size()));
}

void Registry::publish_subscriber(const epc::PublishedKeys& keys) {
  if (chain_ != nullptr) {
    chain_->submit(
        ChainRecord{ChainRecordKind::kSubscriberKey, encode_key_record(keys)});
  }
  const auto it = imsi_slot_.find(keys.imsi.value());
  if (it != imsi_slot_.end()) {
    published_[it->second] = keys;
    return;
  }
  imsi_slot_[keys.imsi.value()] = published_.size();
  published_.push_back(keys);
}

}  // namespace dlte::spectrum
