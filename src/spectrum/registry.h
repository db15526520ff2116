// The open spectrum registry: licensing, peer discovery, key publication.
//
// §4.3: "a lightweight open public license database for peer discovery" —
// the registry ensures all transmitters in a band are known (killing the
// hidden-terminal problem at the planning level), records a contact for
// human recourse, and — in dLTE's open-identity flow — hosts published
// subscriber keys (§4.2). Three designs from the paper/related work are
// modelled, differing in query/commit latency and trust topology:
//
//   * Centralized SAS  — CBRS-style cloud service, fast, single operator.
//   * Federated        — DNS-like zone referral, one extra lookup hop.
//   * Blockchain       — no central trust; commits wait for a block.
//
// The registry holds state synchronously; latency is modelled at the
// async facade (request_grants / query_region) through the simulator.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <ranges>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/geo.h"
#include "common/ids.h"
#include "common/result.h"
#include "common/units.h"
#include "epc/hss.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "registry/cache.h"
#include "registry/spatial.h"
#include "sim/simulator.h"

namespace dlte::spectrum {

enum class RegistryKind { kCentralizedSas, kFederated, kBlockchain };

// Failure mode of the registry service itself (driven by src/fault):
// kOffline makes the whole service unreachable (SAS cloud outage):
// queries return nothing, grant requests and heartbeats fail. A
// federated registry can also fail one *zone* at a time — see
// set_zone_offline()/zone_of().
enum class RegistryOutage { kNone, kOffline };

// Typed heartbeat outcome: callers that react differently to "the
// registry was down" vs "the lease is gone" (the churn storm drops and
// re-applies only on kLapsed) branch on this, never on error-message
// text.
enum class HeartbeatOutcome { kRenewed, kUnreachable, kLapsed };

// What a batch of heartbeats came to: how many leases were renewed, how
// many found the registry (or their zone) unreachable, and which ids are
// gone, in batch order (a duplicate id counts once per occurrence).
struct HeartbeatBatchOutcome {
  std::size_t renewed{0};
  std::size_t unreachable{0};
  std::vector<std::uint64_t> lapsed;
};

struct SpectrumGrant {
  GrantId id;
  ApId ap;
  Position location;
  Hertz center_frequency;
  Hertz bandwidth;
  PowerDbm max_eirp{PowerDbm{52.0}};
  // §4.3: "recourse for operators to resolve issues via such traditional
  // means as face to face discussion or email."
  std::string operator_contact;
  // §5: the Papua deployment runs under a permissive secondary-use
  // non-compete license.
  bool secondary_use{false};
  NodeId coordination_node;  // Where the AP's X2 agent is reachable.
  // SAS-style lease end; renewed by heartbeat. Zero ns = perpetual.
  TimePoint expires_at{};
  // Lease expired but still within the heartbeat grace period: the grant
  // remains visible (neighbours must still coordinate around it) but its
  // holder is expected to run at conservative power. Computed when the
  // registry hands the grant out; it stores no such flag.
  bool degraded{false};
};

// A lease as the registry stores it: what differs between the leases of
// one request. Everything the request's leases share (band, EIRP,
// contact, secondary use, coordination node) is interned once, and
// `terms` indexes it. 40 bytes.
struct LeaseRow {
  GrantId id;
  Position location;
  TimePoint expires_at{};  // Zero ns = perpetual.
  ApId ap;
  std::uint32_t terms{0};
};

// Where a live lease sits and on which band: the registry's flat view.
struct LeaseSite {
  GrantId id;
  Position location;
  Hertz center_frequency;
};

struct GrantRequest {
  ApId ap;
  Position location;
  Hertz center_frequency;
  Hertz bandwidth;
  PowerDbm max_eirp{PowerDbm{52.0}};
  std::string operator_contact;
  bool secondary_use{false};
  NodeId coordination_node;
};

struct RegistryLatency {
  Duration query{};
  Duration commit{};
};

// Characteristic service times per design (used by the facade and
// reported in the C6 registry sub-table).
[[nodiscard]] RegistryLatency registry_latency(RegistryKind kind);

// Predicted interference reach of a transmitter at `max_eirp` on the band
// centred at `center_frequency`: the distance at which its signal falls
// to the -100 dBm coordination threshold under the band's rural model.
// grants_near lists a grant at every point its reach covers.
[[nodiscard]] double interference_range_m(Hertz center_frequency,
                                          PowerDbm max_eirp);

class SpectrumChain;

class Registry {
 public:
  Registry(sim::Simulator& sim, RegistryKind kind);

  // Back a kBlockchain registry with a real chain: grants then commit by
  // block inclusion (latency = the chain's block interval) and every
  // grant/key leaves a tamper-evident record. Without a chain attached,
  // the blockchain variant falls back to the fixed latency model.
  void attach_chain(SpectrumChain* chain);
  [[nodiscard]] bool chain_backed() const { return chain_ != nullptr; }

  // --- Async facade (latency-modelled) ---------------------------------
  using GrantCallback = std::function<void(Result<SpectrumGrant>)>;
  using QueryCallback = std::function<void(std::vector<SpectrumGrant>)>;

  // Apply for `count` identical licenses at once (a block of APs
  // re-applying together). Open admission (§4.3): any conforming request
  // is granted; the only rejections are malformed requests (no contact —
  // the registry's recourse mechanism is mandatory). The batch is the
  // unit of grant work: it commits in one event and fails an unreachable
  // registrar in one timeout event; only a chain-backed registry keeps one
  // record per lease. The callback runs once, with the granted ids in
  // lease order or the failure (every lease of a batch shares one
  // request, so they share one outcome). A zero count is a no-op: the
  // callback never runs.
  using BatchCallback =
      std::function<void(Result<std::vector<std::uint64_t>>)>;
  void request_grants(GrantRequest request, std::uint32_t count,
                      BatchCallback callback);
  // A batch of one.
  void request_grant(GrantRequest request, GrantCallback callback);

  // All grants whose interference reach touches the queried location
  // (grants_near), answered after the design's query latency; an
  // unreachable registry answers nothing after kFailureTimeout.
  void query_region(Position location, QueryCallback callback);

  void revoke(GrantId id);

  // --- Lease lifecycle (CBRS-style heartbeats) --------------------------
  // Grants issued after this call carry a lease of `lifetime` and must be
  // renewed by heartbeat, or they lapse and vanish from queries — a dead
  // AP cannot haunt its neighbours' contention domains (§7's ecosystem-
  // health concern). A perpetual grant renewed after this call takes a
  // lease too. Zero restores perpetual grants (the default); renewals
  // then leave a lease's expiry where it is. Never negative.
  void set_grant_lifetime(Duration lifetime) { lifetime_ = lifetime; }
  [[nodiscard]] Duration grant_lifetime() const { return lifetime_; }
  // Renews a batch of leases at one instant, in order, exactly as that
  // many heartbeat_outcome calls would: same outcomes, counters, expiry
  // order and one "registry_heartbeat" marker per id. The outage check
  // and the prune run once per batch (the first prune leaves nothing due
  // before a renewed lease), and reachability once per run of ids whose
  // grants share a location, as a block's leases do.
  [[nodiscard]] HeartbeatBatchOutcome heartbeat_batch(
      std::span<const std::uint64_t> ids);
  // A batch of one: renews a lease; the outcome says whether it was
  // renewed, the registry (or the grant's zone) was unreachable, or the
  // grant is gone.
  [[nodiscard]] HeartbeatOutcome heartbeat_outcome(GrantId id);
  // Grace period past lease expiry before a grant actually lapses. While
  // in grace the grant is listed as `degraded`; a heartbeat inside the
  // window fully renews it. This is what lets an AP survive a registry
  // outage shorter than the grace without losing its license. Never
  // negative.
  void set_heartbeat_grace(Duration grace) { grace_ = grace; }
  // Drop lapsed grants now (also happens lazily inside queries).
  void prune_expired();

  // --- Outage injection (src/fault) ------------------------------------
  void set_outage(RegistryOutage outage);
  // Federated zone failure: requests and queries whose location falls in
  // an offline zone fail; other zones keep working. Zones partition the
  // plane into a coarse grid (kZoneSizeM squares); a zone's id is its
  // exact registry::zone_key, the key the spatial index and cache use.
  void set_zone_offline(std::int64_t zone, bool offline);
  [[nodiscard]] static std::int64_t zone_of(Position location);

  static constexpr double kZoneSizeM = 50'000.0;
  // How long an unreachable registry takes to fail a request (client-side
  // request timeout).
  static constexpr Duration kFailureTimeout = Duration::seconds(2.0);

  // --- Hierarchical cache (federated design, DESIGN.md §16) ------------
  // Attach a resolver hierarchy: a federated registry's zone_occupancy
  // then walks local → zone → root caches before the authoritative
  // store, and authoritative misses refill the tiers. The cache observes
  // staleness against per-zone membership versions that every
  // grant/lapse/revoke bumps in each zone the grant's reach touches (its
  // own zone and any neighbour it spills into). query_region never
  // consults the cache.
  void attach_cache(registry::LeaseCache* cache) { cache_ = cache; }
  // Current membership version of the (exact, packed) zone holding
  // `location` — see registry::zone_key.
  [[nodiscard]] std::uint64_t zone_version(Position location) const;
  // Ids of all grants whose reach touches `zone`'s square, ascending —
  // the snapshot the cache serves for that zone. Memoized in the spatial
  // index: rebuilt only after a membership change reaching the zone.
  [[nodiscard]] registry::ZoneSnapshot zone_snapshot(std::int64_t zone) const;
  // Synchronous occupancy probe through the cache hierarchy (the churn
  // storm's query op): how many grants touch the zone of `location`,
  // served from whichever tier answers. A cache serve reports the
  // snapshot's membership (possibly stale — that is the point); an
  // authoritative serve counts live grants and refills the tiers, and a
  // shed serve counts live grants without refilling.
  struct ZoneOccupancy {
    registry::CacheTier tier{registry::CacheTier::kAuthoritative};
    bool stale{false};
    std::size_t grants{0};
  };
  [[nodiscard]] ZoneOccupancy zone_occupancy(std::uint64_t requester,
                                             Position location);

  // --- Unlicensed coexistence (DESIGN.md §12) --------------------------
  // Mark a band as unlicensed spectrum shared with WiFi: the registry
  // records how many WiFi BSSs are known to occupy the channel (site
  // survey or AFC-style database import). Grants on such a band carry no
  // exclusivity; coordinators consult wifi_occupants() before switching
  // into a coexistence access mode (PeerCoordinator::set_mode guard).
  void mark_band_shared(Hertz center_frequency, std::uint32_t wifi_occupants);
  [[nodiscard]] std::uint32_t wifi_occupants(Hertz center_frequency) const;

  // --- Synchronous accessors (no latency; used by tests/benches) -------
  [[nodiscard]] Result<SpectrumGrant> grant_now(const GrantRequest& request);
  [[nodiscard]] std::vector<SpectrumGrant> grants_near(
      Position location) const;
  // Count-only variant: same predicate as grants_near without
  // materializing (at 1M leases a dense region query can match tens of
  // thousands of grants; occupancy probes only want the number).
  [[nodiscard]] std::size_t count_grants_near(Position location) const;
  [[nodiscard]] std::size_t grant_count() const { return rows_.size(); }
  // Every live lease's site, in slot order (arbitrary: erase is
  // swap-pop). The C12 microbench scans this as the pre-index baseline.
  [[nodiscard]] auto lease_sites() const {
    return std::views::iota(std::size_t{0}, rows_.size()) |
           std::views::transform([this](std::size_t slot) {
             const LeaseRow& row = rows_[slot];
             return LeaseSite{row.id, row.location,
                              terms_[row.terms].center_frequency};
           });
  }

  // Causal tracing: a grant request opens one "registry_grant" span per
  // lease that covers request → callback, query_region a
  // "registry_query" span, each heartbeat a zero-duration
  // "registry_heartbeat" marker.
  // Category is `<prefix>registry`. Null-safe.
  void set_tracer(obs::SpanTracer* tracer, const std::string& prefix = "");

  // Health source (DESIGN.md §10): counters
  // `<prefix>registry.heartbeats_ok` / `.heartbeats_failed`,
  // `.grants_issued` / `.grant_failures`, `.grants_lapsed`, and gauges
  // `.outage_active` (0/1), `.active_grants`, and `.stalled_commits`,
  // which stays at zero (nothing stalls a commit; the name is part of
  // every metrics document).
  // heartbeats_failed is the symptom SLO rules alert on during an
  // outage — the monitor watches what APs actually experience, not the
  // injector's intent. Null-safe.
  void set_metrics(obs::MetricsRegistry* metrics,
                   const std::string& prefix = "");

  // --- Open-identity key publication (§4.2) ----------------------------
  void publish_subscriber(const epc::PublishedKeys& keys);
  [[nodiscard]] const std::vector<epc::PublishedKeys>&
  published_subscribers() const {
    return published_;
  }

 private:
  [[nodiscard]] bool reachable_for(Position location) const;
  // One "registry_grant" span per lease: opened at request time,
  // closed with the outcome when the caller learns it.
  obs::SpanId begin_grant_span(const GrantRequest& request);
  void end_grant_span(obs::SpanId span, const Result<GrantId>& result);
  // A grant batch in flight. `spans` holds the live "registry_grant"
  // spans: a full tracer refuses every span after its first refusal, so
  // they belong to a prefix of the leases. `granted` fills in lease order.
  struct GrantBatch {
    GrantRequest request;
    std::uint32_t count{0};
    std::vector<obs::SpanId> spans;
    BatchCallback callback;
    std::uint32_t settled{0};
    std::vector<std::uint64_t> granted;
  };
  // Routes a whole batch: unreachable, chain-backed or healthy commit.
  void dispatch_grants(GrantBatch batch);
  // Records the next lease's outcome and closes its span.
  void settle_lease(GrantBatch& batch, const Result<GrantId>& lease);
  // Validates the request (counting `leases` failures if it is refused)
  // and returns its interned terms.
  [[nodiscard]] Result<std::uint32_t> admit(const GrantRequest& request,
                                            std::uint32_t leases);
  // Issues one lease on admitted terms: id, row, expiry-list place and
  // metrics, but no index entry — grant_one indexes its lease, a healthy
  // batch commit indexes its whole run at once.
  [[nodiscard]] GrantId issue_lease(const GrantRequest& request,
                                    std::uint32_t terms);
  // admit + issue_lease + index: one lease, as grant_now and a chain
  // inclusion grant it.
  [[nodiscard]] Result<GrantId> grant_one(const GrantRequest& request);
  // The grant in `slot` as handed out: its row, its terms and whether it
  // is degraded at `now`.
  [[nodiscard]] SpectrumGrant grant_at(std::uint32_t slot,
                                       TimePoint now) const;
  // Remove slot `slot` from rows_ + every side index (swap-pop).
  void erase_slot(std::size_t slot);
  // Expiry-list maintenance (see due_). link_due inserts a slot whose
  // expires_at is set, scanning back from the tail past later leases;
  // unlink_due removes a linked slot.
  void link_due(std::uint32_t slot);
  void unlink_due(std::uint32_t slot);
  // A grant past expires_at (but inside grace) is degraded; computed on
  // copy-out, so no row stores it and none needs an O(n) refresh pass.
  [[nodiscard]] static bool degraded_now(const LeaseRow& row, TimePoint now) {
    return row.expires_at.ns() != 0 && row.expires_at < now;
  }

  sim::Simulator& sim_;
  RegistryKind kind_;
  // Event attribution (sim::Simulator::label): batch commits, unreachable-
  // registry failure timeouts (one per batch or query), query serves.
  std::uint32_t commit_label_;
  std::uint32_t failure_label_;
  std::uint32_t query_label_;
  SpectrumChain* chain_{nullptr};
  registry::LeaseCache* cache_{nullptr};
  Duration lifetime_{};  // Zero: perpetual grants.
  Duration grace_{};     // Zero: no grace — lapse exactly at expiry.
  // One row per live lease, in slot order.
  std::vector<LeaseRow> rows_;
  // The terms a granted request carried, once per distinct set ever
  // granted (registry_churn's 524,288 leases share 512), never freed.
  // `range_m` is their interference reach, so no scan recomputes it.
  struct LeaseTerms {
    Hertz center_frequency;
    Hertz bandwidth;
    PowerDbm max_eirp;
    std::string operator_contact;
    bool secondary_use{false};
    NodeId coordination_node;
    double range_m{0.0};
  };
  std::vector<LeaseTerms> terms_;
  // A request's terms (the bits of its center Hz, bandwidth Hz and EIRP
  // dBm, contact, secondary use, coordination node) → their index in
  // terms_.
  using TermsKey = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                              std::string, bool, std::uint32_t>;
  std::map<TermsKey, std::uint32_t> terms_of_;
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();
  // GrantId → slot in rows_, kNil once the grant is gone; maintained by
  // issue_lease / erase_slot. Ids run from 1 upward and are never reused,
  // so the table is dense, indexed by id (entry 0 is never issued). It
  // costs 4 B per id ever issued, live or not.
  std::vector<std::uint32_t> slot_of_{kNil};
  // Ids arrive off the wire: a lookup bounds-checks, and never grows the
  // table.
  [[nodiscard]] std::uint32_t slot_of(std::uint64_t id) const {
    return id < slot_of_.size() ? slot_of_[id] : kNil;
  }
  // Zone-bucketed spatial index over the same grants (DESIGN.md §16).
  registry::SpatialIndex index_{kZoneSizeM};
  // interference_range_m memoized per (hz, milli-dBm EIRP) and read when
  // new terms are interned: terms that differ only in contact share one
  // 60-step path-loss bisection. Sub-dBm EIRP differences don't matter
  // for a reach bound.
  std::map<std::pair<std::int64_t, std::int64_t>, double> range_cache_;
  // Expiry order: an intrusive doubly linked list over grant slots in
  // ascending expires_at, `due_` parallel to rows_. A slot is linked
  // exactly when its grant has a nonzero expires_at (perpetual grants
  // never are). Lapse is `expires_at + grace_ < now` with one grace_ for
  // every grant, so expiry order is lapse order at any grace. A renewal
  // moves its lease to the tail in O(1) (the scan back from the tail
  // stops at once while the lifetime is constant), and a prune that
  // lapses nothing is one head check; mass expiry walks only the dead.
  struct DueLink {
    std::uint32_t prev{kNil};
    std::uint32_t next{kNil};
  };
  std::vector<DueLink> due_;
  std::uint32_t due_head_{kNil};  // Earliest expiry.
  std::uint32_t due_tail_{kNil};  // Latest expiry.
  // WiFi BSS count per shared band, keyed by center frequency in hertz.
  std::map<std::int64_t, std::uint32_t> shared_bands_;
  std::vector<epc::PublishedKeys> published_;
  std::unordered_map<std::uint64_t, std::size_t> imsi_slot_;
  std::uint64_t next_grant_{1};

  obs::SpanTracer* tracer_{nullptr};
  std::string span_cat_{"registry"};

  // Remembered so attach_chain can wire the chain's batch metrics
  // whether set_metrics runs before or after it.
  obs::MetricsRegistry* metrics_{nullptr};
  std::string metrics_prefix_;

  obs::Counter* m_hb_ok_{nullptr};
  obs::Counter* m_hb_failed_{nullptr};
  obs::Counter* m_grants_issued_{nullptr};
  obs::Counter* m_grant_failures_{nullptr};
  obs::Counter* m_grants_lapsed_{nullptr};
  obs::Gauge* m_outage_active_{nullptr};
  obs::Gauge* m_active_grants_{nullptr};

  RegistryOutage outage_{RegistryOutage::kNone};
  std::vector<std::int64_t> offline_zones_;
};

}  // namespace dlte::spectrum
