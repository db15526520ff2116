#include "par/registry_plane.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/bytes.h"
#include "fault/fault.h"
#include "par/partition.h"
#include "registry/health.h"
#include "sim/telemetry.h"
#include "spectrum/registry.h"
#include "workload/lease_churn.h"

namespace dlte::par {
namespace {

// Registry service endpoint id; block i lives at 1 + i.
constexpr EndpointId kRegistryEndpoint = 0;

}  // namespace

struct RegistryPlaneScenario::Block {
  int index{0};
  int zone{0};
  std::size_t shard{0};
  sim::Simulator* sim{nullptr};
  std::unique_ptr<workload::LeaseChurnStorm> storm;
};

struct RegistryPlaneScenario::RegistryNode {
  sim::Simulator* sim{nullptr};
  std::unique_ptr<registry::LeaseCache> cache;
  std::unique_ptr<spectrum::Registry> registry;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<sim::TelemetryDriver> telemetry;
};

RegistryPlaneScenario::RegistryPlaneScenario(RegistryPlaneConfig config)
    : config_([&config] {
        config.blocks = std::max(config.blocks, 1);
        config.leases_per_block = std::max(config.leases_per_block, 1);
        config.zones_x = std::max(config.zones_x, 1);
        config.zones_y = std::max(config.zones_y, 1);
        if (config.shards == 0) config.shards = 1;
        config.shards = std::min(
            config.shards, static_cast<std::size_t>(config.blocks));
        const int zones = config.zones_x * config.zones_y;
        config.storm_zone = std::clamp(config.storm_zone, 0, zones - 1);
        return config;
      }()),
      runtime_([this] {
        ShardedConfig rc;
        rc.shards = config_.shards;
        rc.threads = config_.threads;
        rc.lookahead = config_.registry_delay;
        rc.sample_interval = config_.sample_interval;
        rc.profile = config_.profile;
        rc.audit = config_.audit;
        rc.audit_window = config_.audit_window;
        return rc;
      }()) {}

RegistryPlaneScenario::~RegistryPlaneScenario() = default;

int RegistryPlaneScenario::zone_of_block(int block) const {
  // Round-robin: every zone hosts blocks from across the index range,
  // so the storm zone's clients straddle shards at any partition.
  return block % (config_.zones_x * config_.zones_y);
}

void RegistryPlaneScenario::build() {
  const double zs = spectrum::Registry::kZoneSizeM;

  // --- Shard 0: the authoritative registry + injector + monitor -------
  registry_ = std::make_unique<RegistryNode>();
  RegistryNode* reg = registry_.get();
  reg->sim = &runtime_.shard_sim(0);
  obs::MetricsRegistry& reg_domain = runtime_.shard_registry(0);
  reg->cache = std::make_unique<registry::LeaseCache>(config_.cache);
  reg->cache->set_metrics(&reg_domain, "reg.");
  reg->registry = std::make_unique<spectrum::Registry>(
      *reg->sim, spectrum::RegistryKind::kFederated);
  reg->registry->set_grant_lifetime(config_.lease_lifetime);
  reg->registry->set_heartbeat_grace(config_.heartbeat_grace);
  reg->registry->set_metrics(&reg_domain, "reg.");
  reg->registry->attach_cache(reg->cache.get());

  // The storm: one zone's registrar goes dark, heals after
  // outage_duration. Driven through the fault plane so the timeline
  // appears in fault.* metrics like every other injected failure.
  reg->injector = std::make_unique<fault::FaultInjector>(*reg->sim);
  reg->injector->set_registry(reg->registry.get());
  reg->injector->set_metrics(&reg_domain, "reg.");
  const int storm_zx = config_.storm_zone % config_.zones_x;
  const int storm_zy = config_.storm_zone / config_.zones_x;
  const Position storm_center{(storm_zx + 0.5) * zs, (storm_zy + 0.5) * zs};
  fault::FaultPlan plan;
  fault::FaultSpec outage;
  outage.kind = fault::FaultKind::kRegistryOutage;
  outage.at = TimePoint{} + config_.outage_at;
  outage.duration = config_.outage_duration;
  outage.outage = spectrum::RegistryOutage::kOffline;
  outage.zone = spectrum::Registry::zone_of(storm_center);
  plan.add(outage);
  reg->injector->arm(plan);

  monitor_ = std::make_unique<obs::SloMonitor>(reg_domain);
  monitor_->add_rules(registry::churn_slo_rules("reg."));
  monitor_->set_metrics(&reg_domain, "reg.");
  reg->telemetry =
      std::make_unique<sim::TelemetryDriver>(*reg->sim, nullptr,
                                             monitor_.get());
  reg->telemetry->start(config_.slo_interval);

  runtime_.register_endpoint(kRegistryEndpoint, 0,
                             [this](const Message& m) {
                               handle_registry_message(m);
                             });

  // --- Every shard: churn-storm blocks --------------------------------
  const int zones = config_.zones_x * config_.zones_y;
  blocks_.reserve(static_cast<std::size_t>(config_.blocks));
  for (int i = 0; i < config_.blocks; ++i) {
    auto block = std::make_unique<Block>();
    Block* b = block.get();
    b->index = i;
    b->zone = zone_of_block(i);
    b->shard = shard_of_block(static_cast<std::size_t>(i),
                              static_cast<std::size_t>(config_.blocks),
                              config_.shards);
    b->sim = &runtime_.shard_sim(b->shard);

    // No per-block metric hooks: the audit plane digests each shard's
    // registry per window, so a zone tally incremented from blocks on
    // different shards would make the digests partition-variant even
    // though the merged totals agree. Client tallies are plain storm
    // members, summed deterministically after the run.
    workload::ChurnConfig cc;
    cc.block = static_cast<std::uint32_t>(i);
    cc.leases = static_cast<std::uint32_t>(config_.leases_per_block);
    const int zx = b->zone % config_.zones_x;
    const int zy = b->zone / config_.zones_x;
    const int j = i / zones;  // Index within the zone.
    // Deterministic in-zone placement, clear of the zone edges so a
    // block's grants land squarely in its registrar's zone.
    cc.location = Position{zx * zs + 0.1 * zs + (j % 8) * 0.1 * zs,
                           zy * zs + 0.1 * zs + ((j / 8) % 8) * 0.1 * zs};
    // Spread blocks of a zone over CBRS-style 10 MHz channels so
    // contention stays per-neighbourhood, not per-zone.
    cc.center_frequency = Hertz::mhz(3550.0 + 10.0 * (j % 15));
    cc.bandwidth = Hertz::mhz(10.0);
    cc.heartbeat_interval = config_.heartbeat_interval;
    cc.heartbeat_phase = Duration::millis(50 * (i % 20));
    cc.query_interval = config_.query_interval;
    cc.query_phase = Duration::millis(25 * (i % 40) + 7);
    cc.regrant_backoff = config_.regrant_backoff;

    const EndpointId self = static_cast<EndpointId>(1 + i);
    b->storm = std::make_unique<workload::LeaseChurnStorm>(
        *b->sim, cc,
        [this, self](std::uint16_t kind, std::vector<std::uint8_t> payload) {
          runtime_.post(self, kRegistryEndpoint, config_.registry_delay,
                        kind, std::move(payload));
        },
        workload::LeaseChurnStorm::Hooks{});
    runtime_.register_endpoint(self, b->shard, [b](const Message& m) {
      b->storm->on_message(m.kind, m.payload);
    });
    // After registration: start() posts the initial grant batch.
    b->storm->start();
    blocks_.push_back(std::move(block));
  }
  built_ = true;
}

void RegistryPlaneScenario::handle_registry_message(const Message& m) {
  // Replies go to the sender, never to an endpoint id read off the wire.
  spectrum::Registry& reg = *registry_->registry;
  ByteReader r{m.payload};
  switch (m.kind) {
    case workload::kLeaseGrantBatch: {
      const auto block = r.u32();
      const auto count = r.u32();
      const auto x = r.f64();
      const auto y = r.f64();
      const auto center = r.f64();
      const auto bw = r.f64();
      if (!block || !count || !x || !y || !center || !bw) return;
      // No block asks for more than its quota; a larger count is a
      // corrupt or hostile batch, not billions of grant requests.
      if (*count > static_cast<std::uint32_t>(config_.leases_per_block)) {
        return;
      }
      spectrum::GrantRequest req;
      req.ap = ApId{*block};
      req.location = Position{*x, *y};
      req.center_frequency = Hertz{*center};
      req.bandwidth = Hertz{*bw};
      req.operator_contact = "block-" + std::to_string(*block) + "@dlte";
      reg.request_grants(
          std::move(req), *count,
          [this, reply_to = m.src, block = *block](
              std::vector<Result<spectrum::SpectrumGrant>> results) {
            std::vector<std::uint64_t> ids;
            ids.reserve(results.size());
            for (const auto& grant : results) {
              if (grant) ids.push_back(grant->id.value());
            }
            ByteWriter w;
            w.reserve(9 + 8 * ids.size());
            w.u32(block);
            w.u8(ids.empty() ? 0 : 1);
            w.u32(static_cast<std::uint32_t>(ids.size()));
            w.u64s(ids);
            runtime_.post(kRegistryEndpoint, reply_to, config_.registry_delay,
                          workload::kLeaseGrantReply, w.take());
          });
      return;
    }
    case workload::kLeaseHeartbeatBatch: {
      const auto block = r.u32();
      const auto count = r.u32();
      // The ids must fill the rest exactly: a truncated (or padded) batch
      // is rejected whole, never renewed in part.
      std::vector<std::uint64_t> ids;
      if (!block || !count || r.remaining() != 8 * std::size_t{*count} ||
          !r.u64s(*count, ids)) {
        return;
      }
      const spectrum::HeartbeatBatchOutcome beat = reg.heartbeat_batch(ids);
      ByteWriter w;
      w.reserve(16 + 8 * beat.lapsed.size());
      w.u32(*block);
      w.u32(static_cast<std::uint32_t>(beat.renewed));
      w.u32(static_cast<std::uint32_t>(beat.unreachable));
      w.u32(static_cast<std::uint32_t>(beat.lapsed.size()));
      w.u64s(beat.lapsed);
      runtime_.post(kRegistryEndpoint, m.src, config_.registry_delay,
                    workload::kLeaseHeartbeatReply, w.take());
      return;
    }
    case workload::kLeaseQuery: {
      const auto block = r.u32();
      const auto x = r.f64();
      const auto y = r.f64();
      if (!block || !x || !y) return;
      const auto occ = reg.zone_occupancy(*block, Position{*x, *y});
      // A cache serve replies at its tier's latency; authoritative and
      // shed lookups pay the federated design's full query latency.
      Duration delay = registry_->cache->tier_latency(occ.tier);
      if (delay.is_zero()) {
        delay = spectrum::registry_latency(spectrum::RegistryKind::kFederated)
                    .query;
      }
      ByteWriter w;
      w.reserve(4 + 1 + 1 + 8);
      w.u32(*block);
      w.u8(static_cast<std::uint8_t>(occ.tier));
      w.u8(occ.stale ? 1 : 0);
      w.u64(static_cast<std::uint64_t>(occ.grants));
      runtime_.post(kRegistryEndpoint, m.src, delay,
                    workload::kLeaseQueryReply, w.take());
      return;
    }
    default:
      return;
  }
}

RegistryPlaneResult RegistryPlaneScenario::run() {
  if (!built_) build();
  runtime_.run_until(TimePoint{} + config_.horizon);

  obs::MetricsRegistry merged;
  runtime_.merged_metrics_into(merged);
  RegistryPlaneResult result;
  result.grants_issued = merged.counter("reg.registry.grants_issued").value();
  result.grant_failures =
      merged.counter("reg.registry.grant_failures").value();
  result.heartbeats_ok = merged.counter("reg.registry.heartbeats_ok").value();
  result.heartbeats_failed =
      merged.counter("reg.registry.heartbeats_failed").value();
  result.grants_lapsed = merged.counter("reg.registry.grants_lapsed").value();
  result.cache_hits =
      merged.counter("reg.registry.cache.hits_local").value() +
      merged.counter("reg.registry.cache.hits_zone").value() +
      merged.counter("reg.registry.cache.hits_root").value();
  result.cache_misses = merged.counter("reg.registry.cache.misses").value();
  result.cache_stale_serves =
      merged.counter("reg.registry.cache.stale_serves").value();
  result.cache_root_sheds =
      merged.counter("reg.registry.cache.root_sheds").value();
  for (const auto& block : blocks_) {
    result.regrant_batches += block->storm->regrant_batches();
    result.grant_rejections += block->storm->grant_rejections();
    result.queries_answered += block->storm->queries_answered();
    result.leases_held += block->storm->leases_held();
  }
  result.windows = runtime_.windows_run();
  result.messages = runtime_.messages_exchanged();
  result.events_executed = runtime_.events_executed();
  result.sim_seconds = config_.horizon.to_seconds();
  result.outage_alert_fired = monitor_->ever_fired("registry_churn_outage");
  result.outage_alert_resolved =
      result.outage_alert_fired &&
      !monitor_->alert_active("registry_churn_outage");
  return result;
}

}  // namespace dlte::par
