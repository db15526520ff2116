#include "replicas.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "core/enodeb.h"
#include "core/s1_fabric.h"
#include "epc/epc.h"
#include "fault/fault.h"
#include "lte/x2ap.h"
#include "net/network.h"
#include "par/partition.h"
#include "registry/cache.h"
#include "registry/health.h"
#include "sim/telemetry.h"
#include "spectrum/registry.h"
#include "ue/nas_client.h"
#include "workload/lease_churn.h"

namespace perfbench {

using namespace dlte;
using par::EndpointId;
using par::Message;

namespace {

using Clock = std::chrono::steady_clock;

float us_since(Clock::time_point start) {
  return std::chrono::duration<float, std::micro>(Clock::now() - start)
      .count();
}

// Same runtime configuration the scenario constructors derive.
par::ShardedConfig registry_runtime(const par::RegistryPlaneConfig& c) {
  par::ShardedConfig rc;
  rc.shards = c.shards;
  rc.threads = c.threads;
  rc.lookahead = c.registry_delay;
  rc.sample_interval = c.sample_interval;
  rc.profile = c.profile;
  rc.audit = c.audit;
  rc.audit_window = c.audit_window;
  return rc;
}

par::ShardedConfig town_runtime(const par::TownConfig& c) {
  par::ShardedConfig rc;
  rc.shards = c.shards;
  rc.threads = c.threads;
  rc.lookahead = c.backbone_delay;
  rc.sample_interval = c.sample_interval;
  rc.profile = c.profile;
  rc.audit = c.audit;
  rc.audit_window = c.audit_window;
  rc.engine_sample_interval = c.engine_sample_interval;
  return rc;
}

// ---- Registry plane ---------------------------------------------------

constexpr EndpointId kRegistryEndpoint = 0;

struct GrantBatch {
  std::uint32_t block{0};
  std::uint32_t expected{0};
  std::uint32_t done{0};
  std::vector<std::uint64_t> ids;
};

// ---- Town -------------------------------------------------------------

constexpr std::uint16_t kX2Protocol = 0x00f2;
constexpr std::uint16_t kX2Kind = 1;

crypto::Key128 key_for(std::uint64_t imsi) {
  crypto::Key128 k{};
  for (std::size_t i = 0; i < 16; ++i) {
    k[i] = static_cast<std::uint8_t>(imsi * 3 + i);
  }
  return k;
}

const crypto::Block128 kOp = [] {
  crypto::Block128 op{};
  op[0] = 0xcd;
  return op;
}();

}  // namespace

struct TracedRegistryPlane::Block {
  std::size_t shard{0};
  std::unique_ptr<workload::LeaseChurnStorm> storm;
};

struct TracedRegistryPlane::RegistryNode {
  std::unique_ptr<registry::LeaseCache> cache;
  std::unique_ptr<spectrum::Registry> registry;
  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<sim::TelemetryDriver> telemetry;
};

TracedRegistryPlane::TracedRegistryPlane(par::RegistryPlaneConfig config)
    : config_(std::move(config)), runtime_(registry_runtime(config_)) {}

TracedRegistryPlane::~TracedRegistryPlane() = default;

void TracedRegistryPlane::build() {
  const double zs = spectrum::Registry::kZoneSizeM;

  registry_ = std::make_unique<RegistryNode>();
  RegistryNode* reg = registry_.get();
  sim::Simulator& reg_sim = runtime_.shard_sim(0);
  obs::MetricsRegistry& reg_domain = runtime_.shard_registry(0);
  reg->cache = std::make_unique<registry::LeaseCache>(config_.cache);
  reg->cache->set_metrics(&reg_domain, "reg.");
  reg->registry = std::make_unique<spectrum::Registry>(
      reg_sim, spectrum::RegistryKind::kFederated);
  reg->registry->set_grant_lifetime(config_.lease_lifetime);
  reg->registry->set_heartbeat_grace(config_.heartbeat_grace);
  reg->registry->set_metrics(&reg_domain, "reg.");
  reg->registry->attach_cache(reg->cache.get());

  reg->injector = std::make_unique<fault::FaultInjector>(reg_sim);
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
      std::make_unique<sim::TelemetryDriver>(reg_sim, nullptr, monitor_.get());
  reg->telemetry->start(config_.slo_interval);

  runtime_.register_endpoint(kRegistryEndpoint, 0, [this](const Message& m) {
    handle_registry_message(m);
  });

  const int zones = config_.zones_x * config_.zones_y;
  blocks_.reserve(static_cast<std::size_t>(config_.blocks));
  for (int i = 0; i < config_.blocks; ++i) {
    auto block = std::make_unique<Block>();
    Block* b = block.get();
    const int zone = i % zones;  // RegistryPlaneScenario::zone_of_block.
    b->shard = par::shard_of_block(static_cast<std::size_t>(i),
                                   static_cast<std::size_t>(config_.blocks),
                                   config_.shards);

    workload::ChurnConfig cc;
    cc.block = static_cast<std::uint32_t>(i);
    cc.leases = static_cast<std::uint32_t>(config_.leases_per_block);
    const int zx = zone % config_.zones_x;
    const int zy = zone / config_.zones_x;
    const int j = i / zones;
    cc.location = Position{zx * zs + 0.1 * zs + (j % 8) * 0.1 * zs,
                           zy * zs + 0.1 * zs + ((j / 8) % 8) * 0.1 * zs};
    cc.center_frequency = Hertz::mhz(3550.0 + 10.0 * (j % 15));
    cc.bandwidth = Hertz::mhz(10.0);
    cc.heartbeat_interval = config_.heartbeat_interval;
    cc.heartbeat_phase = Duration::millis(50 * (i % 20));
    cc.query_interval = config_.query_interval;
    cc.query_phase = Duration::millis(25 * (i % 40) + 7);
    cc.regrant_backoff = config_.regrant_backoff;

    const EndpointId self = static_cast<EndpointId>(1 + i);
    b->storm = std::make_unique<workload::LeaseChurnStorm>(
        runtime_.shard_sim(b->shard), cc,
        [this, self](std::uint16_t kind, std::vector<std::uint8_t> payload) {
          runtime_.post(self, kRegistryEndpoint, config_.registry_delay, kind,
                        std::move(payload));
        },
        workload::LeaseChurnStorm::Hooks{});
    runtime_.register_endpoint(self, b->shard, [b](const Message& m) {
      b->storm->on_message(m.kind, m.payload);
    });
    b->storm->start();
    blocks_.push_back(std::move(block));
  }
}

void TracedRegistryPlane::handle_registry_message(const Message& m) {
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
      auto batch = std::make_shared<GrantBatch>();
      batch->block = *block;
      batch->expected = *count;
      spectrum::GrantRequest req;
      req.ap = ApId{*block};
      req.location = Position{*x, *y};
      req.center_frequency = Hertz{*center};
      req.bandwidth = Hertz{*bw};
      req.operator_contact = "block-" + std::to_string(*block) + "@dlte";
      for (std::uint32_t i = 0; i < *count; ++i) {
        const auto start = Clock::now();
        reg.request_grant(
            req, [this, batch](Result<spectrum::SpectrumGrant> result) {
              if (result) batch->ids.push_back(result->id.value());
              if (++batch->done < batch->expected) return;
              ByteWriter w;
              w.u32(batch->block);
              w.u8(batch->ids.empty() ? 0 : 1);
              w.u32(static_cast<std::uint32_t>(batch->ids.size()));
              for (const std::uint64_t id : batch->ids) w.u64(id);
              runtime_.post(kRegistryEndpoint,
                            static_cast<EndpointId>(1 + batch->block),
                            config_.registry_delay,
                            workload::kLeaseGrantReply, w.take());
            });
        spans_.grant_us.push_back(us_since(start));
      }
      return;
    }
    case workload::kLeaseHeartbeatBatch: {
      const auto block = r.u32();
      const auto count = r.u32();
      if (!block || !count) return;
      std::uint32_t ok = 0;
      std::uint32_t unreachable = 0;
      std::vector<std::uint64_t> lapsed;
      for (std::uint32_t i = 0; i < *count; ++i) {
        const auto id = r.u64();
        if (!id) break;
        const auto start = Clock::now();
        const spectrum::HeartbeatOutcome outcome =
            reg.heartbeat_outcome(GrantId{*id});
        spans_.heartbeat_us.push_back(us_since(start));
        switch (outcome) {
          case spectrum::HeartbeatOutcome::kRenewed:
            ++ok;
            break;
          case spectrum::HeartbeatOutcome::kUnreachable:
            ++unreachable;
            break;
          case spectrum::HeartbeatOutcome::kLapsed:
            lapsed.push_back(*id);
            break;
        }
      }
      ByteWriter w;
      w.u32(*block);
      w.u32(ok);
      w.u32(unreachable);
      w.u32(static_cast<std::uint32_t>(lapsed.size()));
      for (const std::uint64_t id : lapsed) w.u64(id);
      runtime_.post(kRegistryEndpoint, static_cast<EndpointId>(1 + *block),
                    config_.registry_delay, workload::kLeaseHeartbeatReply,
                    w.take());
      return;
    }
    case workload::kLeaseQuery: {
      const auto block = r.u32();
      const auto x = r.f64();
      const auto y = r.f64();
      if (!block || !x || !y) return;
      const auto start = Clock::now();
      const auto occ = reg.zone_occupancy(*block, Position{*x, *y});
      spans_.occupancy_us.push_back(us_since(start));
      Duration delay = registry_->cache->tier_latency(occ.tier);
      if (delay.is_zero()) {
        delay = spectrum::registry_latency(spectrum::RegistryKind::kFederated)
                    .query;
      }
      ByteWriter w;
      w.u32(*block);
      w.u8(static_cast<std::uint8_t>(occ.tier));
      w.u8(occ.stale ? 1 : 0);
      w.u64(static_cast<std::uint64_t>(occ.grants));
      runtime_.post(kRegistryEndpoint, static_cast<EndpointId>(1 + *block),
                    delay, workload::kLeaseQueryReply, w.take());
      return;
    }
    default:
      return;
  }
}

par::RegistryPlaneResult TracedRegistryPlane::result() const {
  obs::MetricsRegistry merged;
  runtime_.merged_metrics_into(merged);
  const auto count = [&merged](const char* name) {
    const obs::Counter* c = merged.find_counter(name);
    return c != nullptr ? c->value() : 0;
  };
  par::RegistryPlaneResult result;
  result.grants_issued = count("reg.registry.grants_issued");
  result.grant_failures = count("reg.registry.grant_failures");
  result.heartbeats_ok = count("reg.registry.heartbeats_ok");
  result.heartbeats_failed = count("reg.registry.heartbeats_failed");
  result.grants_lapsed = count("reg.registry.grants_lapsed");
  result.cache_hits = count("reg.registry.cache.hits_local") +
                      count("reg.registry.cache.hits_zone") +
                      count("reg.registry.cache.hits_root");
  result.cache_misses = count("reg.registry.cache.misses");
  result.cache_stale_serves = count("reg.registry.cache.stale_serves");
  result.cache_root_sheds = count("reg.registry.cache.root_sheds");
  for (const auto& block : blocks_) {
    result.regrant_batches += block->storm->regrant_batches();
    result.queries_answered += block->storm->queries_answered();
    result.leases_held += block->storm->leases_held();
  }
  result.windows = runtime_.windows_run();
  result.messages = runtime_.messages_exchanged();
  result.events_executed = runtime_.events_executed();
  result.sim_seconds = runtime_.now().to_seconds();
  result.outage_alert_fired = monitor_->ever_fired("registry_churn_outage");
  result.outage_alert_resolved =
      result.outage_alert_fired &&
      !monitor_->alert_active("registry_churn_outage");
  return result;
}

struct TracedTown::Island {
  int index{0};
  std::size_t shard{0};
  std::string prefix;
  sim::Simulator* sim{nullptr};
  std::unique_ptr<net::Network> network;
  NodeId ap_node;
  NodeId xg_node;
  NodeId ig_node;
  std::unique_ptr<epc::EpcCore> core;
  std::unique_ptr<core::S1Fabric> fabric;
  std::unique_ptr<core::EnodeB> enb;
  std::vector<std::unique_ptr<ue::NasClient>> clients;
  std::vector<int> neighbors;

  obs::Counter* attach_completed{nullptr};
  obs::Counter* attach_failed{nullptr};
  obs::Histogram* attach_ms{nullptr};
  obs::Counter* x2_tx{nullptr};
  obs::Counter* x2_rx{nullptr};
  obs::Histogram* x2_rx_prb{nullptr};

  std::uint32_t attached{0};
};

TracedTown::TracedTown(par::TownConfig config)
    : config_(config), runtime_(town_runtime(config_)) {}

TracedTown::~TracedTown() = default;

void TracedTown::build() {
  const int n = config_.aps;
  std::uint64_t imsi = 9000;
  for (int i = 0; i < n; ++i) {
    auto island = std::make_unique<Island>();
    Island* isl = island.get();
    isl->index = i;
    isl->shard = par::shard_of_block(static_cast<std::size_t>(i),
                                     static_cast<std::size_t>(n),
                                     config_.shards);
    isl->prefix = "ap" + std::to_string(i) + ".";
    isl->sim = &runtime_.shard_sim(isl->shard);
    obs::MetricsRegistry& domain = runtime_.shard_registry(isl->shard);

    isl->attach_completed = &domain.counter(isl->prefix + "attach.completed");
    isl->attach_failed = &domain.counter(isl->prefix + "attach.failed");
    isl->attach_ms = &domain.histogram(isl->prefix + "attach.ms");
    isl->x2_tx = &domain.counter(isl->prefix + "x2.tx");
    isl->x2_rx = &domain.counter(isl->prefix + "x2.rx");
    isl->x2_rx_prb = &domain.histogram(isl->prefix + "x2.rx_prb");

    isl->network = std::make_unique<net::Network>(*isl->sim);
    isl->network->set_metrics(&domain, isl->prefix);
    isl->ap_node = isl->network->add_node("ap" + std::to_string(i));
    isl->xg_node = isl->network->add_remote_node(
        "xg" + std::to_string(i), [this, isl](net::Packet&& p) {
          runtime_.post(static_cast<EndpointId>(isl->index),
                        static_cast<EndpointId>(p.protocol),
                        config_.backbone_delay, kX2Kind,
                        std::move(p.payload));
        });
    isl->ig_node = isl->network->add_node("ig" + std::to_string(i));
    const net::LinkConfig local_link{DataRate::mbps(1000.0),
                                     Duration::micros(200)};
    isl->network->add_link(isl->ap_node, isl->xg_node, local_link);
    isl->network->add_link(isl->ig_node, isl->ap_node, local_link);
    isl->network->set_protocol_handler(
        isl->ap_node, kX2Protocol, [isl](net::Packet&& p) {
          isl->x2_rx->inc();
          const auto decoded = lte::decode_x2(p.payload);
          if (decoded.ok()) {
            if (const auto* load =
                    std::get_if<lte::X2LoadInformation>(&decoded.value())) {
              isl->x2_rx_prb->record(load->prb_utilization);
            }
          }
        });

    isl->core = std::make_unique<epc::EpcCore>(
        *isl->sim,
        epc::EpcConfig{.deployment = epc::CoreDeployment::kLocalStub,
                       .network_id = "dlte-ap-" + std::to_string(i)},
        sim::RngStream::derive(config_.seed, "town.core",
                               static_cast<std::uint64_t>(i)));
    isl->core->set_metrics(&domain, isl->prefix);
    isl->fabric =
        std::make_unique<core::S1Fabric>(*isl->sim, isl->core->mme());
    const CellId cell{static_cast<std::uint32_t>(i + 1)};
    isl->enb = std::make_unique<core::EnodeB>(*isl->sim, *isl->fabric,
                                              core::EnbConfig{.cell = cell});
    core::EnodeB* enb = isl->enb.get();
    isl->fabric->register_enb_direct(
        cell, Duration::micros(50),
        [enb](const lte::S1apMessage& m) { enb->on_s1ap(m); });

    if (n > 1) {
      const int left = (i + n - 1) % n;
      const int right = (i + 1) % n;
      isl->neighbors.push_back(left);
      if (right != left) isl->neighbors.push_back(right);
    }

    runtime_.register_endpoint(
        static_cast<EndpointId>(i), isl->shard, [isl](const Message& m) {
          net::Packet p;
          p.src = isl->ig_node;
          p.dst = isl->ap_node;
          p.size_bytes = static_cast<int>(m.payload.size());
          p.protocol = kX2Protocol;
          p.payload = m.payload;
          isl->network->send(std::move(p));
        });

    const std::uint32_t attach_label = isl->sim->label("town.attach");
    const std::uint32_t report_label = isl->sim->label("town.x2_report");

    sim::RngStream attach_rng = sim::RngStream::derive(
        config_.seed, "town.attach", static_cast<std::uint64_t>(i));
    const double window_s = config_.horizon.to_seconds() * 0.6;
    for (int u = 0; u < config_.ues_per_ap; ++u) {
      ++imsi;
      isl->core->hss().provision(Imsi{imsi}, key_for(imsi), kOp);
      ue::SimProfile profile{Imsi{imsi}, key_for(imsi),
                             crypto::derive_opc(key_for(imsi), kOp), true,
                             "t"};
      isl->clients.push_back(std::make_unique<ue::NasClient>(
          ue::Usim{profile}, "dlte-ap-" + std::to_string(i)));
      ue::NasClient* client = isl->clients.back().get();
      isl->sim->schedule(
          Duration::seconds(attach_rng.uniform(0.0, window_s)),
          [isl, client] {
            isl->enb->attach_ue(*client, [isl](core::AttachOutcome o) {
              if (o.success) {
                isl->attach_completed->inc();
                isl->attach_ms->record(o.elapsed.to_millis());
                ++isl->attached;
              } else {
                isl->attach_failed->inc();
              }
            });
          },
          attach_label);
    }

    if (!isl->neighbors.empty()) {
      const double capacity = std::max(1, config_.ues_per_ap);
      isl->sim->every(
          config_.report_interval,
          [isl, capacity] {
            const lte::X2Message report = lte::X2LoadInformation{
                isl->enb->cell(),
                std::min(1.0, static_cast<double>(isl->attached) / capacity),
                isl->attached};
            const std::vector<std::uint8_t> bytes = lte::encode_x2(report);
            const int wire = lte::x2_wire_size(report);
            for (const int neighbor : isl->neighbors) {
              net::Packet p;
              p.src = isl->ap_node;
              p.dst = isl->xg_node;
              p.size_bytes = wire;
              p.protocol = static_cast<std::uint16_t>(neighbor);
              p.payload = bytes;
              isl->network->send(std::move(p));
              isl->x2_tx->inc();
            }
          },
          report_label);
    }

    islands_.push_back(std::move(island));
  }
}

par::TownResult TracedTown::result() const {
  par::TownResult result;
  for (const auto& island : islands_) {
    result.attaches_completed += island->attach_completed->value();
    result.attaches_failed += island->attach_failed->value();
    result.x2_reports_rx += island->x2_rx->value();
  }
  result.windows = runtime_.windows_run();
  result.messages = runtime_.messages_exchanged();
  result.sim_seconds = runtime_.now().to_seconds();
  return result;
}

}  // namespace perfbench
