#include "par/town.h"

#include <algorithm>
#include <utility>

#include "core/enodeb.h"
#include "core/s1_fabric.h"
#include "epc/epc.h"
#include "lte/x2ap.h"
#include "net/network.h"
#include "par/partition.h"
#include "ue/nas_client.h"

namespace dlte::par {

namespace {
// Protocol tag X2 PDUs carry on an island's own network. On the uplink
// leg (AP → egress portal) the protocol field instead carries the
// DESTINATION AP id — the portal is a remote node, so no protocol
// dispatch happens there and the field is free to address the peer.
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

// One AP and everything that lives with it: local core stub, S1 fabric,
// eNodeB, packet network with an egress portal, UEs. An island never
// touches another island's state — all inter-AP traffic is a par
// Message — which is what makes the partition a pure ownership split.
struct ShardedTown::Island {
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

ShardedTown::ShardedTown(TownConfig config)
    : config_(config), runtime_([&config] {
        ShardedConfig rc;
        rc.shards = config.shards;
        rc.threads = config.threads;
        rc.lookahead = config.backbone_delay;
        rc.sample_interval = config.sample_interval;
        rc.profile = config.profile;
        rc.audit = config.audit;
        rc.audit_window = config.audit_window;
        rc.engine_sample_interval = config.engine_sample_interval;
        return rc;
      }()) {}

ShardedTown::~ShardedTown() = default;

void ShardedTown::build() {
  const int n = config_.aps;
  std::uint64_t imsi = 9000;
  for (int i = 0; i < n; ++i) {
    auto island = std::make_unique<Island>();
    Island* isl = island.get();
    isl->index = i;
    isl->shard = shard_of_block(static_cast<std::size_t>(i),
                                static_cast<std::size_t>(n), config_.shards);
    isl->prefix = "ap" + std::to_string(i) + ".";
    isl->sim = &runtime_.shard_sim(isl->shard);
    obs::MetricsRegistry& domain = runtime_.shard_registry(isl->shard);

    // Scenario metrics: shard-unique names via the per-AP prefix (the
    // obs::merge_registry contract).
    isl->attach_completed = &domain.counter(isl->prefix + "attach.completed");
    isl->attach_failed = &domain.counter(isl->prefix + "attach.failed");
    isl->attach_ms = &domain.histogram(isl->prefix + "attach.ms");
    isl->x2_tx = &domain.counter(isl->prefix + "x2.tx");
    isl->x2_rx = &domain.counter(isl->prefix + "x2.rx");
    isl->x2_rx_prb = &domain.histogram(isl->prefix + "x2.rx_prb");

    // The island's own packet network: AP node, egress portal (remote),
    // ingress node for traffic arriving from peers.
    isl->network = std::make_unique<net::Network>(*isl->sim);
    isl->network->set_metrics(&domain, isl->prefix);
    isl->ap_node = isl->network->add_node("ap" + std::to_string(i));
    isl->xg_node = isl->network->add_remote_node(
        "xg" + std::to_string(i), [this, isl](net::Packet&& p) {
          // Uplink leg done: hand to the runtime. The protocol field
          // carries the destination AP id (see kX2Protocol note).
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

    // Local EPC stub + eNodeB (the c4 per-site island pattern). RNG
    // derives from the SCENARIO seed and the AP index — never the shard —
    // so per-AP sequences survive any repartition.
    isl->core = std::make_unique<epc::EpcCore>(
        *isl->sim,
        epc::EpcConfig{.deployment = epc::CoreDeployment::kLocalStub,
                       .network_id = "dlte-ap-" + std::to_string(i)},
        sim::RngStream::derive(config_.seed, "town.core",
                               static_cast<std::uint64_t>(i)));
    isl->core->set_metrics(&domain, isl->prefix);
    isl->fabric = std::make_unique<core::S1Fabric>(*isl->sim,
                                                   isl->core->mme());
    const CellId cell{static_cast<std::uint32_t>(i + 1)};
    isl->enb = std::make_unique<core::EnodeB>(*isl->sim, *isl->fabric,
                                              core::EnbConfig{.cell = cell});
    core::EnodeB* enb = isl->enb.get();
    isl->fabric->register_enb_direct(
        cell, Duration::micros(50),
        [enb](lte::S1apMessage&& m) { enb->on_s1ap(std::move(m)); });

    // Ring neighbours (deduplicated for tiny towns).
    if (n > 1) {
      const int left = (i + n - 1) % n;
      const int right = (i + 1) % n;
      isl->neighbors.push_back(left);
      if (right != left) isl->neighbors.push_back(right);
    }

    // Cross-shard delivery: replay the payload through the island's
    // ingress path so it pays local link latency like any other packet.
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

    // Staggered attaches from the per-AP stream, drawn in UE order.
    sim::RngStream attach_rng = sim::RngStream::derive(
        config_.seed, "town.attach", static_cast<std::uint64_t>(i));
    const double window_s = config_.horizon.to_seconds() * 0.6;
    for (int u = 0; u < config_.ues_per_ap; ++u) {
      ++imsi;
      const crypto::Key128 k = key_for(imsi);
      const crypto::Block128 opc = crypto::derive_opc(k, kOp);
      isl->core->hss().provision_with_opc(Imsi{imsi}, k, opc);
      ue::SimProfile profile{Imsi{imsi}, k, opc, true, "t"};
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

    // Periodic X2 load reports to the ring neighbours.
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
  built_ = true;
}

TownResult ShardedTown::run() {
  if (!built_) build();
  runtime_.run_until(TimePoint{} + config_.horizon);
  TownResult result;
  for (const auto& island : islands_) {
    result.attaches_completed += island->attach_completed->value();
    result.attaches_failed += island->attach_failed->value();
    result.x2_reports_rx += island->x2_rx->value();
  }
  result.windows = runtime_.windows_run();
  result.messages = runtime_.messages_exchanged();
  result.sim_seconds = config_.horizon.to_seconds();
  return result;
}

}  // namespace dlte::par
