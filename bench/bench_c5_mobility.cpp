// Experiment C5 — §4.2 "Service Mobility".
//
// A UE drives down a road through a string of APs while streaming to an
// OTT service. Compared end to end:
//   * dLTE + QUIC-like : new address per AP; 0-RTT-capable transport
//                        migrates the connection (client-managed).
//   * dLTE + TCP-like  : the address change kills the connection; the
//                        application reconnects (2 RTTs) and resumes.
//   * centralized LTE  : MME-anchored handover hides the move (short
//                        radio interruption, no address change) — but
//                        every packet tromboned through the EPC site.
// Swept: UE speed (dwell time per AP) and OTT placement (core vs edge).
// The paper predicts its own breakdown regime: dLTE degrades once dwell
// time approaches the RTT to in-use OTT services; MME anchoring is the
// smoothest but pays the Fig.-1 trombone on every packet.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/enodeb.h"
#include "core/handover.h"
#include "core/s1_fabric.h"
#include "epc/epc.h"
#include "epc/gtp_plane.h"
#include "transport/transport.h"
#include "ue/mobility.h"
#include "ue/nas_client.h"
#include "workload/ott_service.h"

namespace {
using namespace dlte;

constexpr int kAps = 8;
constexpr double kSpacingM = 800.0;
constexpr double kStreamRate = 1.5e6 / 8.0;  // 1.5 Mb/s in bytes/s.

crypto::Key128 key_for(std::uint64_t imsi) {
  crypto::Key128 k{};
  for (std::size_t i = 0; i < 16; ++i) {
    k[i] = static_cast<std::uint8_t>(imsi + i);
  }
  return k;
}

// Measure the real dLTE re-attach time once (local core stub, full
// RRC + EPS-AKA dialogue): this is the radio-side outage at every AP
// change in the dLTE rows.
Duration measure_dlte_attach() {
  sim::Simulator sim;
  crypto::Block128 op{};
  op[0] = 0xcd;
  epc::EpcCore core{sim,
                    epc::EpcConfig{.deployment =
                                       epc::CoreDeployment::kLocalStub,
                                   .network_id = "n"},
                    sim::RngStream{5}};
  core::S1Fabric fabric{sim, core.mme()};
  core::EnodeB enb{sim, fabric, core::EnbConfig{.cell = CellId{1}}};
  fabric.register_enb_direct(CellId{1}, Duration::micros(50),
                             [&](const lte::S1apMessage& m) {
                               enb.on_s1ap(m);
                             });
  core.hss().provision(Imsi{42}, key_for(42), op);
  ue::SimProfile p{Imsi{42}, key_for(42), crypto::derive_opc(key_for(42), op),
                   true, "t"};
  ue::NasClient client{ue::Usim{p}, "n"};
  core::AttachOutcome out;
  enb.attach_ue(client, [&](core::AttachOutcome o) { out = o; });
  sim.run_all();
  return out.elapsed;
}

enum class Arch { kDlteQuic, kDlteTcp, kDlteCoopHandover, kCentralized };

struct RunResult {
  double delivered_ratio{0.0};
  double mean_stall_ms{0.0};
  double worst_stall_ms{0.0};
  int transitions{0};
  double ott_rtt_ms{0.0};
  double dwell_s{0.0};
  double sim_s{0.0};
};

// `reg` may be null: the dense-deployment and OTT-placement sweeps run
// without metrics so the main table's counters stay cleanly scoped.
RunResult run_drive(Arch arch, double speed_mps, Duration ott_latency,
                    Duration attach_outage, double spacing_m = kSpacingM,
                    obs::MetricsRegistry* reg = nullptr,
                    const std::string& metrics_prefix = "") {
  sim::Simulator sim;
  sim.set_metrics(reg, metrics_prefix);
  net::Network net{sim};
  net.set_metrics(reg, metrics_prefix);

  const NodeId ue_node = net.add_node("ue");
  const NodeId internet = net.add_node("internet");
  const NodeId core_site = net.add_node("epc");
  const NodeId ott_node = net.add_node("ott");
  std::vector<NodeId> aps;

  const net::LinkConfig radio{DataRate::mbps(20.0), Duration::millis(10)};
  const net::LinkConfig isp{DataRate::mbps(100.0), Duration::millis(15)};
  for (int i = 0; i < kAps; ++i) {
    const NodeId ap = net.add_node("ap" + std::to_string(i));
    aps.push_back(ap);
    net.add_link(ue_node, ap, radio);
    net.set_link_enabled(ue_node, ap, i == 0);
    if (arch == Arch::kCentralized) {
      net.add_link(ap, core_site,
                   net::LinkConfig{DataRate::mbps(100.0),
                                   Duration::millis(25)});
    } else {
      net.add_link(ap, internet, isp);
    }
  }
  if (arch == Arch::kCentralized) {
    net.add_link(core_site, internet,
                 net::LinkConfig{DataRate::mbps(1000.0),
                                 Duration::millis(10)});
  }
  net.add_link(internet, ott_node,
               net::LinkConfig{DataRate::mbps(1000.0), ott_latency});

  transport::TransportHost ue_host{sim, net, ue_node};
  workload::OttService ott{sim, net, ott_node};

  transport::TransportConfig quic_cfg{};  // QUIC-like defaults.
  transport::TransportConfig tcp_cfg{.kind = transport::TransportKind::kTcpLike};

  // Application state: a stream of CBR data across possibly several
  // transport connections (TCP reconnects).
  struct App {
    transport::Connection* conn{nullptr};
    std::vector<transport::Connection*> all;
    double offered{0.0};
  } app;

  auto open_connection = [&](bool resumed) -> transport::Connection& {
    auto& c = ue_host.connect(
        ott.node(), arch == Arch::kDlteTcp ? tcp_cfg : quic_cfg, nullptr,
        resumed);
    app.all.push_back(&c);
    return c;
  };
  app.conn = &open_connection(false);

  // CBR ticker into whichever connection is current.
  const Duration tick = Duration::millis(20);
  sim.every(tick, [&] {
    const double bytes = kStreamRate * tick.to_seconds();
    app.offered += bytes;
    app.conn->send(bytes);
  });

  // Drive: AP transitions at crossing times. Simulate long enough to see
  // several transitions even at walking speed.
  const double dwell_s = spacing_m / speed_mps;
  const double total_s = std::min(dwell_s * (kAps - 1), 
                                  std::max(60.0, dwell_s * 3.2));
  std::vector<TimePoint> crossings;
  for (int k = 1; k < kAps; ++k) {
    const double t = dwell_s * k;
    if (t >= total_s) break;
    const TimePoint when = TimePoint::from_ns(0) + Duration::seconds(t);
    crossings.push_back(when);
    sim.schedule_at(when, [&, k] {
      net.set_link_enabled(ue_node, aps[static_cast<std::size_t>(k - 1)],
                           false);
      // Outage per architecture: X2-anchored handover (centralized),
      // cooperative X2 handoff between dLTE peers (RRC reconfiguration
      // only — see core/handover.h), or a full re-attach.
      Duration outage = attach_outage;
      if (arch == Arch::kCentralized) outage = Duration::millis(30);
      if (arch == Arch::kDlteCoopHandover) outage = Duration::millis(35);
      sim.schedule(outage, [&, k] {
        net.set_link_enabled(ue_node, aps[static_cast<std::size_t>(k)],
                             true);
        if (arch == Arch::kDlteQuic || arch == Arch::kDlteCoopHandover) {
          // Address changed: migrate in place (client-managed rebind).
          app.conn->rebind(ue_host);
        } else if (arch == Arch::kDlteTcp) {
          // Connection is dead; application opens a fresh one (session
          // resumption at the app layer) and continues the stream.
          app.conn->rebind(ue_host);  // Marks it broken.
          app.conn = &open_connection(false);
        }
        // Centralized: transport unaware; the anchor held the address.
      });
    });
  }

  sim.run_until(TimePoint::from_ns(0) + Duration::seconds(total_s));

  RunResult r;
  double delivered = 0.0;
  for (auto* c : app.all) delivered += ott.delivered_bytes(c->id());
  r.delivered_ratio = app.offered > 0 ? delivered / app.offered : 0.0;
  r.transitions = static_cast<int>(crossings.size());
  r.dwell_s = dwell_s;
  r.sim_s = total_s;

  // Interruption: longest delivery stall in a window around each crossing,
  // measured on whichever connection carried traffic then.
  RunningStats stalls;
  for (const TimePoint c : crossings) {
    Duration worst{};
    for (auto* conn : app.all) {
      const Duration s = ott.longest_stall(conn->id(), c - Duration::millis(50),
                                           c + Duration::seconds(2.0));
      // The active connection's stall is the smallest positive one that
      // still spans the crossing; idle connections report the whole
      // window. Take the minimum over connections that delivered at all.
      if (ott.delivered_bytes(conn->id()) > 0.0) {
        if (worst.is_zero() || s < worst) worst = s;
      }
    }
    stalls.add(worst.to_millis());
    r.worst_stall_ms = std::max(r.worst_stall_ms, worst.to_millis());
  }
  r.mean_stall_ms = stalls.count() > 0 ? stalls.mean() : 0.0;
  r.ott_rtt_ms =
      2.0 * net.path_latency(ue_node, ott_node, 200).to_millis();
  return r;
}

const char* arch_name(Arch a) {
  switch (a) {
    case Arch::kDlteQuic:
      return "dLTE + QUIC-like";
    case Arch::kDlteTcp:
      return "dLTE + TCP-like";
    case Arch::kDlteCoopHandover:
      return "dLTE coop handoff + QUIC";
    case Arch::kCentralized:
      return "centralized LTE";
  }
  return "?";
}

const char* arch_slug(Arch a) {
  switch (a) {
    case Arch::kDlteQuic:
      return "quic";
    case Arch::kDlteTcp:
      return "tcp";
    case Arch::kDlteCoopHandover:
      return "coop";
    case Arch::kCentralized:
      return "central";
  }
  return "unknown";
}

// "1.5 m/s" -> "1p5"; integral speeds print without the fraction.
std::string speed_slug(double v) {
  const int whole = static_cast<int>(v);
  const int tenth = static_cast<int>(v * 10.0) % 10;
  std::string s = std::to_string(whole);
  if (tenth != 0) s += "p" + std::to_string(tenth);
  return s;
}

// --trace-out mode: one end-to-end causally-traced scenario. Two
// cooperative APs come up against the registry, run X2 share rounds,
// attach a UE (full RRC + AKA + bearer setup), push GTP-U traffic
// through a centralized-style tunnel, and hand the UE over — so a
// single exported Chrome trace shows every procedure family, causally
// parented, on the simulated clock.
void run_traced_scenario(dlte::bench::Harness& harness) {
  obs::SpanTracer* tracer = harness.tracer();
  sim::Simulator sim;
  harness.set_trace_clock([&sim] { return sim.now(); });
  net::Network net{sim};
  net.set_tracer(tracer);
  core::RadioEnvironment radio;
  spectrum::Registry registry{sim, spectrum::RegistryKind::kCentralizedSas};
  registry.set_tracer(tracer);

  const NodeId internet = net.add_node("internet");
  std::vector<std::unique_ptr<core::DlteAccessPoint>> aps;
  std::vector<std::unique_ptr<core::HandoverManager>> managers;
  for (std::uint32_t id : {1u, 2u}) {
    const NodeId node = net.add_node("ap" + std::to_string(id));
    net.add_link(node, internet,
                 net::LinkConfig{DataRate::mbps(50.0), Duration::millis(15)});
    core::ApConfig cfg;
    cfg.id = ApId{id};
    cfg.cell = CellId{id};
    cfg.position = Position{(id - 1) * 5'000.0, 0.0};
    cfg.mode = lte::DlteMode::kCooperative;
    cfg.seed = id;
    aps.push_back(
        std::make_unique<core::DlteAccessPoint>(sim, net, node, radio, cfg));
    aps.back()->set_span_tracer(tracer, "ap" + std::to_string(id) + "/");
    managers.push_back(
        std::make_unique<core::HandoverManager>(sim, *aps.back()));
    managers.back()->set_tracer(tracer, "ap" + std::to_string(id) + "/");
  }
  for (auto& ap : aps) ap->bring_up(registry);
  sim.run_until(sim.now() + Duration::seconds(2.0));

  // Open-identity subscriber, then a full traced attach at AP 1.
  const Imsi imsi{900001};
  const crypto::Key128 k = key_for(imsi.value());
  crypto::Block128 op{};
  op[0] = 0xcd;
  const crypto::Block128 opc = crypto::derive_opc(k, op);
  registry.publish_subscriber(epc::PublishedKeys{imsi, k, opc});
  for (auto& ap : aps) ap->import_published_subscribers(registry);
  core::UeDevice ue{
      ue::SimProfile{imsi, k, opc, true, "trace"},
      std::make_unique<ue::StaticMobility>(Position{2'500.0, 0.0})};
  aps[0]->attach(ue, mac::UeTrafficConfig{.full_buffer = true});
  sim.run_until(sim.now() + Duration::seconds(2.0));

  // GTP-U tunnel leg (the centralized comparison's user plane): uplink
  // spans close at the gateway, downlink spans at the eNodeB endpoint.
  const NodeId tun_enb = net.add_node("tunnel-enb");
  const NodeId pgw = net.add_node("pgw");
  net.add_link(tun_enb, pgw,
               net::LinkConfig{DataRate::mbps(100.0), Duration::millis(25)});
  net.add_link(pgw, internet,
               net::LinkConfig{DataRate::mbps(1000.0), Duration::millis(5)});
  epc::Gateway gateway{0x0A2E0000};
  epc::GatewayDataPlane gw_plane{net, pgw, gateway};
  epc::EnbDataPlane enb_plane{net, tun_enb, pgw};
  gw_plane.set_tracer(tracer, "core/");
  enb_plane.set_tracer(tracer, "core/");
  epc::BearerContext& bearer = gateway.create_session(imsi, BearerId{5});
  gateway.complete_session(imsi, Teid{5000 + bearer.uplink_teid.value()});
  const auto* ctx = gateway.find_by_imsi(imsi);
  gw_plane.bind_enb(ctx->downlink_teid, tun_enb);
  enb_plane.configure_bearer(ctx->ue_ip, ctx->uplink_teid);
  for (int i = 0; i < 3; ++i) {
    enb_plane.send_uplink(ctx->ue_ip, internet, 1200);
  }
  net.send(net::Packet{
      internet, pgw, 900, epc::kUserIpProtocol,
      epc::encode_inner(epc::InnerDatagram{ctx->ue_ip, internet, 900})});
  sim.run_until(sim.now() + Duration::seconds(1.0));

  // Cooperative handoff AP1 → AP2 (handover + admit + RRC spans).
  managers[0]->initiate(ue, ApId{2},
                        mac::UeTrafficConfig{.full_buffer = true}, nullptr);
  sim.run_until(sim.now() + Duration::seconds(2.0));

  harness.add_sim_seconds((sim.now() - TimePoint{}).to_seconds());
  harness.gauge("c5.trace.spans",
                static_cast<double>(tracer->spans().size()));
  std::cout << "\nTraced scenario: " << tracer->spans().size()
            << " spans recorded (" << tracer->open_count()
            << " still open at export)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Duration attach = measure_dlte_attach();

  print_bench_header(std::cout, "C5", "paper §4.2, Service Mobility",
                     "endpoint transports make per-AP re-addressing viable "
                     "at rural speeds; dLTE degrades as dwell approaches "
                     "the OTT RTT; MME anchoring stays smooth but pays the "
                     "trombone");
  dlte::bench::Harness harness{"c5_mobility"};
  harness.parse_args(argc, argv);
  harness.gauge("c5.attach_ms", attach.to_millis());
  std::cout << "Measured dLTE re-attach (RRC + EPS-AKA on local stub): "
            << attach.to_millis() << " ms\n\n";

  TextTable t{{"speed", "dwell/AP", "arch", "delivered", "mean stall",
               "worst stall", "transitions"}};
  for (double v : {1.5, 5.0, 15.0, 30.0, 50.0}) {
    for (Arch a : {Arch::kDlteQuic, Arch::kDlteTcp, Arch::kDlteCoopHandover,
                   Arch::kCentralized}) {
      const std::string prefix =
          "c5.v" + speed_slug(v) + "." + arch_slug(a) + ".";
      const RunResult r = run_drive(a, v, Duration::millis(40), attach,
                                    kSpacingM, &harness.metrics(), prefix);
      harness.add_sim_seconds(r.sim_s);
      harness.gauge(prefix + "delivered_pct", r.delivered_ratio * 100.0);
      harness.gauge(prefix + "mean_stall_ms", r.mean_stall_ms);
      harness.gauge(prefix + "worst_stall_ms", r.worst_stall_ms);
      t.row()
          .num(v, 1, "m/s")
          .num(r.dwell_s, 1, "s")
          .add(arch_name(a))
          .num(r.delivered_ratio * 100.0, 1, "%")
          .num(r.mean_stall_ms, 0, "ms")
          .num(r.worst_stall_ms, 0, "ms")
          .integer(r.transitions);
    }
  }
  t.print(std::cout);

  // The paper's predicted breakdown: dense AP distributions + high speed
  // push dwell time toward the OTT RTT. 100 m spacing (urban pico string).
  std::cout << "\nDense deployment (100 m AP spacing): dwell time "
               "approaches service RTT — the\nregime §4.2 concedes to the "
               "centralized model:\n";
  TextTable d{{"speed", "dwell/AP", "arch", "delivered", "mean stall"}};
  for (double v : {10.0, 30.0, 60.0, 100.0}) {
    for (Arch a : {Arch::kDlteQuic, Arch::kDlteTcp, Arch::kDlteCoopHandover,
                   Arch::kCentralized}) {
      const RunResult r = run_drive(a, v, Duration::millis(40), attach,
                                    100.0);
      harness.add_sim_seconds(r.sim_s);
      harness.gauge("c5.dense.v" + speed_slug(v) + "." + arch_slug(a) +
                        ".delivered_pct",
                    r.delivered_ratio * 100.0);
      d.row()
          .num(v, 0, "m/s")
          .num(r.dwell_s, 2, "s")
          .add(arch_name(a))
          .num(r.delivered_ratio * 100.0, 1, "%")
          .num(r.mean_stall_ms, 0, "ms");
    }
  }
  d.print(std::cout);

  std::cout << "\nOTT placement ablation (dLTE + TCP-like @ 30 m/s, dense): "
               "the paper's proposed\nmitigation of moving services toward "
               "the edge — reconnect cost scales with RTT:\n";
  TextTable e{{"OTT placement", "UE-OTT RTT", "delivered", "mean stall"}};
  for (auto [name, lat] :
       {std::pair{"core cloud (40 ms)", Duration::millis(40)},
        std::pair{"regional (15 ms)", Duration::millis(15)},
        std::pair{"edge (3 ms)", Duration::millis(3)}}) {
    const RunResult r = run_drive(Arch::kDlteTcp, 30.0, lat, attach, 100.0);
    harness.add_sim_seconds(r.sim_s);
    e.row()
        .add(name)
        .num(r.ott_rtt_ms, 0, "ms")
        .num(r.delivered_ratio * 100.0, 1, "%")
        .num(r.mean_stall_ms, 0, "ms");
  }
  e.print(std::cout);

  std::cout << "\nShape check: at walking/village speeds all three are "
               "fine; QUIC-like migration keeps\nthe gap near one re-attach; "
               "TCP-like adds reconnect RTTs; centralized stays smooth\nat "
               "any speed (its cost is the F1 trombone, not shown here). "
               "Edge OTT shrinks the\nstall floor, as §4.2 suggests.\n";

  if (harness.tracing()) run_traced_scenario(harness);
  return harness.finish(0);
}
