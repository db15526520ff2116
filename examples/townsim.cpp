// townsim: a configurable dLTE town — the downstream user's sandbox.
//
//   townsim [--aps N] [--ues M] [--mode fair|coop|isolated]
//           [--registry sas|federated|blockchain] [--spacing METERS]
//           [--duration SECONDS] [--seed S] [--trace-out=FILE]
//           [--shards N] [--par-threads T]
//
// Builds N APs in a line with M clients scattered around them, brings
// everything up through the chosen registry, serves a mixed traffic
// load, and prints the operator's-eye report: shares, per-client
// service, fairness, and coordination cost. --trace-out writes the
// causal span trace (grants, attaches, X2 rounds) as Chrome trace-event
// JSON for ui.perfetto.dev.
//
// With --shards N the town instead runs on the sharded parallel runtime
// (src/par/): per-AP islands exchanging X2 load reports across shards,
// merged telemetry byte-identical at any shard/thread count. --mode,
// --registry and --spacing do not apply there.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/table.h"
#include "core/access_point.h"
#include "obs/text_file.h"
#include "obs/trace_export.h"
#include "par/town.h"
#include "spectrum/chain.h"
#include "ue/mobility.h"

using namespace dlte;

namespace {

struct Options {
  int aps{3};
  int ues{12};
  lte::DlteMode mode{lte::DlteMode::kFairShare};
  spectrum::RegistryKind registry{spectrum::RegistryKind::kCentralizedSas};
  double spacing_m{5'000.0};
  double duration_s{10.0};
  std::uint64_t seed{1};
  std::string trace_out;
  std::size_t shards{0};  // 0 = classic single-simulator town
  std::size_t par_threads{0};
};

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](double& out) {
      if (i + 1 >= argc) return false;
      out = std::stod(argv[++i]);
      return true;
    };
    double v = 0.0;
    if (arg == "--aps" && next(v)) {
      opt.aps = static_cast<int>(v);
    } else if (arg == "--ues" && next(v)) {
      opt.ues = static_cast<int>(v);
    } else if (arg == "--spacing" && next(v)) {
      opt.spacing_m = v;
    } else if (arg == "--duration" && next(v)) {
      opt.duration_s = v;
    } else if (arg == "--seed" && next(v)) {
      opt.seed = static_cast<std::uint64_t>(v);
    } else if (arg == "--shards" && next(v)) {
      opt.shards = static_cast<std::size_t>(v);
    } else if (arg == "--par-threads" && next(v)) {
      opt.par_threads = static_cast<std::size_t>(v);
    } else if (arg == "--mode" && i + 1 < argc) {
      const std::string m = argv[++i];
      if (m == "fair") {
        opt.mode = lte::DlteMode::kFairShare;
      } else if (m == "coop") {
        opt.mode = lte::DlteMode::kCooperative;
      } else if (m == "isolated") {
        opt.mode = lte::DlteMode::kIsolated;
      } else {
        return false;
      }
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      opt.trace_out = arg.substr(std::string("--trace-out=").size());
    } else if (arg == "--registry" && i + 1 < argc) {
      const std::string r = argv[++i];
      if (r == "sas") {
        opt.registry = spectrum::RegistryKind::kCentralizedSas;
      } else if (r == "federated") {
        opt.registry = spectrum::RegistryKind::kFederated;
      } else if (r == "blockchain") {
        opt.registry = spectrum::RegistryKind::kBlockchain;
      } else {
        return false;
      }
    } else {
      return false;
    }
  }
  return opt.aps >= 1 && opt.ues >= 0 && opt.duration_s > 0.0;
}

// --shards mode: the X2-coupled island town on the parallel runtime.
int run_sharded(const Options& opt) {
  par::TownConfig cfg;
  cfg.aps = static_cast<std::size_t>(opt.aps);
  cfg.ues_per_ap = static_cast<std::size_t>(
      opt.ues > 0 ? std::max(1, opt.ues / opt.aps) : 0);
  cfg.shards = opt.shards;
  cfg.threads = opt.par_threads;
  cfg.seed = opt.seed;
  cfg.horizon = Duration::seconds(opt.duration_s);
  par::ShardedTown town{cfg};
  const auto start = std::chrono::steady_clock::now();
  const par::TownResult r = town.run();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::cout << "sharded town: " << cfg.aps << " AP islands on "
            << town.runtime().shard_count() << " shards\n\n";
  TextTable t{{"", ""}};
  t.row()
      .add("attaches completed")
      .integer(static_cast<long long>(r.attaches_completed));
  t.row()
      .add("attaches failed")
      .integer(static_cast<long long>(r.attaches_failed));
  t.row()
      .add("X2 load reports rx")
      .integer(static_cast<long long>(r.x2_reports_rx));
  t.row().add("barrier windows").integer(static_cast<long long>(r.windows));
  t.row().add("cross-shard msgs").integer(static_cast<long long>(r.messages));
  t.row().add("simulated").num(r.sim_seconds, 1, "s");
  t.row().add("wall").num(wall * 1000.0, 1, "ms");
  t.print(std::cout);
  std::cout << "\nMerged telemetry is byte-identical at any --shards / "
               "--par-threads\nsetting (bench_c9 and par_test check this "
               "on every run).\n";
  return r.attaches_failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: townsim [--aps N] [--ues M] "
                 "[--mode fair|coop|isolated]\n"
                 "               [--registry sas|federated|blockchain] "
                 "[--spacing M]\n"
                 "               [--duration SEC] [--seed S] "
                 "[--trace-out=FILE]\n"
                 "               [--shards N] [--par-threads T]\n";
    return 2;
  }
  if (opt.shards > 0) return run_sharded(opt);

  sim::Simulator sim;
  std::unique_ptr<obs::SpanTracer> tracer;
  if (!opt.trace_out.empty()) {
    tracer = std::make_unique<obs::SpanTracer>([&sim] { return sim.now(); });
  }
  net::Network net{sim};
  core::RadioEnvironment radio;
  spectrum::Registry registry{sim, opt.registry};
  registry.set_tracer(tracer.get());
  spectrum::SpectrumChain chain{sim, Duration::seconds(30.0)};
  if (opt.registry == spectrum::RegistryKind::kBlockchain) {
    registry.attach_chain(&chain);
  }
  const NodeId internet = net.add_node("internet");

  // Access points.
  std::vector<std::unique_ptr<core::DlteAccessPoint>> aps;
  int grants = 0;
  for (int a = 0; a < opt.aps; ++a) {
    const NodeId node = net.add_node("ap" + std::to_string(a + 1));
    net.add_link(node, internet,
                 net::LinkConfig{DataRate::mbps(50.0), Duration::millis(15)});
    core::ApConfig cfg;
    cfg.id = ApId{static_cast<std::uint32_t>(a + 1)};
    cfg.cell = CellId{static_cast<std::uint32_t>(a + 1)};
    cfg.position = Position{a * opt.spacing_m, 0.0};
    cfg.mode = opt.mode;
    cfg.operator_contact = "op" + std::to_string(a + 1) + "@town.example";
    cfg.seed = opt.seed + static_cast<std::uint64_t>(a);
    aps.push_back(
        std::make_unique<core::DlteAccessPoint>(sim, net, node, radio, cfg));
    aps.back()->set_span_tracer(tracer.get(),
                                "ap" + std::to_string(a + 1) + "/");
    aps.back()->bring_up(registry, [&](bool ok) { grants += ok ? 1 : 0; });
  }
  // Blockchain commits wait for a block; give bring-up time to finish.
  const double bring_up_s =
      opt.registry == spectrum::RegistryKind::kBlockchain ? 70.0 : 3.0;
  sim.run_until(sim.now() + Duration::seconds(bring_up_s));
  std::cout << grants << "/" << opt.aps << " APs hold grants ("
            << (opt.registry == spectrum::RegistryKind::kCentralizedSas
                    ? "SAS"
                : opt.registry == spectrum::RegistryKind::kFederated
                    ? "federated"
                    : "blockchain")
            << " registry)\n";

  // Clients: scattered around their home AP, identities published.
  crypto::Block128 op{};
  op[0] = 0xcd;
  sim::RngStream placement = sim::RngStream::derive(opt.seed, "placement");
  std::vector<std::unique_ptr<core::UeDevice>> ues;
  int attached = 0;
  Quantiles attach_ms;
  for (int u = 0; u < opt.ues; ++u) {
    crypto::Key128 k{};
    for (std::size_t i = 0; i < 16; ++i) {
      k[i] = static_cast<std::uint8_t>(u * 17 + i);
    }
    const Imsi imsi{900000000000000ULL + static_cast<std::uint64_t>(u)};
    const crypto::Block128 opc = crypto::derive_opc(k, op);
    registry.publish_subscriber(epc::PublishedKeys{imsi, k, opc});
    const int home = u % opt.aps;
    const double off = placement.uniform(-0.25, 0.25) * opt.spacing_m;
    ues.push_back(std::make_unique<core::UeDevice>(
        ue::SimProfile{imsi, k, opc, true, "u"},
        std::make_unique<ue::StaticMobility>(
            Position{home * opt.spacing_m + off,
                     placement.uniform(100.0, 800.0)})));
    auto& ap = *aps[static_cast<std::size_t>(home)];
    ap.import_published_subscribers(registry);
    const bool heavy = u % 3 == 0;
    ap.attach(*ues.back(),
              mac::UeTrafficConfig{.offered = heavy ? DataRate::mbps(4.0)
                                                    : DataRate::kbps(256.0)},
              [&](core::AttachOutcome o) {
                if (o.success) {
                  ++attached;
                  attach_ms.add(o.elapsed.to_millis());
                }
              });
  }
  sim.run_until(sim.now() + Duration::seconds(3.0));
  std::cout << attached << "/" << opt.ues << " clients attached (median "
            << attach_ms.median() << " ms)\n\n";

  // Serve.
  for (auto& ap : aps) ap->cell_mac().run(Duration::seconds(opt.duration_s));
  sim.run_until(sim.now() + Duration::seconds(opt.duration_s));

  // Report.
  TextTable t{{"AP", "share", "UEs", "delivered", "X2 sent"}};
  std::vector<double> per_ue;
  for (auto& ap : aps) {
    double bits = 0.0;
    for (UeId id : ap->cell_mac().ue_ids()) {
      const double ue_bits = ap->cell_mac().stats(id).delivered_bits;
      bits += ue_bits;
      per_ue.push_back(ue_bits);
    }
    t.row()
        .add("AP" + std::to_string(ap->id().value()))
        .num(ap->cell_mac().prb_share(), 2)
        .integer(static_cast<long long>(ap->cell_mac().ue_ids().size()))
        .num(bits / 1e6 / opt.duration_s, 2, "Mb/s")
        .num(static_cast<double>(ap->coordinator().stats().bytes_sent) /
                 1000.0,
             1, "kB");
  }
  t.print(std::cout);
  std::cout << "client fairness (Jain): " << jain_fairness(per_ue) << "\n";
  if (tracer != nullptr) {
    if (!obs::write_text_file(
            opt.trace_out, obs::ChromeTraceExporter::to_json(*tracer) + "\n")) {
      std::cerr << "failed to write trace to " << opt.trace_out << "\n";
      return 1;
    }
    std::cout << "span trace written to " << opt.trace_out << "\n";
  }
  if (registry.chain_backed()) {
    std::cout << "registry chain: " << chain.block_count()
              << " blocks, integrity "
              << (chain.verify() ? "OK" : "BROKEN") << "\n";
  }
  return 0;
}
