// Experiment C4 — §4.1: "each stub can be independent of others, so the
// one stub per site model naturally scales as the total number of APs
// increases."
//
// An attach storm (20 UEs per AP, simultaneous) against:
//   * dLTE: one local core stub per AP — N independent signaling queues;
//   * centralized LTE: one shared MME (0.5 ms CPU per message) behind a
//     25 ms backhaul — one queue for the whole region.
// Reported per N: attach latency p50/p95, completed attach rate, and MME
// queueing delay. The centralized rows saturate; the stub rows are flat.
// The same per-AP stub storm on the sharded runtime is C9.
#include <algorithm>
#include <iostream>
#include <memory>
#include <vector>

#include "bench_harness.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/enodeb.h"
#include "core/s1_fabric.h"
#include "epc/epc.h"
#include "ue/nas_client.h"

namespace {
using namespace dlte;

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

struct StormResult {
  Quantiles attach_ms;
  int completed{0};
  int failed{0};
  double elapsed_s{0.0};
  double mme_queue_p95_ms{0.0};
};

constexpr int kUesPerAp = 20;

// p95 of the MME queueing delay the run recorded under `prefix` (the
// `epc.queueing_delay_ms` histogram, so at bucket resolution).
double queue_p95_ms(obs::MetricsRegistry& reg, const std::string& prefix) {
  return reg.histogram(prefix + "epc.queueing_delay_ms").quantile(0.95);
}

// One centralized region: N eNodeBs, one MME across the backhaul.
StormResult centralized_storm(int n_aps, obs::MetricsRegistry* reg,
                              const std::string& prefix) {
  sim::Simulator sim;
  sim.set_metrics(reg, prefix);
  net::Network net{sim};
  net.set_metrics(reg, prefix);
  epc::EpcCore core{
      sim, epc::EpcConfig{.deployment = epc::CoreDeployment::kCentralized,
                          .network_id = "carrier"},
      sim::RngStream{17}};
  core.set_metrics(reg, prefix);
  core::S1Fabric fabric{sim, core.mme()};
  const NodeId core_node = net.add_node("epc");

  std::vector<std::unique_ptr<core::EnodeB>> enbs;
  for (int i = 0; i < n_aps; ++i) {
    const CellId cell{static_cast<std::uint32_t>(i + 1)};
    const NodeId enb_node = net.add_node("enb" + std::to_string(i));
    net.add_link(enb_node, core_node,
                 net::LinkConfig{DataRate::mbps(100.0), Duration::millis(25)});
    enbs.push_back(std::make_unique<core::EnodeB>(
        sim, fabric, core::EnbConfig{.cell = cell}));
    core::EnodeB* enb = enbs.back().get();
    fabric.register_enb_networked(net, cell, enb_node, core_node,
                                  [enb](const lte::S1apMessage& m) {
                                    enb->on_s1ap(m);
                                  });
  }

  StormResult result;
  std::vector<std::unique_ptr<ue::NasClient>> clients;
  std::uint64_t imsi = 1000;
  for (int a = 0; a < n_aps; ++a) {
    for (int u = 0; u < kUesPerAp; ++u) {
      ++imsi;
      const crypto::Key128 k = key_for(imsi);
      const crypto::Block128 opc = crypto::derive_opc(k, kOp);
      core.hss().provision_with_opc(Imsi{imsi}, k, opc);
      ue::SimProfile p{Imsi{imsi}, k, opc, true, "t"};
      clients.push_back(
          std::make_unique<ue::NasClient>(ue::Usim{p}, "carrier"));
      enbs[static_cast<std::size_t>(a)]->attach_ue(
          *clients.back(), [&result](core::AttachOutcome o) {
            if (o.success) {
              ++result.completed;
              result.attach_ms.add(o.elapsed.to_millis());
            } else {
              ++result.failed;
            }
          });
    }
  }
  sim.run_all();
  result.elapsed_s = sim.now().to_seconds();
  result.mme_queue_p95_ms = queue_p95_ms(*reg, prefix);
  return result;
}

// N independent dLTE stubs, each with its own queue.
StormResult dlte_storm(int n_aps, obs::MetricsRegistry* reg,
                       const std::string& prefix) {
  sim::Simulator sim;
  sim.set_metrics(reg, prefix);
  StormResult result;
  struct Site {
    std::unique_ptr<epc::EpcCore> core;
    std::unique_ptr<core::S1Fabric> fabric;
    std::unique_ptr<core::EnodeB> enb;
  };
  std::vector<Site> sites;
  std::vector<std::unique_ptr<ue::NasClient>> clients;
  std::uint64_t imsi = 5000;
  for (int a = 0; a < n_aps; ++a) {
    Site s;
    s.core = std::make_unique<epc::EpcCore>(
        sim,
        epc::EpcConfig{.deployment = epc::CoreDeployment::kLocalStub,
                       .network_id = "dlte-ap-" + std::to_string(a)},
        sim::RngStream::derive(23, std::to_string(a)));
    // All stubs share the prefix: per-site counts aggregate into one set
    // of region-wide metrics, directly comparable to the centralized row.
    s.core->set_metrics(reg, prefix);
    s.fabric = std::make_unique<core::S1Fabric>(sim, s.core->mme());
    s.enb = std::make_unique<core::EnodeB>(
        sim, *s.fabric,
        core::EnbConfig{.cell = CellId{static_cast<std::uint32_t>(a + 1)}});
    core::EnodeB* enb = s.enb.get();
    s.fabric->register_enb_direct(
        CellId{static_cast<std::uint32_t>(a + 1)}, Duration::micros(50),
        [enb](const lte::S1apMessage& m) { enb->on_s1ap(m); });
    sites.push_back(std::move(s));
  }
  for (int a = 0; a < n_aps; ++a) {
    for (int u = 0; u < kUesPerAp; ++u) {
      ++imsi;
      const crypto::Key128 k = key_for(imsi);
      const crypto::Block128 opc = crypto::derive_opc(k, kOp);
      sites[static_cast<std::size_t>(a)].core->hss().provision_with_opc(
          Imsi{imsi}, k, opc);
      ue::SimProfile p{Imsi{imsi}, k, opc, true, "t"};
      clients.push_back(std::make_unique<ue::NasClient>(
          ue::Usim{p}, "dlte-ap-" + std::to_string(a)));
      sites[static_cast<std::size_t>(a)].enb->attach_ue(
          *clients.back(), [&result](core::AttachOutcome o) {
            if (o.success) {
              ++result.completed;
              result.attach_ms.add(o.elapsed.to_millis());
            } else {
              ++result.failed;
            }
          });
    }
  }
  sim.run_all();
  result.elapsed_s = sim.now().to_seconds();
  // Every stub records into the one histogram under `prefix`: this is the
  // p95 over the whole region's MME messages.
  result.mme_queue_p95_ms = queue_p95_ms(*reg, prefix);
  return result;
}

}  // namespace

int main() {
  print_bench_header(std::cout, "C4", "paper §4.1, Local Cores",
                     "per-AP core stubs scale linearly; a shared core "
                     "saturates under regional attach load");
  dlte::bench::Harness harness{"c4_core_scaling"};

  TextTable t{{"APs", "UEs", "arch", "attach p50", "attach p95",
               "core queue p95", "attach rate", "completed"}};
  for (int n : {1, 2, 4, 8, 16, 32, 64}) {
    for (bool central : {false, true}) {
      const std::string prefix = "c4.n" + std::to_string(n) +
                                 (central ? ".central." : ".dlte.");
      const StormResult r = central
                                ? centralized_storm(n, &harness.metrics(),
                                                    prefix)
                                : dlte_storm(n, &harness.metrics(), prefix);
      harness.add_sim_seconds(r.elapsed_s);
      harness.gauge(prefix + "attach_p50_ms", r.attach_ms.median());
      harness.gauge(prefix + "attach_p95_ms", r.attach_ms.p95());
      harness.gauge(prefix + "queue_p95_ms", r.mme_queue_p95_ms);
      harness.counter(prefix + "completed",
                      static_cast<std::uint64_t>(r.completed));
      const double rate =
          r.completed / std::max(r.attach_ms.quantile(1.0) / 1000.0, 1e-9);
      t.row()
          .integer(n)
          .integer(n * kUesPerAp)
          .add(central ? "centralized EPC" : "dLTE stubs")
          .num(r.attach_ms.median(), 0, "ms")
          .num(r.attach_ms.p95(), 0, "ms")
          .num(r.mme_queue_p95_ms, 1, "ms")
          .num(rate, 0, "att/s")
          .integer(r.completed);
    }
  }
  t.print(std::cout);

  std::cout << "\nShape check: dLTE p95 attach latency is flat in N (each "
               "stub serves only its own site);\ncentralized p95 grows with "
               "N as the shared MME queue builds.\n";
  return harness.finish();
}
