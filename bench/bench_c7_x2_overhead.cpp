// Experiment C7 — §4.3 [28]: "The X2 interface is relatively low
// bandwidth, but when backhaul constrained the level of coordination can
// be minimized."
//
// Live PeerCoordinators exchange extended-X2 over a shared Internet hop.
// We sweep contention-domain size and reporting period and report per-AP
// signaling load, then show the convergence cost of slowing the reports
// (the backhaul-constrained trade the paper describes).
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_harness.h"
#include "common/table.h"
#include "spectrum/coordinator.h"

namespace {
using namespace dlte;

struct Domain {
  sim::Simulator sim;
  net::Network net{sim};
  NodeId internet = net.add_node("internet");
  std::vector<std::unique_ptr<spectrum::PeerCoordinator>> coords;
  // One registry per AP: its coordinator's unprefixed `x2.*` counters.
  std::vector<std::unique_ptr<obs::MetricsRegistry>> x2_metrics;

  Domain(int n, Duration period, obs::MetricsRegistry* reg = nullptr,
         const std::string& prefix = "") {
    sim.set_metrics(reg, prefix);
    net.set_metrics(reg, prefix);
    std::vector<NodeId> nodes;
    for (int i = 0; i < n; ++i) {
      const NodeId node = net.add_node("ap" + std::to_string(i));
      net.add_link(node, internet,
                   net::LinkConfig{DataRate::mbps(10.0),
                                   Duration::millis(15)});
      nodes.push_back(node);
      coords.push_back(std::make_unique<spectrum::PeerCoordinator>(
          sim, net, node,
          spectrum::CoordinatorConfig{
              ApId{static_cast<std::uint32_t>(i + 1)},
              lte::DlteMode::kFairShare, period}));
    }
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i != j) {
          coords[static_cast<std::size_t>(i)]->add_peer(
              ApId{static_cast<std::uint32_t>(j + 1)},
              nodes[static_cast<std::size_t>(j)]);
        }
      }
    }
    for (auto& c : coords) {
      x2_metrics.push_back(std::make_unique<obs::MetricsRegistry>());
      c->set_metrics(x2_metrics.back().get());
      c->set_offered_load(1.0);
      c->start();
    }
  }

  void run_for(double s) { sim.run_until(sim.now() + Duration::seconds(s)); }

  [[nodiscard]] double x2_counter(std::size_t ap,
                                  const std::string& name) const {
    return static_cast<double>(x2_metrics[ap]->counter(name).value());
  }

  // All APs in the domain aggregate into one prefixed counter set.
  void add_x2_counters_to(obs::MetricsRegistry& reg,
                          const std::string& prefix) const {
    for (const auto& ap : x2_metrics) {
      for (const auto& [name, counter] : ap->counters()) {
        reg.counter(prefix + name).inc(counter.value());
      }
    }
  }
};

}  // namespace

int main() {
  print_bench_header(std::cout, "C7", "paper §4.3 / La Roche & Widjaja [28]",
                     "X2 coordination load is kbit/s-scale and tunable "
                     "against backhaul constraints");
  dlte::bench::Harness harness{"c7_x2_overhead"};

  TextTable t{{"domain size", "report period", "per-AP X2 load",
               "per-AP msg rate", "domain total"}};
  const double window_s = 30.0;
  for (int n : {2, 4, 8, 16}) {
    for (double period_s : {0.2, 1.0, 5.0}) {
      const std::string prefix =
          "c7.n" + std::to_string(n) + ".p" +
          std::to_string(static_cast<int>(period_s * 1000.0)) + "ms.";
      Domain d{n, Duration::seconds(period_s), &harness.metrics(), prefix};
      d.run_for(window_s);
      harness.add_sim_seconds(window_s);
      d.add_x2_counters_to(harness.metrics(), prefix);
      double total_kbps = 0.0;
      for (std::size_t ap = 0; ap < d.coords.size(); ++ap) {
        total_kbps +=
            d.x2_counter(ap, "x2.bytes_sent") * 8.0 / window_s / 1000.0;
      }
      const double leader_bytes = d.x2_counter(0, "x2.bytes_sent");
      const double leader_messages = d.x2_counter(0, "x2.messages_sent");
      harness.gauge(prefix + "perap_kbps",
                    leader_bytes * 8.0 / window_s / 1000.0);
      harness.gauge(prefix + "perap_msg_rate", leader_messages / window_s);
      harness.gauge(prefix + "domain_kbps", total_kbps);
      t.row()
          .integer(n)
          .num(period_s, 1, "s")
          .num(leader_bytes * 8.0 / window_s / 1000.0, 2, "kbit/s")
          .num(leader_messages / window_s, 1, "msg/s")
          .num(total_kbps, 1, "kbit/s");
    }
  }
  t.print(std::cout);

  // Convergence cost of minimizing coordination: after a demand change,
  // how long until shares settle?
  std::cout << "\nConvergence after a demand step (AP1 load 0.2 → 1.0, "
               "4-AP domain):\n";
  TextTable c{{"report period", "reconvergence time"}};
  for (double period_s : {0.2, 1.0, 5.0}) {
    Domain d{4, Duration::seconds(period_s)};
    for (auto& coord : d.coords) coord->set_offered_load(1.0);
    d.coords[0]->set_offered_load(0.2);
    d.run_for(4.0 * period_s + 1.0);  // Settle initial shares.
    d.coords[0]->set_offered_load(1.0);
    const TimePoint changed = d.sim.now();
    // Poll until AP1's share reaches the new fair value (0.25).
    double converged_s = -1.0;
    for (int step = 0; step < 4000; ++step) {
      d.run_for(0.05);
      if (std::abs(d.coords[0]->current_share() - 0.25) < 1e-6) {
        converged_s = (d.sim.now() - changed).to_seconds();
        break;
      }
    }
    harness.add_sim_seconds(d.sim.now().to_seconds());
    harness.gauge("c7.conv.p" +
                      std::to_string(static_cast<int>(period_s * 1000.0)) +
                      "ms.reconvergence_s",
                  converged_s);
    c.row().num(period_s, 1, "s").num(converged_s, 2, "s");
  }
  c.print(std::cout);

  std::cout << "\nShape check: load scales with domain size and report "
               "frequency but stays far below\nany broadband backhaul; "
               "slower reporting trades convergence time, not correctness.\n";
  return harness.finish(0);
}
