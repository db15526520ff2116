// Quickstart: bring up one dLTE access point and serve a phone.
//
// The minimal end-to-end path through the library:
//   1. create the simulated world (event loop, IP substrate, radio env);
//   2. stand up an access point (eNodeB + local core stub + coordinator);
//   3. let it acquire a spectrum grant from the open registry;
//   4. publish a subscriber's keys (the §4.2 open-identity flow);
//   5. attach the phone — full RRC + EPS-AKA against the on-box core;
//   6. pass data and read the counters.
#include <iostream>
#include <memory>
#include <string>

#include "core/access_point.h"
#include "obs/text_file.h"
#include "obs/trace_export.h"
#include "ue/mobility.h"

using namespace dlte;

int main(int argc, char** argv) {
  // Optional: `--trace-out=<file>` exports a causal span trace of the
  // whole bring-up + attach as Chrome trace-event JSON (open it in
  // ui.perfetto.dev or chrome://tracing).
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::string("--trace-out=").size());
    }
  }

  // 1. World.
  sim::Simulator sim;
  std::unique_ptr<obs::SpanTracer> tracer;
  if (!trace_out.empty()) {
    tracer = std::make_unique<obs::SpanTracer>([&sim] { return sim.now(); });
  }
  net::Network net{sim};
  net.set_tracer(tracer.get());
  core::RadioEnvironment radio;
  spectrum::Registry registry{sim, spectrum::RegistryKind::kCentralizedSas};
  registry.set_tracer(tracer.get());

  const NodeId internet = net.add_node("internet");
  const NodeId ap_node = net.add_node("barn-roof-ap");
  net.add_link(ap_node, internet,
               net::LinkConfig{DataRate::mbps(50.0), Duration::millis(15)});

  // 2. The access point: one box, whole network.
  core::ApConfig cfg;
  cfg.id = ApId{1};
  cfg.cell = CellId{1};
  cfg.position = Position{0.0, 0.0};
  cfg.operator_contact = "farmer@valley.example";
  core::DlteAccessPoint ap{sim, net, ap_node, radio, cfg};
  ap.set_span_tracer(tracer.get());

  // 3. License + peer discovery through the registry.
  ap.bring_up(registry, [&](bool ok) {
    std::cout << "[" << sim.now().to_seconds() << "s] grant "
              << (ok ? "acquired" : "REFUSED") << ", band 5 @ "
              << ap.grant().center_frequency.to_mhz() << " MHz\n";
  });
  sim.run_until(sim.now() + Duration::seconds(1.0));

  // 4. A phone with an open identity: keys published in the registry so
  //    any dLTE AP can authenticate it.
  crypto::Key128 k{};
  k[0] = 0x46;
  crypto::Block128 op{};
  op[0] = 0xcd;
  const Imsi imsi{510995550001234ULL};
  const crypto::Block128 opc = crypto::derive_opc(k, op);
  registry.publish_subscriber(epc::PublishedKeys{imsi, k, opc});
  std::cout << "published subscriber keys for IMSI " << imsi.value()
            << " (open identity)\n";
  const std::size_t imported = ap.import_published_subscribers(registry);
  std::cout << "AP imported " << imported
            << " published identities into its local HSS\n";

  core::UeDevice phone{
      ue::SimProfile{imsi, k, opc, true, "open-dlte"},
      std::make_unique<ue::StaticMobility>(Position{1800.0, 400.0})};

  // 5. Attach: the standard LTE dialogue, served entirely on the AP.
  ap.attach(phone, mac::UeTrafficConfig{.full_buffer = true},
            [&](core::AttachOutcome o) {
              std::cout << "[" << sim.now().to_seconds() << "s] attach "
                        << (o.success ? "OK" : "FAILED") << " in "
                        << o.elapsed.to_millis() << " ms, UE IP "
                        << net::Ipv4{o.ue_ip}.to_string() << "\n";
            });
  sim.run_until(sim.now() + Duration::seconds(1.0));

  // 6. Data: run the cell for two seconds of full-buffer downlink.
  ap.cell_mac().run(Duration::seconds(2.0));
  for (UeId id : ap.cell_mac().ue_ids()) {
    const auto& st = ap.cell_mac().stats(id);
    std::cout << "downlink goodput at 1.8 km: "
              << st.goodput(ap.cell_mac().elapsed()).to_mbps()
              << " Mb/s (HARQ retx: " << st.harq_retransmissions << ")\n";
  }
  std::cout << "sessions on the local core: "
            << ap.core().gateway().session_count()
            << ", bills subscribers: "
            << (ap.core().bills_subscribers() ? "yes" : "no")
            << " (the stub does not bill — §4.1)\n";

  if (tracer != nullptr) {
    if (obs::write_text_file(
            trace_out, obs::ChromeTraceExporter::to_json(*tracer) + "\n")) {
      std::cout << "span trace (" << tracer->spans().size()
                << " spans) written to " << trace_out
                << " — load it in ui.perfetto.dev\n";
    } else {
      std::cerr << "failed to write trace to " << trace_out << "\n";
      return 1;
    }
  }
  return 0;
}
