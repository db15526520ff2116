// Cooperative-mode client handoff between dLTE peers (§4.3/§6).
#include "core/handover.h"

#include <gtest/gtest.h>

#include "ue/mobility.h"

namespace dlte::core {
namespace {

struct Town {
  sim::Simulator sim;
  net::Network net{sim};
  RadioEnvironment radio;
  spectrum::Registry registry{sim, spectrum::RegistryKind::kCentralizedSas};
  NodeId internet = net.add_node("internet");
  std::vector<std::unique_ptr<DlteAccessPoint>> aps;
  std::vector<std::unique_ptr<HandoverManager>> managers;

  DlteAccessPoint& add_ap(std::uint32_t id, double x,
                          lte::DlteMode mode = lte::DlteMode::kCooperative) {
    const NodeId node = net.add_node("ap" + std::to_string(id));
    net.add_link(node, internet,
                 net::LinkConfig{DataRate::mbps(50.0), Duration::millis(15)});
    ApConfig cfg;
    cfg.id = ApId{id};
    cfg.cell = CellId{id};
    cfg.position = Position{x, 0.0};
    cfg.mode = mode;
    cfg.seed = id;
    aps.push_back(
        std::make_unique<DlteAccessPoint>(sim, net, node, radio, cfg));
    managers.push_back(
        std::make_unique<HandoverManager>(sim, *aps.back()));
    return *aps.back();
  }

  UeDevice make_ue(std::uint64_t imsi, Position pos) {
    crypto::Key128 k{};
    for (std::size_t i = 0; i < 16; ++i) {
      k[i] = static_cast<std::uint8_t>(imsi + i * 3);
    }
    crypto::Block128 op{};
    op[0] = 0xcd;
    registry.publish_subscriber(
        epc::PublishedKeys{Imsi{imsi}, k, crypto::derive_opc(k, op)});
    // Keys published after bring-up: sync them to every live AP (a real
    // AP re-pulls the registry periodically).
    for (auto& ap : aps) ap->import_published_subscribers(registry);
    return UeDevice{
        ue::SimProfile{Imsi{imsi}, k, crypto::derive_opc(k, op), true, "o"},
        std::make_unique<ue::StaticMobility>(pos)};
  }

  void bring_up_all() {
    for (auto& ap : aps) ap->bring_up(registry);
    run_for(2.0);
    for (auto& ap : aps) ap->import_published_subscribers(registry);
  }

  void run_for(double s) { sim.run_until(sim.now() + Duration::seconds(s)); }
};

TEST(Handover, CooperativePeersHandOffQuickly) {
  Town town;
  auto& src = town.add_ap(1, 0.0);
  auto& dst = town.add_ap(2, 5'000.0);
  obs::MetricsRegistry metrics;
  src.core().set_metrics(&metrics, "src.");
  dst.core().set_metrics(&metrics, "dst.");
  town.bring_up_all();

  auto ue = town.make_ue(700001, Position{2'500.0, 0.0});
  bool attached = false;
  src.attach(ue, mac::UeTrafficConfig{.full_buffer = true},
             [&](AttachOutcome o) { attached = o.success; });
  town.run_for(2.0);
  ASSERT_TRUE(attached);

  HandoverOutcome out;
  town.managers[0]->initiate(ue, ApId{2},
                             mac::UeTrafficConfig{.full_buffer = true},
                             [&](HandoverOutcome o) { out = o; });
  town.run_for(2.0);

  ASSERT_TRUE(out.success) << out.failure_reason;
  // Much faster than the ~112 ms full re-attach.
  EXPECT_LT(out.interruption.to_millis(), 50.0);
  EXPECT_LT(out.total.to_millis(), 120.0);
  EXPECT_NE(out.new_ue_ip, 0u);

  // Core state moved: source released, target registered (no fresh AKA).
  EXPECT_FALSE(src.core().mme().is_registered(Imsi{700001}));
  EXPECT_TRUE(dst.core().mme().is_registered(Imsi{700001}));
  EXPECT_EQ(metrics.counter("dst.epc.handovers_in").value(), 1u);
  EXPECT_EQ(metrics.counter("src.epc.handovers_out").value(), 1u);
  EXPECT_EQ(src.core().gateway().session_count(), 0u);
  EXPECT_EQ(dst.core().gateway().session_count(), 1u);

  // Radio side: scenario completes by adopting at the target.
  dst.adopt_ue(ue, mac::UeTrafficConfig{.full_buffer = true});
  dst.cell_mac().run(Duration::seconds(0.5));
  double delivered = 0.0;
  for (UeId id : dst.cell_mac().ue_ids()) {
    delivered += dst.cell_mac().stats(id).delivered_bits;
  }
  EXPECT_GT(delivered, 0.0);
}

TEST(Handover, AddressChangesAcrossHandover) {
  // dLTE never hides the address change: the target assigns from its own
  // pool and the ack carries the new address.
  Town town;
  auto& src = town.add_ap(1, 0.0);
  town.add_ap(2, 5'000.0);
  town.bring_up_all();
  auto ue = town.make_ue(700002, Position{2'500.0, 0.0});
  std::uint32_t first_ip = 0;
  src.attach(ue, mac::UeTrafficConfig{}, [&](AttachOutcome o) {
    first_ip = o.ue_ip;
  });
  town.run_for(2.0);
  HandoverOutcome out;
  town.managers[0]->initiate(ue, ApId{2}, mac::UeTrafficConfig{},
                             [&](HandoverOutcome o) { out = o; });
  town.run_for(1.0);
  ASSERT_TRUE(out.success);
  EXPECT_NE(out.new_ue_ip, first_ip);
}

TEST(Handover, NonCooperativeTargetRefuses) {
  Town town;
  auto& src = town.add_ap(1, 0.0, lte::DlteMode::kCooperative);
  town.add_ap(2, 5'000.0, lte::DlteMode::kFairShare);  // Not opted in.
  town.bring_up_all();
  auto ue = town.make_ue(700003, Position{2'500.0, 0.0});
  bool attached = false;
  src.attach(ue, mac::UeTrafficConfig{}, [&](AttachOutcome o) {
    attached = o.success;
  });
  town.run_for(2.0);
  ASSERT_TRUE(attached);

  HandoverOutcome out;
  out.success = true;
  town.managers[0]->initiate(ue, ApId{2}, mac::UeTrafficConfig{},
                             [&](HandoverOutcome o) { out = o; });
  town.run_for(1.0);
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.failure_reason, "handover admission timed out");
  // UE still served by the source (fallback is the caller's business).
  EXPECT_TRUE(src.core().mme().is_registered(Imsi{700003}));
}

TEST(Handover, NonCooperativeSourceRefusesToInitiate) {
  Town town;
  auto& src = town.add_ap(1, 0.0, lte::DlteMode::kFairShare);
  town.add_ap(2, 5'000.0);
  town.bring_up_all();
  auto ue = town.make_ue(700004, Position{2'500.0, 0.0});
  src.attach(ue, mac::UeTrafficConfig{}, nullptr);
  town.run_for(2.0);
  HandoverOutcome out;
  out.success = true;
  town.managers[0]->initiate(ue, ApId{2}, mac::UeTrafficConfig{},
                             [&](HandoverOutcome o) { out = o; });
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.failure_reason, "source AP not in cooperative mode");
}

TEST(Handover, UnregisteredUeRejected) {
  Town town;
  town.add_ap(1, 0.0);
  town.add_ap(2, 5'000.0);
  town.bring_up_all();
  auto ue = town.make_ue(700005, Position{2'500.0, 0.0});
  HandoverOutcome out;
  out.success = true;
  town.managers[0]->initiate(ue, ApId{2}, mac::UeTrafficConfig{},
                             [&](HandoverOutcome o) { out = o; });
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.failure_reason, "UE not registered at source");
}

TEST(Handover, UnknownPeerRejected) {
  Town town;
  auto& src = town.add_ap(1, 0.0);
  town.bring_up_all();
  auto ue = town.make_ue(700006, Position{1'000.0, 0.0});
  src.attach(ue, mac::UeTrafficConfig{}, nullptr);
  town.run_for(2.0);
  HandoverOutcome out;
  out.success = true;
  town.managers[0]->initiate(ue, ApId{42}, mac::UeTrafficConfig{},
                             [&](HandoverOutcome o) { out = o; });
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.failure_reason, "target AP is not a known peer");
}

// End-to-end causal tracing: one attach plus one handover must come out
// as two span trees whose phases are parented correctly across
// components (eNodeB -> MME, source AP -> target AP).
TEST(Handover, SpansFormCausalTreeAcrossAttachAndHandover) {
  Town town;
  obs::SpanTracer tracer{[&town] { return town.sim.now(); }};
  town.net.set_tracer(&tracer);
  town.registry.set_tracer(&tracer);
  auto& src = town.add_ap(1, 0.0);
  town.add_ap(2, 5'000.0);
  for (std::size_t i = 0; i < town.aps.size(); ++i) {
    const std::string prefix = "ap" + std::to_string(i + 1) + "/";
    town.aps[i]->set_span_tracer(&tracer, prefix);
    town.managers[i]->set_tracer(&tracer, prefix);
  }
  town.bring_up_all();

  auto ue = town.make_ue(700007, Position{2'500.0, 0.0});
  bool attached = false;
  src.attach(ue, mac::UeTrafficConfig{},
             [&](AttachOutcome o) { attached = o.success; });
  town.run_for(2.0);
  ASSERT_TRUE(attached);

  HandoverOutcome out;
  town.managers[0]->initiate(ue, ApId{2}, mac::UeTrafficConfig{},
                             [&](HandoverOutcome o) { out = o; });
  town.run_for(2.0);
  ASSERT_TRUE(out.success) << out.failure_reason;

  auto find_span = [&](const std::string& name) -> const obs::Span* {
    for (const obs::Span& s : tracer.spans()) {
      if (s.name == name) return &s;
    }
    return nullptr;
  };
  const obs::Span* attach = find_span("attach");
  ASSERT_NE(attach, nullptr);
  EXPECT_EQ(attach->category, "ap1/ran");
  EXPECT_EQ(attach->parent, obs::kNoSpan);
  EXPECT_FALSE(attach->open);
  EXPECT_GT(attach->duration().to_millis(), 0.0);

  // The NAS phases the eNodeB never sees directly still parent under
  // the eNodeB's attach span, via the stash handoff to the MME.
  for (const char* phase : {"aka", "security_mode", "bearer_setup"}) {
    const obs::Span* s = find_span(phase);
    ASSERT_NE(s, nullptr) << phase;
    EXPECT_EQ(s->parent, attach->id) << phase;
    EXPECT_EQ(s->category, "ap1/epc") << phase;
    EXPECT_FALSE(s->open) << phase;
  }

  const obs::Span* handover = find_span("handover");
  ASSERT_NE(handover, nullptr);
  EXPECT_EQ(handover->category, "ap1/handover");
  EXPECT_FALSE(handover->open);
  // Admission runs on the *target* AP but is a child of the source's
  // handover span; the RRC reconfiguration stays on the source.
  const obs::Span* admit = find_span("handover_admit");
  ASSERT_NE(admit, nullptr);
  EXPECT_EQ(admit->parent, handover->id);
  EXPECT_EQ(admit->category, "ap2/handover");
  const obs::Span* rrc = find_span("rrc_reconfiguration");
  ASSERT_NE(rrc, nullptr);
  EXPECT_EQ(rrc->parent, handover->id);

  // Transport hops joined the tree: at least one net_delivery span is
  // parented under some procedure span.
  bool parented_delivery = false;
  for (const obs::Span& s : tracer.spans()) {
    if (s.name == "net_delivery" && s.parent != obs::kNoSpan) {
      parented_delivery = true;
      break;
    }
  }
  EXPECT_TRUE(parented_delivery);
  // Nothing leaked: every handoff stash was claimed, every procedure
  // span closed (X2 rounds may legitimately still be open mid-cycle).
  for (const obs::Span& s : tracer.spans()) {
    if (s.name == "attach" || s.name == "handover") {
      EXPECT_FALSE(s.open);
    }
  }
}

}  // namespace
}  // namespace dlte::core
