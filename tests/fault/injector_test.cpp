// FaultInjector against live components: partitions heal in the right
// order, AP crashes lose exactly the volatile state, X2 impairment bites.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/failover.h"
#include "fault/resilience.h"
#include "ue/mobility.h"

namespace dlte::fault {
namespace {

TimePoint at_s(double s) { return TimePoint{} + Duration::seconds(s); }

TEST(FaultInjector, OverlappingPartitionsHealWhenLastWindowCloses) {
  sim::Simulator sim;
  net::Network net{sim};
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, net::LinkConfig{DataRate::mbps(10.0),
                                     Duration::millis(5)});

  FaultInjector injector{sim};
  injector.set_network(&net);

  FaultPlan plan;
  FaultSpec w1;
  w1.kind = FaultKind::kLinkPartition;
  w1.at = at_s(10.0);
  w1.duration = Duration::seconds(30.0);  // [10, 40].
  w1.link_a = a;
  w1.link_b = b;
  FaultSpec w2 = w1;
  w2.at = at_s(20.0);
  w2.duration = Duration::seconds(10.0);  // [20, 30] inside [10, 40].
  plan.add(w1).add(w2);
  injector.arm(plan);

  int received = 0;
  net.set_protocol_handler(b, 0, [&](net::Packet&&) { ++received; });

  // t=35: inner window closed, outer still open — link must be DOWN.
  sim.run_until(at_s(35.0));
  net.send(net::Packet{a, b, 100, 0, {}});
  sim.run_until(at_s(38.0));
  EXPECT_EQ(received, 0);

  // t=45: last window closed — link healed.
  sim.run_until(at_s(45.0));
  net.send(net::Packet{a, b, 100, 0, {}});
  sim.run_until(at_s(48.0));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(injector.stats().injected, 2u);
  EXPECT_EQ(injector.stats().healed, 2u);
}

TEST(FaultInjector, LinkDegradeDropsAndDelays) {
  sim::Simulator sim;
  net::Network net{sim};
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b, net::LinkConfig{DataRate::mbps(100.0),
                                     Duration::millis(1)});
  obs::MetricsRegistry metrics;
  net.set_metrics(&metrics);

  FaultInjector injector{sim};
  injector.set_network(&net);
  FaultPlan plan;
  FaultSpec d;
  d.kind = FaultKind::kLinkDegrade;
  d.at = at_s(1.0);
  d.duration = Duration::seconds(10.0);
  d.link_a = a;
  d.link_b = b;
  d.loss = 0.5;
  d.extra_latency = Duration::millis(50);
  plan.add(d);
  injector.arm(plan);

  int received = 0;
  net.set_protocol_handler(b, 0, [&](net::Packet&&) { ++received; });
  sim.run_until(at_s(2.0));
  for (int i = 0; i < 200; ++i) net.send(net::Packet{a, b, 100, 0, {}});
  sim.run_until(at_s(5.0));
  // Half the packets die, statistically.
  EXPECT_GT(received, 50);
  EXPECT_LT(received, 150);
  EXPECT_GT(metrics.counter("net.impaired_drops").value(), 0u);

  // After heal the link is clean again.
  sim.run_until(at_s(12.0));
  const int before = received;
  for (int i = 0; i < 50; ++i) net.send(net::Packet{a, b, 100, 0, {}});
  sim.run_all();
  EXPECT_EQ(received - before, 50);
}

// A little dLTE town with a resilient UE population, mirroring the C8
// bench topology at test scale.
struct Town {
  sim::Simulator sim;
  net::Network net{sim};
  core::RadioEnvironment radio;
  spectrum::Registry registry{sim, spectrum::RegistryKind::kCentralizedSas};
  NodeId internet = net.add_node("internet");
  std::vector<std::unique_ptr<core::DlteAccessPoint>> aps;

  core::DlteAccessPoint& add_ap(std::uint32_t id, double x_m) {
    const NodeId node = net.add_node("ap" + std::to_string(id));
    net.add_link(node, internet,
                 net::LinkConfig{DataRate::mbps(50.0), Duration::millis(15)});
    core::ApConfig cfg;
    cfg.id = ApId{id};
    cfg.cell = CellId{id};
    cfg.position = Position{x_m, 0.0};
    cfg.seed = id;
    aps.push_back(std::make_unique<core::DlteAccessPoint>(sim, net, node,
                                                          radio, cfg));
    return *aps.back();
  }

  core::UeDevice make_ue(std::uint64_t imsi, Position pos) {
    crypto::Key128 k{};
    for (std::size_t i = 0; i < 16; ++i) {
      k[i] = static_cast<std::uint8_t>(imsi * 7 + i);
    }
    crypto::Block128 op{};
    op[0] = 0xcd;
    const auto opc = crypto::derive_opc(k, op);
    registry.publish_subscriber(epc::PublishedKeys{Imsi{imsi}, k, opc});
    ue::SimProfile profile{Imsi{imsi}, k, opc, true, "open"};
    return core::UeDevice{profile, std::make_unique<ue::StaticMobility>(pos)};
  }

  void run_for(double seconds) {
    sim.run_until(sim.now() + Duration::seconds(seconds));
  }
};

TEST(FaultInjector, ApCrashLosesVolatileStateAndRecovers) {
  Town town;
  auto& ap = town.add_ap(1, 0.0);
  ap.bring_up(town.registry);
  town.run_for(1.0);
  auto ue = town.make_ue(700001, Position{1'000.0, 0.0});
  ap.import_published_subscribers(town.registry);
  bool attached = false;
  ap.attach(ue, mac::UeTrafficConfig{}, [&](core::AttachOutcome o) {
    attached = o.success;
  });
  town.run_for(2.0);
  ASSERT_TRUE(attached);
  ASSERT_EQ(ap.core().gateway().session_count(), 1u);

  FaultInjector injector{town.sim};
  injector.register_ap(&ap);
  injector.set_registry(&town.registry);
  FaultPlan plan;
  FaultSpec crash;
  crash.kind = FaultKind::kApCrash;
  crash.at = town.sim.now() + Duration::seconds(1.0);
  crash.duration = Duration::seconds(5.0);
  crash.ap = ApId{1};
  plan.add(crash);
  injector.arm(plan);

  town.run_for(2.0);  // Inside the crash window.
  EXPECT_TRUE(ap.failed());
  // Volatile state gone: sessions, EMM contexts, MAC bearers, the cell.
  EXPECT_EQ(ap.core().gateway().session_count(), 0u);
  EXPECT_FALSE(ap.core().mme().is_registered(Imsi{700001}));
  EXPECT_EQ(ap.core().mme().attaches_in_progress(), 0u);
  EXPECT_FALSE(town.radio.cell_active(CellId{1}));
  EXPECT_EQ(ap.core().mme().stats().state_losses, 1u);
  // Persistent state survives: the HSS still knows the subscriber.
  EXPECT_TRUE(ap.core().hss().has_subscriber(Imsi{700001}));

  town.run_for(8.0);  // Past the heal.
  EXPECT_FALSE(ap.failed());
  EXPECT_TRUE(town.radio.cell_active(CellId{1}));

  // The UE re-attaches from scratch against the restarted core.
  bool reattached = false;
  ap.attach(ue, mac::UeTrafficConfig{}, [&](core::AttachOutcome o) {
    reattached = o.success;
  });
  town.run_for(3.0);
  EXPECT_TRUE(reattached);
  EXPECT_EQ(ap.core().gateway().session_count(), 1u);
}

TEST(FaultInjector, AttachFastFailsWhileApDown) {
  Town town;
  auto& ap = town.add_ap(1, 0.0);
  ap.bring_up(town.registry);
  town.run_for(1.0);
  auto ue = town.make_ue(700002, Position{1'000.0, 0.0});
  ap.import_published_subscribers(town.registry);
  ap.fail();
  bool done = false;
  bool success = true;
  ap.attach(ue, mac::UeTrafficConfig{}, [&](core::AttachOutcome o) {
    done = true;
    success = o.success;
  });
  town.run_for(1.0);  // Far less than the 15 s attach guard.
  EXPECT_TRUE(done);
  EXPECT_FALSE(success);
}

TEST(FaultInjector, AttachRetriesAgainstDeadApAreMarked) {
  Town town;
  auto& ap = town.add_ap(1, 0.0);
  obs::SpanTracer tracer{[&town] { return town.sim.now(); }};
  ap.set_span_tracer(&tracer);
  ap.bring_up(town.registry);
  town.run_for(1.0);
  auto ue = town.make_ue(700003, Position{1'000.0, 0.0});
  ap.import_published_subscribers(town.registry);
  ap.fail();
  ue::AttachRetryPolicy policy;
  policy.max_attempts = 3;
  int outcomes = 0;
  ap.attach_with_retry(ue, mac::UeTrafficConfig{}, policy,
                       [&](core::AttachOutcome o) {
                         ++outcomes;
                         EXPECT_FALSE(o.success);
                       });
  town.run_for(10.0);
  EXPECT_EQ(outcomes, 1);
  // One backoff marker per failed attempt that is retried.
  std::vector<std::string> attempts;
  for (const auto& span : tracer.spans()) {
    if (span.name != "attach_retry") continue;
    ASSERT_EQ(span.annotations.size(), 3u);
    EXPECT_EQ(span.annotations[0].value, "700003");
    attempts.push_back(span.annotations[1].value);
  }
  EXPECT_EQ(attempts, (std::vector<std::string>{"1", "2"}));
}

TEST(FaultInjector, FailoverAgentMovesUesToSurvivingAp) {
  Town town;
  auto& a = town.add_ap(1, 0.0);
  auto& b = town.add_ap(2, 4'000.0);
  a.bring_up(town.registry);
  b.bring_up(town.registry);
  town.run_for(2.0);

  std::vector<core::UeDevice> ues;
  ues.reserve(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    // Closer to A: they initially camp there.
    ues.push_back(town.make_ue(710000 + i, Position{500.0 + 100.0 * i, 0.0}));
  }
  a.import_published_subscribers(town.registry);
  b.import_published_subscribers(town.registry);

  ResilienceTracker tracker{town.sim};
  UeFailoverAgent agent{town.sim, town.radio, &tracker};
  agent.add_ap(&a);
  agent.add_ap(&b);
  for (auto& ue : ues) agent.manage(ue, mac::UeTrafficConfig{});
  agent.start();
  town.run_for(5.0);
  EXPECT_EQ(a.core().gateway().session_count(), 4u);

  // Permanent crash of A: everyone must end up on B.
  FaultInjector injector{town.sim};
  injector.register_ap(&a);
  injector.register_ap(&b);
  FaultPlan plan;
  FaultSpec crash;
  crash.kind = FaultKind::kApCrash;
  crash.at = town.sim.now() + Duration::seconds(1.0);
  crash.ap = ApId{1};  // duration zero: never heals.
  plan.add(crash);
  injector.arm(plan);

  town.run_for(30.0);
  EXPECT_EQ(b.core().gateway().session_count(), 4u);
  for (auto& ue : ues) EXPECT_TRUE(ue.attached());

  const auto report =
      tracker.report(town.sim.now());
  EXPECT_EQ(report.ues, 4u);
  EXPECT_EQ(report.service_losses, 4u);
  EXPECT_EQ(report.service_recoveries, 4u);
  EXPECT_DOUBLE_EQ(report.eventual_attach_rate, 1.0);
  EXPECT_GT(report.mttr_s, 0.0);
  EXPECT_GT(report.availability, 0.5);
  EXPECT_LT(report.availability, 1.0);
}

TEST(FaultInjector, X2ImpairmentDropsInjectedMessages) {
  Town town;
  auto& a = town.add_ap(1, 0.0);
  auto& b = town.add_ap(2, 6'000.0);
  a.bring_up(town.registry);
  b.bring_up(town.registry);
  town.run_for(2.0);

  FaultInjector injector{town.sim};
  injector.register_ap(&a);
  FaultPlan plan;
  FaultSpec imp;
  imp.kind = FaultKind::kX2Impairment;
  imp.at = town.sim.now() + Duration::seconds(1.0);
  imp.duration = Duration::seconds(10.0);
  imp.ap = ApId{1};
  imp.loss = 1.0;  // Drop everything.
  plan.add(imp);
  injector.arm(plan);

  town.run_for(8.0);
  EXPECT_GT(a.coordinator().stats().x2_drops_injected, 0u);

  // After heal, messages flow again.
  const auto dropped = a.coordinator().stats().x2_drops_injected;
  town.run_for(10.0);
  EXPECT_EQ(a.coordinator().stats().x2_drops_injected, dropped);
}

TEST(FaultInjector, SpansMarkFaultsAndAnnotateActiveProcedure) {
  sim::Simulator sim;
  net::Network net{sim};
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  net.add_link(a, b,
               net::LinkConfig{DataRate::mbps(10.0), Duration::millis(5)});

  obs::SpanTracer tracer{[&sim] { return sim.now(); }};
  FaultInjector injector{sim};
  injector.set_network(&net);
  injector.set_tracer(&tracer, "town/");

  FaultPlan plan;
  FaultSpec w;
  w.kind = FaultKind::kLinkPartition;
  w.at = at_s(1.0);
  w.duration = Duration::seconds(2.0);
  w.link_a = a;
  w.link_b = b;
  plan.add(w);
  injector.arm(plan);

  // A procedure is mid-flight across both the inject and the heal: the
  // fault must land as annotations on it, not just as markers.
  const obs::SpanId proc = tracer.begin("attach", "ran", obs::kNoSpan);
  tracer.activate(proc);
  sim.run_until(at_s(5.0));
  tracer.end(proc);

  const obs::Span* inject = nullptr;
  const obs::Span* heal = nullptr;
  for (const obs::Span& s : tracer.spans()) {
    if (s.name == "fault_inject") inject = &s;
    if (s.name == "fault_heal") heal = &s;
  }
  ASSERT_NE(inject, nullptr);
  ASSERT_NE(heal, nullptr);
  // Zero-duration markers on the injector's own track, stamped with the
  // spec so the timeline is self-describing.
  EXPECT_EQ(inject->category, "town/fault");
  EXPECT_EQ(inject->duration(), Duration{});
  EXPECT_EQ(inject->start, at_s(1.0));
  EXPECT_EQ(heal->start, at_s(3.0));
  ASSERT_EQ(inject->annotations.size(), 1u);
  EXPECT_EQ(inject->annotations[0].key, "spec");
  EXPECT_NE(inject->annotations[0].value.find("link-partition"),
            std::string::npos);

  const obs::Span* p = tracer.find(proc);
  ASSERT_EQ(p->annotations.size(), 2u);
  EXPECT_EQ(p->annotations[0].key, "fault");
  EXPECT_NE(p->annotations[0].value.find("inject"), std::string::npos);
  EXPECT_NE(p->annotations[1].value.find("heal"), std::string::npos);
}

TEST(ResilienceReport, ByteStableToString) {
  sim::Simulator sim;
  ResilienceTracker t{sim};
  t.track(Imsi{1});
  t.on_attach_attempt();
  t.on_attached(Imsi{1});
  sim.schedule(Duration::seconds(10.0), [&] { t.on_service_lost(Imsi{1}); });
  sim.schedule(Duration::seconds(14.0), [&] { t.on_attached(Imsi{1}); });
  sim.run_all();
  const auto r = t.report(TimePoint{} + Duration::seconds(20.0));
  EXPECT_EQ(r.to_string(), r.to_string());
  EXPECT_NE(r.to_string().find("mttr_s=4.000"), std::string::npos);
  EXPECT_NE(r.to_string().find("availability=0.800"), std::string::npos);
  EXPECT_NE(r.to_string().find("eventual_attach_rate=1.000"),
            std::string::npos);
}

}  // namespace
}  // namespace dlte::fault
