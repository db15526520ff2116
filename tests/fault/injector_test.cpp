// FaultInjector against live components: AP crashes lose exactly the
// volatile state, failover moves UEs, every fault lands on the trace.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/handover.h"
#include "fault/failover.h"
#include "fault/resilience.h"
#include "obs/prof.h"
#include "ue/mobility.h"
#include "ue/nas_client.h"

namespace dlte::fault {
namespace {

TimePoint at_s(double s) { return TimePoint{} + Duration::seconds(s); }

// The town's engine, with an optional event profiler attached before any
// component interns its labels.
struct Engine {
  explicit Engine(obs::EventProfiler* profiler) { sim.set_profiler(profiler); }
  sim::Simulator sim;
};

// A little dLTE town with a resilient UE population, mirroring the C8
// bench topology at test scale.
struct Town : Engine {
  explicit Town(obs::EventProfiler* profiler = nullptr) : Engine(profiler) {}

  net::Network net{sim};
  core::RadioEnvironment radio;
  spectrum::Registry registry{sim, spectrum::RegistryKind::kCentralizedSas};
  NodeId internet = net.add_node("internet");
  std::vector<std::unique_ptr<core::DlteAccessPoint>> aps;

  core::DlteAccessPoint& add_ap(
      std::uint32_t id, double x_m,
      lte::DlteMode mode = lte::DlteMode::kFairShare) {
    const NodeId node = net.add_node("ap" + std::to_string(id));
    net.add_link(node, internet,
                 net::LinkConfig{DataRate::mbps(50.0), Duration::millis(15)});
    core::ApConfig cfg;
    cfg.id = ApId{id};
    cfg.cell = CellId{id};
    cfg.position = Position{x_m, 0.0};
    cfg.mode = mode;
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
  obs::MetricsRegistry metrics;
  ap.core().set_metrics(&metrics);
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
  EXPECT_EQ(ap.core().mme().context_count(), 0u);
  EXPECT_FALSE(town.radio.cell_active(CellId{1}));
  EXPECT_EQ(metrics.counter("epc.state_losses").value(), 1u);
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
  int outcomes = 0;
  ap.attach_with_retry(ue, mac::UeTrafficConfig{},
                       [&](core::AttachOutcome o) {
                         ++outcomes;
                         EXPECT_FALSE(o.success);
                       });
  // Eight attempts with seven waits of at most 0.6 + 1.2 + 2.4 + 4.8 +
  // 3 × 9.6 s in between: the budget is spent well inside a minute.
  town.run_for(60.0);
  EXPECT_EQ(outcomes, 1);
  // One backoff marker per failed attempt that is retried.
  std::vector<std::string> attempts;
  for (const auto& span : tracer.spans()) {
    if (span.name != "attach_retry") continue;
    ASSERT_EQ(span.annotations.size(), 3u);
    EXPECT_EQ(span.annotations[0].value, "700003");
    attempts.push_back(span.annotations[1].value);
  }
  std::vector<std::string> expected;
  for (int a = 1; a < ue::kMaxAttachAttempts; ++a) {
    expected.push_back(std::to_string(a));
  }
  EXPECT_EQ(attempts, expected);
}

TEST(FaultInjector, ApHandoverAndFailoverEventsAreLabeled) {
  // Every event an AP, its handover manager, the failover watchdog and
  // the X2 coordinator schedule lands under a label: lease heartbeats,
  // coordinator rounds, a handover (admission timer and RRC
  // reconfiguration), and attach retries against a crashed AP.
  obs::EventProfiler profiler;
  Town town{&profiler};
  town.registry.set_grant_lifetime(Duration::seconds(3.0));
  auto& a = town.add_ap(1, 0.0, lte::DlteMode::kCooperative);
  auto& b = town.add_ap(2, 5'000.0, lte::DlteMode::kCooperative);
  core::HandoverManager handover_a{town.sim, a};
  core::HandoverManager handover_b{town.sim, b};
  a.bring_up(town.registry);
  b.bring_up(town.registry);
  town.run_for(2.0);

  auto moving = town.make_ue(720001, Position{2'500.0, 0.0});
  auto watched = town.make_ue(720002, Position{1'000.0, 0.0});
  auto retrying = town.make_ue(720003, Position{500.0, 0.0});
  a.import_published_subscribers(town.registry);
  b.import_published_subscribers(town.registry);

  bool attached = false;
  a.attach(moving, mac::UeTrafficConfig{},
           [&](core::AttachOutcome o) { attached = o.success; });
  UeFailoverAgent agent{town.sim, town.radio};
  agent.add_ap(&a);
  agent.add_ap(&b);
  agent.manage(watched, mac::UeTrafficConfig{});
  agent.start();
  town.run_for(2.0);
  ASSERT_TRUE(attached);

  bool handed_over = false;
  handover_a.initiate(moving, ApId{2}, mac::UeTrafficConfig{},
                      [&](core::HandoverOutcome o) {
                        handed_over = o.success;
                      });
  town.run_for(2.0);
  EXPECT_TRUE(handed_over);

  a.fail();
  int outcomes = 0;
  a.attach_with_retry(retrying, mac::UeTrafficConfig{},
                      [&](core::AttachOutcome) { ++outcomes; });
  town.run_for(5.0);
  EXPECT_EQ(outcomes, 0);  // Still backing off.

  for (const char* label :
       {"ap.lease_heartbeat", "ap.attach_refused", "ap.attach_retry",
        "handover.admission_timeout", "handover.rrc_reconfiguration",
        "fault.failover_watchdog", "spectrum.x2_round"}) {
    EXPECT_GT(profiler.stats(town.sim.label(label)).executed, 0u) << label;
  }
  EXPECT_EQ(profiler.stats(obs::kUnlabeledEvent).schedules, 0u);
  EXPECT_EQ(profiler.stats(obs::kUnlabeledEvent).executed, 0u);
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

TEST(FaultInjector, SpansMarkFaultsAndAnnotateActiveProcedure) {
  sim::Simulator sim;
  spectrum::Registry registry{sim, spectrum::RegistryKind::kCentralizedSas};

  obs::SpanTracer tracer{[&sim] { return sim.now(); }};
  FaultInjector injector{sim};
  injector.set_registry(&registry);
  injector.set_tracer(&tracer, "town/");

  FaultPlan plan;
  FaultSpec w;
  w.kind = FaultKind::kRegistryOutage;
  w.at = at_s(1.0);
  w.duration = Duration::seconds(2.0);
  plan.add(w);
  injector.arm(plan);

  // A procedure is mid-flight across both the inject and the heal: the
  // fault must land as annotations on it, not just as markers.
  const obs::SpanId proc = tracer.begin("attach", "ran", obs::kNoSpan);
  tracer.activate(proc);
  sim.run_until(at_s(5.0));
  tracer.end(proc);
  EXPECT_EQ(injector.stats().injected, 1u);
  EXPECT_EQ(injector.stats().healed, 1u);

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
  EXPECT_EQ(inject->annotations[0].value,
            "registry-outage mode=offline zone=all");

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
