// End-to-end attach: NasClient (UE) ↔ Mme (core) over the S1AP/NAS codecs.
// This is the §4.1 compatibility proof in miniature: an unmodified client
// state machine completes EPS-AKA attach against the same core whether it
// is deployed centralized or as a dLTE local stub.
#include <gtest/gtest.h>

#include "epc/epc.h"
#include "ue/nas_client.h"

namespace dlte::epc {
namespace {

crypto::Key128 key_for(std::uint64_t imsi) {
  crypto::Key128 k{};
  for (std::size_t i = 0; i < 16; ++i) {
    k[i] = static_cast<std::uint8_t>(imsi + i * 13);
  }
  return k;
}

const crypto::Block128 kOp = [] {
  crypto::Block128 op{};
  op[0] = 0xcd;
  op[15] = 0x18;
  return op;
}();

// Minimal eNodeB shim: relays NAS between one NasClient and the MME,
// and answers context setup. This is what core/ does at scale; the shim
// keeps the protocol test focused.
struct EnbShim {
  sim::Simulator& sim;
  Mme& mme;
  CellId cell;
  EnbUeId enb_ue_id{1};
  ue::NasClient* client{nullptr};
  Teid enb_teid{777};
  int context_setups{0};

  void start(ue::NasClient& c) {
    client = &c;
    lte::InitialUeMessage init;
    init.enb_ue_id = enb_ue_id;
    init.cell = cell;
    init.nas_pdu = lte::encode_nas(c.start_attach());
    mme.handle_s1ap(cell, lte::S1apMessage{init});
  }

  void on_s1ap(const lte::S1apMessage& msg) {
    if (const auto* down = std::get_if<lte::DownlinkNasTransport>(&msg)) {
      auto nas = lte::decode_nas(down->nas_pdu);
      ASSERT_TRUE(nas.ok());
      auto reply = client->handle(*nas);
      if (reply) {
        lte::UplinkNasTransport up;
        up.enb_ue_id = down->enb_ue_id;
        up.mme_ue_id = down->mme_ue_id;
        up.nas_pdu = lte::encode_nas(*reply);
        mme.handle_s1ap(cell, lte::S1apMessage{up});
      }
      return;
    }
    if (const auto* ctx =
            std::get_if<lte::InitialContextSetupRequest>(&msg)) {
      ++context_setups;
      lte::InitialContextSetupResponse resp;
      resp.enb_ue_id = ctx->enb_ue_id;
      resp.mme_ue_id = ctx->mme_ue_id;
      resp.enb_downlink_teid = enb_teid;
      mme.handle_s1ap(cell, lte::S1apMessage{resp});
    }
  }
};

struct Fixture {
  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  EpcCore core;
  EnbShim enb;

  explicit Fixture(CoreDeployment deployment = CoreDeployment::kLocalStub)
      : core(sim,
             EpcConfig{.deployment = deployment, .network_id = "test-net"},
             sim::RngStream{7}),
        enb{sim, core.mme(), CellId{1}} {
    core.set_metrics(&metrics);
    core.mme().set_sender(
        [this](CellId, lte::S1apMessage m) { enb.on_s1ap(m); });
  }

  ue::NasClient make_client(std::uint64_t imsi_value) {
    core.hss().provision(Imsi{imsi_value}, key_for(imsi_value), kOp);
    return ue::NasClient{sim_card(imsi_value), "test-net"};
  }

  // The subscriber's SIM, without touching the HSS.
  static ue::Usim sim_card(std::uint64_t imsi_value) {
    return ue::Usim{ue::SimProfile{
        Imsi{imsi_value}, key_for(imsi_value),
        crypto::derive_opc(key_for(imsi_value), kOp), true, "open"}};
  }
};

TEST(AttachFlow, CompletesAgainstLocalStub) {
  Fixture f;
  auto client = f.make_client(1001);
  f.enb.start(client);
  f.sim.run_all();

  EXPECT_TRUE(client.registered());
  EXPECT_TRUE(f.core.mme().is_registered(Imsi{1001}));
  EXPECT_EQ(f.metrics.counter("epc.attaches_completed").value(), 1u);
  EXPECT_EQ(f.metrics.counter("epc.auth_failures").value(), 0u);
  EXPECT_NE(client.ue_ip(), 0u);
  EXPECT_NE(client.tmsi().value(), 0u);
  EXPECT_EQ(f.enb.context_setups, 1);
}

TEST(AttachFlow, CompletesAgainstCentralizedCore) {
  Fixture f{CoreDeployment::kCentralized};
  auto client = f.make_client(1002);
  f.enb.start(client);
  f.sim.run_all();
  EXPECT_TRUE(client.registered());
  EXPECT_TRUE(f.core.mme().is_registered(Imsi{1002}));
}

TEST(AttachFlow, GatewaySessionEstablished) {
  Fixture f;
  auto client = f.make_client(1001);
  f.enb.start(client);
  f.sim.run_all();

  const auto* bearer = f.core.gateway().find_by_imsi(Imsi{1001});
  ASSERT_NE(bearer, nullptr);
  EXPECT_EQ(bearer->ue_ip.addr, client.ue_ip());
  EXPECT_EQ(bearer->downlink_teid, Teid{777});  // From the eNB shim.
  EXPECT_EQ(f.core.gateway().session_count(), 1u);
}

TEST(AttachFlow, UeAndCoreAgreeOnSessionKeys) {
  // Mutual AKA success means both ends independently derived KASME; the
  // UE's copy must be usable (non-zero) — the core's is internal.
  Fixture f;
  auto client = f.make_client(1001);
  f.enb.start(client);
  f.sim.run_all();
  ASSERT_TRUE(client.registered());
  bool all_zero = true;
  for (auto b : client.kasme()) all_zero &= (b == 0);
  EXPECT_FALSE(all_zero);
}

TEST(AttachFlow, UnknownImsiRejected) {
  Fixture f;
  // Client whose IMSI is NOT provisioned in the HSS.
  ue::SimProfile profile{Imsi{4040}, key_for(4040),
                         crypto::derive_opc(key_for(4040), kOp), true, "x"};
  ue::NasClient client{ue::Usim{profile}, "test-net"};
  f.enb.start(client);
  f.sim.run_all();
  EXPECT_FALSE(client.registered());
  EXPECT_EQ(client.state(), ue::NasClientState::kRejected);
  EXPECT_EQ(f.metrics.counter("epc.auth_failures").value(), 1u);
}

TEST(AttachFlow, WrongKeyFailsMutualAuth) {
  Fixture f;
  const Imsi imsi{1003};
  f.core.hss().provision(imsi, key_for(1003), kOp);
  // UE holds a different K: it will detect the mismatch in AUTN (from its
  // perspective the network fails authentication).
  ue::SimProfile profile{imsi, key_for(9999),
                         crypto::derive_opc(key_for(9999), kOp), true, "x"};
  ue::NasClient client{ue::Usim{profile}, "test-net"};
  f.enb.start(client);
  f.sim.run_all();
  EXPECT_FALSE(client.registered());
  EXPECT_EQ(f.metrics.counter("epc.attaches_completed").value(), 0u);
}

TEST(AttachFlow, ServingNetworkMismatchStillAttaches) {
  // KASME binding uses the SN id, but AKA itself does not fail on label
  // mismatch — both sides just derive different KASMEs. (Integrity
  // protection that would catch this is out of scope.) The attach
  // completes; the binding property is covered in key_derivation tests.
  Fixture f;
  const Imsi imsi{1004};
  f.core.hss().provision(imsi, key_for(1004), kOp);
  ue::SimProfile profile{imsi, key_for(1004),
                         crypto::derive_opc(key_for(1004), kOp), true, "x"};
  ue::NasClient client{ue::Usim{profile}, "other-net"};
  f.enb.start(client);
  f.sim.run_all();
  EXPECT_TRUE(client.registered());
}

TEST(AttachFlow, MultipleUesAttachConcurrently) {
  Fixture f;
  std::vector<ue::NasClient> clients;
  clients.reserve(10);
  std::vector<EnbShim> shims;
  shims.reserve(10);
  for (std::uint64_t i = 0; i < 10; ++i) {
    clients.push_back(f.make_client(2000 + i));
  }
  for (std::uint32_t i = 0; i < 10; ++i) {
    shims.push_back(EnbShim{f.sim, f.core.mme(), CellId{1},
                            EnbUeId{100 + i}});
  }
  f.core.mme().set_sender([&](CellId, lte::S1apMessage m) {
    // Route by enb_ue_id to the right shim.
    std::uint32_t id = 0;
    if (const auto* d = std::get_if<lte::DownlinkNasTransport>(&m)) {
      id = d->enb_ue_id.value();
    } else if (const auto* c =
                   std::get_if<lte::InitialContextSetupRequest>(&m)) {
      id = c->enb_ue_id.value();
    }
    shims.at(id - 100).on_s1ap(m);
  });
  for (std::size_t i = 0; i < 10; ++i) shims[i].start(clients[i]);
  f.sim.run_all();
  EXPECT_EQ(f.metrics.counter("epc.attaches_completed").value(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(f.core.mme().is_registered(Imsi{2000 + i}));
  }
  // Distinct IPs allocated.
  std::set<std::uint32_t> ips;
  for (const auto& c : clients) ips.insert(c.ue_ip());
  EXPECT_EQ(ips.size(), 10u);
}

TEST(AttachFlow, MmeProcessingDelayQueues) {
  // With 0.5 ms per message and an 8-message attach dialogue, a burst of
  // N UEs must show growing queueing delay — the C4 saturation mechanism.
  Fixture f;
  std::vector<ue::NasClient> clients;
  std::vector<EnbShim> shims;
  const int n = 20;
  for (std::uint64_t i = 0; i < n; ++i) {
    clients.push_back(f.make_client(3000 + i));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    shims.push_back(EnbShim{f.sim, f.core.mme(), CellId{1},
                            EnbUeId{100 + i}});
  }
  f.core.mme().set_sender([&](CellId, lte::S1apMessage m) {
    std::uint32_t id = 0;
    if (const auto* d = std::get_if<lte::DownlinkNasTransport>(&m)) {
      id = d->enb_ue_id.value();
    } else if (const auto* c =
                   std::get_if<lte::InitialContextSetupRequest>(&m)) {
      id = c->enb_ue_id.value();
    }
    shims.at(id - 100).on_s1ap(m);
  });
  for (std::size_t i = 0; i < n; ++i) shims[i].start(clients[i]);
  f.sim.run_all();
  EXPECT_EQ(f.metrics.counter("epc.attaches_completed").value(),
            static_cast<std::uint64_t>(n));
  EXPECT_GT(f.metrics.histogram("epc.queueing_delay_ms").quantile(0.95), 0.5);
}

TEST(AttachFlow, CoreCrashWipesVolatileStateButNotHss) {
  Fixture f;
  auto client = f.make_client(1001);
  f.enb.start(client);
  f.sim.run_all();
  ASSERT_TRUE(f.core.mme().is_registered(Imsi{1001}));
  ASSERT_EQ(f.core.gateway().session_count(), 1u);

  f.core.crash();
  EXPECT_FALSE(f.core.mme().is_registered(Imsi{1001}));
  EXPECT_EQ(f.core.gateway().session_count(), 0u);
  EXPECT_EQ(f.metrics.counter("epc.state_losses").value(), 1u);
  EXPECT_TRUE(f.core.hss().has_subscriber(Imsi{1001}));

  // The subscriber's SIM re-attaches from scratch against the restarted
  // core.
  ue::NasClient again{Fixture::sim_card(1001), "test-net"};
  f.enb.start(again);
  f.sim.run_all();
  EXPECT_TRUE(again.registered());
  EXPECT_TRUE(f.core.mme().is_registered(Imsi{1001}));
}

TEST(AttachFlow, RetxTimerFromBeforeACrashDoesNotFireOnTheNextDialogue) {
  // Nobody answers the AuthenticationRequests, so each dialogue's
  // retransmission timer stays armed. The first dialogue's timer (due at
  // ~2.0005 s) outlives the crash at 1 s; the second dialogue, started at
  // 1.5 s, must not be re-sent before its own timer (~3.5005 s).
  sim::Simulator sim;
  EpcCore core{sim,
               EpcConfig{.deployment = CoreDeployment::kLocalStub,
                         .network_id = "test-net"},
               sim::RngStream{7}};
  obs::MetricsRegistry metrics;
  core.set_metrics(&metrics);
  const Imsi imsi{1001};
  core.hss().provision(imsi, key_for(1001), kOp);
  std::vector<double> auth_requests_s;
  core.mme().set_sender([&](CellId, lte::S1apMessage m) {
    const auto* down = std::get_if<lte::DownlinkNasTransport>(&m);
    ASSERT_NE(down, nullptr);
    auto nas = lte::decode_nas(down->nas_pdu);
    ASSERT_TRUE(nas.ok());
    if (std::holds_alternative<lte::AuthenticationRequest>(*nas)) {
      auth_requests_s.push_back(sim.now().to_seconds());
    }
  });
  const auto attach = [&core, imsi] {
    lte::InitialUeMessage init;
    init.enb_ue_id = EnbUeId{1};
    init.cell = CellId{1};
    init.nas_pdu = lte::encode_nas(lte::AttachRequest{imsi, Tmsi{0}});
    core.mme().handle_s1ap(CellId{1}, lte::S1apMessage{std::move(init)});
  };
  attach();
  sim.schedule(Duration::seconds(1.0), [&core] { core.crash(); });
  sim.schedule(Duration::seconds(1.5), attach);

  sim.run_until(TimePoint{} + Duration::seconds(3.0));
  EXPECT_EQ(metrics.counter("epc.nas_retransmissions").value(), 0u);
  ASSERT_EQ(auth_requests_s.size(), 2u);
  EXPECT_LT(auth_requests_s[0], 0.01);
  EXPECT_GE(auth_requests_s[1], 1.5);

  // The second dialogue's own timer still fires when it is due.
  sim.run_until(TimePoint{} + Duration::seconds(3.6));
  EXPECT_EQ(metrics.counter("epc.nas_retransmissions").value(), 1u);
  ASSERT_EQ(auth_requests_s.size(), 3u);
  EXPECT_GE(auth_requests_s[2], 3.5);
}

// An MME whose downlink reaches no UE: it records when each
// AuthenticationRequest leaves, and nothing ever answers.
struct UnansweredCore {
  static constexpr Duration kRetxTimeout = Duration::seconds(2.0);

  sim::Simulator sim;
  obs::MetricsRegistry metrics;
  EpcCore core{sim,
               EpcConfig{.deployment = CoreDeployment::kLocalStub,
                         .network_id = "test-net"},
               sim::RngStream{7}};
  std::vector<TimePoint> auth_requests;

  UnansweredCore() {
    core.set_metrics(&metrics);
    core.hss().provision(Imsi{1001}, key_for(1001), kOp);
    core.mme().set_sender([this](CellId, lte::S1apMessage m) {
      const auto* down = std::get_if<lte::DownlinkNasTransport>(&m);
      ASSERT_NE(down, nullptr);
      auto nas = lte::decode_nas(down->nas_pdu);
      ASSERT_TRUE(nas.ok());
      ASSERT_TRUE(std::holds_alternative<lte::AuthenticationRequest>(*nas));
      auth_requests.push_back(sim.now());
    });
  }

  void attach() {
    lte::InitialUeMessage init;
    init.enb_ue_id = EnbUeId{1};
    init.cell = CellId{1};
    init.nas_pdu = lte::encode_nas(lte::AttachRequest{Imsi{1001}, Tmsi{0}});
    core.mme().handle_s1ap(CellId{1}, lte::S1apMessage{std::move(init)});
  }

  std::uint64_t retransmissions() {
    return metrics.counter("epc.nas_retransmissions").value();
  }
};

TEST(NasRetx, FiresTimeoutAfterTheLatestSend) {
  // The UE repeats its AttachRequest 1 s in, so the MME sends a second
  // AuthenticationRequest; neither arrives. The retransmission is due
  // 2 s after the second send, not the first.
  UnansweredCore c;
  c.attach();
  c.sim.schedule(Duration::seconds(1.0), [&c] { c.attach(); });
  c.sim.run_until(TimePoint{} + Duration::seconds(2.9));
  EXPECT_EQ(c.retransmissions(), 0u);
  ASSERT_EQ(c.auth_requests.size(), 2u);
  EXPECT_GE(c.auth_requests[1], TimePoint{} + Duration::seconds(1.0));

  c.sim.run_until(TimePoint{} + Duration::seconds(3.1));
  EXPECT_EQ(c.retransmissions(), 1u);
  ASSERT_EQ(c.auth_requests.size(), 3u);
  EXPECT_EQ(c.auth_requests[2] - c.auth_requests[1],
            UnansweredCore::kRetxTimeout);
}

TEST(NasRetx, UnansweredMessageIsResentFourTimesThenDropped) {
  UnansweredCore c;
  c.attach();
  c.sim.run_all();
  EXPECT_EQ(c.retransmissions(), 4u);
  ASSERT_EQ(c.auth_requests.size(), 5u);
  for (std::size_t i = 1; i < c.auth_requests.size(); ++i) {
    EXPECT_EQ(c.auth_requests[i] - c.auth_requests[i - 1],
              UnansweredCore::kRetxTimeout)
        << "retransmission " << i;
  }
  EXPECT_EQ(c.sim.pending_events(), 0u);  // The timer ended.
}

TEST(NasRetx, CompletedAttachesLeaveAtMostOneTimerEach) {
  // Each attach sends three downlink NAS messages; its context keeps one
  // timer for all of them, and that timer ends at its deadline without
  // re-arming because the dialogue has registered.
  constexpr std::uint32_t kUes = 10;
  Fixture f;
  std::vector<ue::NasClient> clients;
  std::vector<EnbShim> shims;
  for (std::uint32_t i = 0; i < kUes; ++i) {
    clients.push_back(f.make_client(5000 + i));
    shims.push_back(EnbShim{f.sim, f.core.mme(), CellId{1},
                            EnbUeId{100 + i}});
  }
  f.core.mme().set_sender([&](CellId, lte::S1apMessage m) {
    std::uint32_t id = 0;
    if (const auto* d = std::get_if<lte::DownlinkNasTransport>(&m)) {
      id = d->enb_ue_id.value();
    } else if (const auto* c =
                   std::get_if<lte::InitialContextSetupRequest>(&m)) {
      id = c->enb_ue_id.value();
    }
    shims.at(id - 100).on_s1ap(m);
  });
  for (std::uint32_t i = 0; i < kUes; ++i) shims[i].start(clients[i]);

  f.sim.run_until(TimePoint{} + Duration::seconds(1.0));
  ASSERT_EQ(f.metrics.counter("epc.attaches_completed").value(), kUes);
  EXPECT_LE(f.sim.pending_events(), std::size_t{kUes});

  f.sim.run_until(TimePoint{} + Duration::seconds(2.5));
  EXPECT_EQ(f.sim.pending_events(), 0u);
  EXPECT_EQ(f.metrics.counter("epc.nas_retransmissions").value(), 0u);
  for (std::uint32_t i = 0; i < kUes; ++i) {
    EXPECT_TRUE(f.core.mme().is_registered(Imsi{5000 + i}));
  }
}

TEST(EpcCore, DeploymentCapabilities) {
  sim::Simulator sim;
  EpcCore central{sim, EpcConfig{.deployment = CoreDeployment::kCentralized},
                  sim::RngStream{1}};
  EpcCore stub{sim, EpcConfig{.deployment = CoreDeployment::kLocalStub},
               sim::RngStream{2}};
  EXPECT_TRUE(central.bills_subscribers());
  EXPECT_FALSE(stub.bills_subscribers());
}

}  // namespace
}  // namespace dlte::epc
